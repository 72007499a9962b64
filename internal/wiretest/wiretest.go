// Package wiretest holds what the tests of every sweep surface share:
// the bad sweeps each surface must refuse with the same message, and
// golden-file comparison of streamed output.
package wiretest

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"testing"
)

// Refuses runs every bad sweep through refuse and checks the message it
// returns is prefix followed by the same text on every surface. The
// sweeps are spelled as colab-serve's query and colab-fleet's flags spell
// them; refuse returns false for one its surface cannot spell. The
// trace-file sweep replays a trace file written under t.TempDir().
func Refuses(t *testing.T, prefix string, refuse func(url.Values) (string, bool)) {
	t.Helper()
	trace := filepath.Join(t.TempDir(), "arrivals.trace")
	if err := os.WriteFile(trace, []byte("0\n5ms\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	replay := fmt.Sprintf("dedup:2*2@arrive=tracefile(%s)", trace)
	for _, bad := range []struct {
		name   string
		params url.Values
		want   string
	}{
		{"no workload", url.Values{"policy": {"linux"}},
			"at least one workload is required (a registered name or a scenario-grammar spec)"},
		{"unknown machine", url.Values{"workload": {"Sync-1"}, "machine": {"9B9S"}},
			`unknown machine "9B9S" (known named shapes: 2B2S, 2B4S, 4B2S, 4B4S, 2B2M2S, 32B32M64S, 64B64S, 2x2B2S, 2x32B32M64S, 4x16B16S)`},
		{"non-integer seed", url.Values{"workload": {"Sync-1"}, "seed": {"1,x"}},
			`seed "x" is not an unsigned integer`},
		{"trace file", url.Values{"workload": {replay}},
			fmt.Sprintf("workload %q replays the local trace file of term %q, which does not travel the wire by name; inline the times with @arrive=trace(...)",
				replay, fmt.Sprintf("dedup:2*2@arrive=tracefile(%s,sha256=e816724552d02b4d)", trace))},
	} {
		if got, ok := refuse(bad.params); ok && got != prefix+bad.want {
			t.Errorf("%s: got %q, want %q", bad.name, got, prefix+bad.want)
		}
	}
}

// Golden compares got with the golden file at path. With GOLDEN_WRITE set
// it rewrites the file instead (intentional output changes only).
func Golden(t testing.TB, path string, got []byte) {
	t.Helper()
	if os.Getenv("GOLDEN_WRITE") != "" {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from %s:\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}

// GoldenReply compares the body of a 200 response with the golden file
// at path, as Golden does.
func GoldenReply(t testing.TB, path string, resp *http.Response, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: %s, %v", path, resp.Status, err)
	}
	Golden(t, path, body)
}
