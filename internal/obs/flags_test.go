package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestAddFlagsDefaults(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	f := AddFlags(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if f.Progress != 0 || f.Report != "" || f.Trace != "" || f.PProf != "" {
		t.Fatalf("defaults: %+v", f)
	}
	var stderr bytes.Buffer
	code := f.Run("t", nil, &stderr, func(rec Recorder) int {
		if rec != nil {
			t.Error("no flags set but the recorder is non-nil — hot paths would pay for it")
		}
		return 3
	})
	if code != 3 || stderr.Len() != 0 {
		t.Fatalf("Run = %d, stderr %q; want the body's 3 and nothing printed", code, stderr.String())
	}
}

func TestSessionWritesReportAndTrace(t *testing.T) {
	dir := t.TempDir()
	reportPath := filepath.Join(dir, "report.json")
	tracePath := filepath.Join(dir, "trace.json")

	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	f := AddFlags(fs)
	if err := fs.Parse([]string{"-progress", "1h", "-report", reportPath, "-trace", tracePath}); err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	code := f.Run("ccmc", []string{"-demo"}, &stderr, func(rec Recorder) int {
		if rec == nil {
			t.Fatal("flags set but the recorder is nil")
		}
		Emit(rec, Event{Kind: RunStart, Run: "SC"})
		Emit(rec, Event{Kind: RunEnd, Run: "SC", Str: "IN", Stats: &Stats{States: 3}})
		return 2
	})
	if code != 2 {
		t.Fatalf("Run = %d, want the body's 2; stderr %q", code, stderr.String())
	}

	raw, err := os.ReadFile(reportPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Tool != "ccmc" || rep.ExitCode != 2 || len(rep.Runs) != 1 || rep.Runs[0].Outcome != "IN" {
		t.Fatalf("report: %+v", rep)
	}

	traw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(traw, &events); err != nil {
		t.Fatalf("trace: %v", err)
	}
	if len(events) != 1 || events[0]["name"] != "SC" {
		t.Fatalf("trace events: %v", events)
	}
}

// TestSessionWriteFailure: a report that cannot be written is printed
// after the tool's name and turns a clean exit into 1, while a failing
// exit code stays as the body returned it.
func TestSessionWriteFailure(t *testing.T) {
	f := &Flags{Report: filepath.Join(t.TempDir(), "missing", "report.json")}
	for _, tc := range []struct{ body, want int }{{0, 1}, {3, 3}} {
		var stderr bytes.Buffer
		code := f.Run("t", nil, &stderr, func(Recorder) int { return tc.body })
		if code != tc.want || !strings.HasPrefix(stderr.String(), "t: ") {
			t.Errorf("body %d: Run = %d, stderr %q; want %d and the write error", tc.body, code, stderr.String(), tc.want)
		}
	}
}

func TestSessionPProf(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	f := AddFlags(fs)
	if err := fs.Parse([]string{"-pprof", "127.0.0.1:0"}); err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	f.Run("t", nil, &stderr, func(Recorder) int {
		_, rest, _ := strings.Cut(stderr.String(), "pprof serving on ")
		url := strings.TrimSpace(rest)
		client := &http.Client{Timeout: 5 * time.Second}
		resp, err := client.Get(url)
		if err != nil {
			t.Fatalf("%v (stderr %q)", err, stderr.String())
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("pprof index: %s", resp.Status)
		}
		return 0
	})
}

func TestSessionPProfBadAddress(t *testing.T) {
	f := &Flags{PProf: "256.256.256.256:http"}
	var stderr bytes.Buffer
	ran := false
	code := f.Run("t", nil, &stderr, func(Recorder) int { ran = true; return 0 })
	if code != 2 || ran || !strings.HasPrefix(stderr.String(), "t: obs: -pprof") {
		t.Fatalf("bad -pprof address: Run = %d, body ran %v, stderr %q; want 2 before the body", code, ran, stderr.String())
	}
}
