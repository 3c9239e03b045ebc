package main

import (
	"bytes"
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/memmodel"
	"repro/internal/observer"
	"repro/internal/serve"
)

var corpus = []string{
	"dekker.ccm",
	"figure2.ccm",
	"figure3.ccm",
	"figure4_prefix.ccm",
	"stale_read.ccm",
}

func startReplicas(t *testing.T, n int) string {
	t.Helper()
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		ts := httptest.NewServer(serve.New(serve.Config{}).Handler())
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	return strings.Join(urls, ",")
}

// singleBoxGolden is ccmc's committed -explain transcript for the pair
// (cmd/ccmc/testdata/explain) minus the engine-stats parenthetical,
// which is per-box by nature, so fleetctl omits it. Without -explain
// only the verdict lines remain.
func singleBoxGolden(t *testing.T, path string, explain bool) string {
	t.Helper()
	rel, err := filepath.Rel("../../testdata", path)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join("..", "ccmc", "testdata", "explain", strings.TrimSuffix(rel, ".ccm")+".txt"))
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, line := range strings.SplitAfter(string(data), "\n") {
		if strings.HasPrefix(line, " ") {
			if explain {
				b.WriteString(line)
			}
			continue
		}
		if stats, _, ok := strings.Cut(line, "  (search: "); ok {
			line = stats + "\n"
		}
		b.WriteString(line)
	}
	return b.String()
}

// TestRunMatchesSingleBoxOutput is the CLI-level conformance pin: over
// the whole corpus, with and without -explain, fleetctl's stdout is
// byte-identical to ccmc's golden transcript of the same pair.
func TestRunMatchesSingleBoxOutput(t *testing.T) {
	replicas := startReplicas(t, 3)
	for _, name := range corpus {
		path := "../../testdata/" + name
		for _, explain := range []bool{false, true} {
			args := []string{"-replicas", replicas, "-shards", "4"}
			if explain {
				args = append(args, "-explain")
			}
			var stdout, stderr bytes.Buffer
			code := run(append(args, path), &stdout, &stderr)
			if code != 0 {
				t.Fatalf("%s explain=%v: exit %d, stderr: %s", name, explain, code, stderr.String())
			}
			if want := singleBoxGolden(t, path, explain); stdout.String() != want {
				t.Errorf("%s explain=%v: output drifted from single-box.\n got:\n%s\nwant:\n%s",
					name, explain, stdout.String(), want)
			}
			if s := stderr.String(); strings.Contains(s, "degraded") {
				t.Errorf("%s: fault-free run reported degradation: %s", name, s)
			}
		}
	}
}

// TestRunMultiFileHeaders: more than one FILE gets per-file == headers.
func TestRunMultiFileHeaders(t *testing.T) {
	replicas := startReplicas(t, 2)
	var stdout, stderr bytes.Buffer
	code := run([]string{"-replicas", replicas,
		"../../testdata/figure2.ccm", "../../testdata/figure3.ccm"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	for _, h := range []string{"== ../../testdata/figure2.ccm\n", "== ../../testdata/figure3.ccm\n"} {
		if !strings.Contains(stdout.String(), h) {
			t.Errorf("missing header %q in output:\n%s", h, stdout.String())
		}
	}
}

// TestRunDegradesToExitThree: with every replica dead, fleetctl exits 3
// and reports the exact shard coverage of the typed INCONCLUSIVE(fleet)
// verdicts.
func TestRunDegradesToExitThree(t *testing.T) {
	ts := httptest.NewServer(serve.New(serve.Config{}).Handler())
	url := ts.URL
	ts.Close() // every dial now fails

	var stdout, stderr bytes.Buffer
	code := run([]string{"-replicas", url, "-shards", "2", "-max-attempts", "2",
		"../../testdata/dekker.ccm"}, &stdout, &stderr)
	if code != 3 {
		t.Fatalf("exit %d, want 3; stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "INCONCLUSIVE(fleet)") {
		t.Errorf("stdout lacks the typed fleet verdict:\n%s", stdout.String())
	}
	if !strings.Contains(stderr.String(), "covered 0/") {
		t.Errorf("stderr lacks the exact shard coverage:\n%s", stderr.String())
	}
	if !strings.Contains(stderr.String(), "fleetctl: inconclusive") {
		t.Errorf("stderr lacks the inconclusive summary:\n%s", stderr.String())
	}
}

// TestRunUsage: flag and argument errors are exit 2; unreadable files
// are exit 1.
func TestRunUsage(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"../../testdata/dekker.ccm"}, &stdout, &stderr); code != 2 {
		t.Errorf("missing -replicas: exit %d, want 2", code)
	}
	if code := run([]string{"-replicas", "http://127.0.0.1:1"}, &stdout, &stderr); code != 2 {
		t.Errorf("no files: exit %d, want 2", code)
	}
	if code := run([]string{"-bogus"}, &stdout, &stderr); code != 2 {
		t.Errorf("unknown flag: exit %d, want 2", code)
	}
	if code := run([]string{"-replicas", "http://127.0.0.1:1", "no-such-file.ccm"}, &stdout, &stderr); code != 1 {
		t.Errorf("unreadable file: exit %d, want 1", code)
	}
}

// TestRunModelNames: -models resolves through the model registry —
// any letter case works, and an unknown name is a usage error listing
// the registered models, before any replica is asked.
func TestRunModelNames(t *testing.T) {
	replicas := startReplicas(t, 1)
	for _, tc := range []struct {
		models string
		code   int
		want   string // on stdout, or on stderr for a usage error
	}{
		{"tso,lc", 0, "TSO    IN\nLC     IN\n"},
		{"Causal", 0, "CAUSAL IN\n"},
		{"sc", 1, "SC     OUT\n"},
		{"tso, PSO", 2, `unknown model "PSO" (known models: ` + strings.Join(memmodel.ModelNames(), ", ") + ")"},
	} {
		var stdout, stderr bytes.Buffer
		code := run([]string{"-replicas", replicas, "-models", tc.models, "../../testdata/litmus/sb.ccm"}, &stdout, &stderr)
		got := stdout.String()
		if tc.code == 2 {
			got = stderr.String()
		}
		if code != tc.code || !strings.Contains(got, tc.want) {
			t.Errorf("-models %s: exit %d, want %d; output lacks %q:\n%s", tc.models, code, tc.code, tc.want, got)
		}
	}
}

// TestRunSingleModelOut: -models with one OUT model is exit 1, the
// ccmc convention.
func TestRunSingleModelOut(t *testing.T) {
	replicas := startReplicas(t, 1)
	// Find a corpus pair that is OUT of some model.
	for _, name := range corpus {
		path := "../../testdata/" + name
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		named, ofn, err := observer.ParsePair(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range memmodel.ModelNames() {
			d, err := memmodel.DecideByName(context.Background(), m, named.Comp, ofn, memmodel.SearchOptions{})
			if err != nil || !d.Verdict.Out() {
				continue
			}
			var stdout, stderr bytes.Buffer
			if code := run([]string{"-replicas", replicas, "-models", m, path}, &stdout, &stderr); code != 1 {
				t.Errorf("%s -models %s: exit %d, want 1", name, m, code)
			}
			return
		}
	}
	t.Skip("no OUT pair in the corpus")
}
