package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/computation"
	"repro/internal/dag"
	"repro/internal/stream"
	"repro/internal/trace"
)

func TestRunDemo(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-demo"}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1 (the demo trace is LC but not SC); output:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "LC: explainable") || !strings.Contains(out.String(), "SC: VIOLATED") {
		t.Fatalf("unexpected output:\n%s", out.String())
	}
}

// TestRunUsage: a missing file is a usage error, and so are the flags
// of a pair mode (deciding pairs is ccmc's job); -max-states caps each
// search at a million states unless it is set.
func TestRunUsage(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(nil, &out, &errb); code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
	for _, args := range [][]string{{"-pair", "../../testdata/figure2.ccm"}, {"-model", "SC", "-demo"}, {"-budget", "5", "-demo"}} {
		errb.Reset()
		if code := run(args, &out, &errb); code != 2 || !strings.Contains(errb.String(), "flag provided but not defined") {
			t.Errorf("%v: exit %d, want 2 for an undefined flag; stderr: %s", args, code, errb.String())
		}
	}
	errb.Reset()
	run([]string{"-h"}, &out, &errb)
	if want := "(0 = unlimited); exhaustion yields INCONCLUSIVE(budget) (default 1000000)"; !strings.Contains(errb.String(), want) {
		t.Errorf("usage lacks %q:\n%s", want, errb.String())
	}
}

func TestRunBudgetInconclusive(t *testing.T) {
	path := writeHardTrace(t)
	var out, errb bytes.Buffer
	code := run([]string{"-max-states", "2000", path}, &out, &errb)
	if code != 3 {
		t.Fatalf("exit code = %d, want 3; output:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "INCONCLUSIVE(budget)") {
		t.Fatalf("output missing budget verdict:\n%s", out.String())
	}
}

// TestRunTimeoutInconclusive is the acceptance criterion: a deadline
// landing mid-search on a hard trace must yield INCONCLUSIVE(deadline)
// with exit code 3, within ~2x the deadline, with no goroutine leak.
func TestRunTimeoutInconclusive(t *testing.T) {
	path := writeHardTrace(t)
	base := runtime.NumGoroutine()
	var out, errb bytes.Buffer
	start := time.Now()
	code := run([]string{"-timeout", "250ms", "-max-states", "0", path}, &out, &errb)
	elapsed := time.Since(start)

	if code != 3 {
		t.Fatalf("exit code = %d, want 3; output:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "INCONCLUSIVE(deadline)") {
		t.Fatalf("output missing deadline verdict:\n%s", out.String())
	}
	if elapsed > 2*time.Second {
		t.Fatalf("deadline run took %v against a 250ms deadline", elapsed)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base+2 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d goroutines, baseline %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRunStreamConformance is the CLI half of the tentpole's
// acceptance criterion: for every corpus trace, `verify -stream` must
// reach the same LC/SC verdict spellings and the same exit code as the
// post-mortem run. (Search-state counts may differ: online-proved
// violations short-circuit their search.)
func TestRunStreamConformance(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.trace"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("corpus glob: %v (found %d)", err, len(paths))
	}
	for _, path := range paths {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			var offOut, offErr, strOut, strErr bytes.Buffer
			offCode := run([]string{path}, &offOut, &offErr)
			strCode := run([]string{"-stream", path}, &strOut, &strErr)
			if offCode != strCode {
				t.Fatalf("exit codes diverge: offline %d, stream %d\noffline:\n%s\nstream:\n%s",
					offCode, strCode, offOut.String(), strOut.String())
			}
			offLC, offSC := verdictLines(t, offOut.String())
			strLC, strSC := verdictLines(t, strOut.String())
			if offLC != strLC || offSC != strSC {
				t.Fatalf("verdicts diverge:\noffline LC=%q SC=%q\nstream  LC=%q SC=%q",
					offLC, offSC, strLC, strSC)
			}
		})
	}
}

// verdictLines extracts the verdict spellings from the "LC: …" and
// "SC: …" output lines, stripping the search-state parenthetical.
func verdictLines(t *testing.T, out string) (lc, sc string) {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		text, rest := "", ""
		if s, ok := strings.CutPrefix(line, "LC: "); ok {
			text, rest = "LC", s
		} else if s, ok := strings.CutPrefix(line, "SC: "); ok {
			text, rest = "SC", s
		} else {
			continue
		}
		verdict, _, _ := strings.Cut(rest, "  (")
		if text == "LC" {
			lc = verdict
		} else {
			sc = verdict
		}
	}
	if lc == "" || sc == "" {
		t.Fatalf("output missing verdict lines:\n%s", out)
	}
	return lc, sc
}

// TestRunStreamViolationAnnounced pins the online property the stream
// mode exists for: on a violating trace, the stable violation is
// reported before the final verdict lines.
func TestRunStreamViolationAnnounced(t *testing.T) {
	path := filepath.Join("..", "..", "testdata", "corr_violation.trace")
	var out, errb bytes.Buffer
	code := run([]string{"-stream", path}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1; output:\n%s", code, out.String())
	}
	s := out.String()
	vi := strings.Index(s, "stream: event ")
	li := strings.Index(s, "LC: ")
	if vi < 0 {
		t.Fatalf("no mid-stream violation line:\n%s", s)
	}
	if li >= 0 && vi > li {
		t.Fatalf("violation reported after the final verdict:\n%s", s)
	}
}

// TestRunEvents checks the NDJSON emitter round-trips: every line
// parses as a stream event, the stream is end-terminated, and feeding
// it back through the online checker reproduces the trace shape.
func TestRunEvents(t *testing.T) {
	path := filepath.Join("..", "..", "testdata", "mp_stale.trace")
	var out, errb bytes.Buffer
	if code := run([]string{"-events", path}, &out, &errb); code != 0 {
		t.Fatalf("exit code = %d, want 0; stderr:\n%s", code, errb.String())
	}
	lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
	if len(lines) < 3 {
		t.Fatalf("suspiciously short event stream:\n%s", out.String())
	}
	chk := stream.New(stream.Options{})
	for i, line := range lines {
		ev, err := stream.ParseEvent([]byte(line))
		if err != nil {
			t.Fatalf("line %d: %v", i+1, err)
		}
		if _, err := chk.Ingest(ev); err != nil {
			t.Fatalf("line %d: ingest: %v", i+1, err)
		}
	}
	if !chk.Ended() {
		t.Fatalf("event stream not end-terminated:\n%s", out.String())
	}
}

// writeHardTrace renders the pinned hard checker instance (the same
// generator and seed as the engine governance tests: >1e8 search
// states, minutes of work uncapped) to a temp file in verify's format.
func writeHardTrace(t *testing.T) string {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	g := dag.RandomLayered(rng, 30, 8, 0.08)
	n := g.NumNodes()
	ops := make([]computation.Op, n)
	for i := range ops {
		l := computation.Loc(rng.Intn(2))
		if rng.Intn(3) == 0 {
			ops[i] = computation.W(l)
		} else {
			ops[i] = computation.R(l)
		}
	}
	c := computation.MustFrom(g, ops, 2)
	tr := trace.New(c)
	for u := 0; u < n; u++ {
		switch c.Op(dag.Node(u)).Kind {
		case computation.Write:
			tr.WriteVal[u] = trace.Value(rng.Intn(3) + 1)
		case computation.Read:
			tr.ReadVal[u] = trace.Value(rng.Intn(3) + 1)
		}
	}
	named := &computation.Named{
		Comp:    c,
		NodeID:  make(map[string]dag.Node, n),
		LocName: []string{"x", "y"},
		LocID:   map[string]computation.Loc{"x": 0, "y": 1},
	}
	for u := 0; u < n; u++ {
		name := fmt.Sprintf("n%d", u)
		named.NodeName = append(named.NodeName, name)
		named.NodeID[name] = dag.Node(u)
	}
	path := filepath.Join(t.TempDir(), "hard.trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := (&trace.NamedTrace{Named: named, Trace: tr}).Format(f); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestGovernanceFlags: -max-memo-mb converts through the saturating
// MiB conversion in every mode (2^43 MiB used to wrap to a negative,
// uncapped memo cap and 2^44+1 MiB to a 1 MiB cap), and a negative
// governance flag is a usage error instead of running ungoverned.
func TestGovernanceFlags(t *testing.T) {
	modes := [][]string{{"-demo"}, {"-stream", "../../testdata/mp_stale.trace"}}
	for _, tc := range []struct {
		mb   int64
		ok   bool
		memo int64
	}{
		{0, true, 0},
		{1, true, 1 << 20},
		{1 << 43, true, math.MaxInt64},
		{1<<44 + 1, true, math.MaxInt64},
		{-1, false, 0},
	} {
		mb := strconv.FormatInt(tc.mb, 10)
		for _, mode := range modes {
			var out, errb bytes.Buffer
			code := run(append([]string{"-max-memo-mb", mb}, mode...), &out, &errb)
			if (code == 2) == tc.ok {
				t.Errorf("-max-memo-mb %s %v: exit %d; stderr: %s", mb, mode, code, errb.String())
			}
		}
		opts, err := searchOptions(1, 0, 0, tc.mb)
		if (err == nil) != tc.ok || opts.MaxMemoBytes != tc.memo {
			t.Errorf("-max-memo-mb %s: memo cap %d bytes, err %v; want %d", mb, opts.MaxMemoBytes, err, tc.memo)
		}
	}
	for _, args := range [][]string{{"-max-states", "-5"}, {"-timeout", "-1s"}} {
		var out, errb bytes.Buffer
		if code := run(append(args, "-demo"), &out, &errb); code != 2 || !strings.Contains(errb.String(), "non-negative") {
			t.Errorf("%v: exit %d, want 2 naming the rule; stderr: %s", args, code, errb.String())
		}
	}
}

// TestRunErrorNamesFileLine: a parse error names the line of the file,
// past its comment header and the value lines before it.
func TestRunErrorNamesFileLine(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "..", "testdata", "dekker_bottom.trace"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(b), "\n")
	if lines[14] != "node RY R(y) = ?" {
		t.Fatalf("line 15 of dekker_bottom.trace is %q", lines[14])
	}
	lines[14] = "node RY Q(y) = ?"
	path := filepath.Join(t.TempDir(), "bad.trace")
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if code := run([]string{path}, &out, &errb); code != 1 || errb.String() != "verify: line 15: computation: unknown op kind 'Q'\n" {
		t.Fatalf("exit code %d, stderr %q", code, errb.String())
	}
}

// TestRunDocExample runs verify on the trace of its own usage text,
// verbatim: it is the demo trace, so it prints the demo's verdicts.
func TestRunDocExample(t *testing.T) {
	b, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	_, rest, _ := strings.Cut(string(b), "// File format")
	var example strings.Builder
	for _, line := range strings.Split(rest, "\n") {
		if text, ok := strings.CutPrefix(line, "//\t"); ok {
			example.WriteString(text + "\n")
		} else if example.Len() > 0 {
			break
		}
	}
	path := filepath.Join(t.TempDir(), "example.trace")
	if err := os.WriteFile(path, []byte(example.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb, demo bytes.Buffer
	code := run([]string{path}, &out, &errb)
	demoCode := run([]string{"-demo"}, &demo, io.Discard)
	_, demoVerdicts, _ := strings.Cut(demo.String(), demoTrace+"\n")
	if code != demoCode || errb.Len() != 0 || out.String() != demoVerdicts {
		t.Fatalf("exit code %d (demo %d), stderr %q, output:\n%s\ndemo's:\n%s", code, demoCode, errb.String(), out.String(), demoVerdicts)
	}
}
