package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/memmodel"
)

// runLattice runs the CLI and returns (exit code, stdout, stderr).
// The witness fixtures live relative to the repo root, so the helper
// points the flag there; explicit -witnesses args in a test override
// it (the last setting of a flag wins).
func runLattice(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(append([]string{"-witnesses", "../../testdata/litmus"}, args...), &out, &errb)
	return code, out.String(), errb.String()
}

func TestDefaultLatticeCheck(t *testing.T) {
	code, out, _ := runLattice(t, "-n", "3")
	if code != 0 {
		t.Fatalf("exit code = %d, want 0; output:\n%s", code, out)
	}
	for _, want := range []string{"Figure 1 lattice", "SC", "LC", "OK"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

// TestWitnessChecks: the default lattice check re-decides the
// committed strictness witnesses and folds them into the exit code —
// a tampered fixture fails the run, a missing directory is an
// environment error, and an empty -witnesses skips the table.
func TestWitnessChecks(t *testing.T) {
	code, out, _ := runLattice(t, "-n", "3")
	if code != 0 || !strings.Contains(out, "strictness witnesses") {
		t.Fatalf("default check: exit %d, witness table missing:\n%s", code, out)
	}
	for _, want := range []string{"TSO ∖ CAUSAL", "RA ∖ CAUSAL", "sb.ccm", "iriw.ccm"} {
		if !strings.Contains(out, want) {
			t.Errorf("witness table missing %q:\n%s", want, out)
		}
	}

	code, out, _ = runLattice(t, "-n", "3", "-witnesses", "")
	if code != 0 || strings.Contains(out, "strictness witnesses") {
		t.Fatalf("-witnesses \"\": exit %d, table skipped=%v", code, !strings.Contains(out, "strictness witnesses"))
	}

	if code, _, errb := runLattice(t, "-n", "3", "-witnesses", filepath.Join(t.TempDir(), "nope")); code != 2 || errb == "" {
		t.Fatalf("missing witness dir: exit %d (want 2), stderr %q", code, errb)
	}

	// Tamper with one fixture: sb.ccm claims TSO ∖ SC, so an SC-member
	// pair in its place must fail the claim and the run.
	dir := t.TempDir()
	src, err := filepath.Glob("../../testdata/litmus/*.ccm")
	if err != nil || len(src) == 0 {
		t.Fatal("no fixtures to copy")
	}
	for _, f := range src {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(f)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	scIn, err := os.ReadFile(filepath.Join(dir, "mp_sync.ccm"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "sb.ccm"), scIn, 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, _ = runLattice(t, "-n", "3", "-witnesses", dir)
	if code != 1 || !strings.Contains(out, "MISMATCH") {
		t.Fatalf("tampered fixture: exit %d (want 1), output:\n%s", code, out)
	}
}

func TestCensus(t *testing.T) {
	code, out, _ := runLattice(t, "-n", "3", "-census", "-workers", "2")
	if code != 0 {
		t.Fatalf("exit code = %d, want 0; output:\n%s", code, out)
	}
	for _, m := range []string{"SC", "LC", "NN", "NW", "WN", "WW"} {
		if !strings.Contains(out, m) {
			t.Fatalf("census missing model %s:\n%s", m, out)
		}
	}
}

func TestStarPassAndFail(t *testing.T) {
	code, out, _ := runLattice(t, "-n", "3", "-star", "NN")
	if code != 0 {
		t.Fatalf("passing star: exit code = %d, want 0; output:\n%s", code, out)
	}
	// The smallest star run, and one without locations, are still legal.
	for _, args := range [][]string{{"-n", "1", "-star", "NN"}, {"-n", "2", "-locs", "0", "-star", "NN"}} {
		if code, out, errOut := runLattice(t, args...); code != 0 {
			t.Fatalf("%v: exit code = %d, want 0; output:\n%s%s", args, code, out, errOut)
		}
	}
	// WN* ≠ LC already at size 2, so the 3-node sweep must fail — and
	// the failure must surface in the exit code, not just the text.
	code, out, _ = runLattice(t, "-n", "3", "-star", "WN")
	if code != 1 {
		t.Fatalf("failing star: exit code = %d, want 1; output:\n%s", code, out)
	}
}

func TestPropsPassAndFail(t *testing.T) {
	code, out, _ := runLattice(t, "-n", "3", "-props", "SC")
	if code != 0 {
		t.Fatalf("passing props: exit code = %d, want 0; output:\n%s", code, out)
	}
	// NN fails the augmentation criterion at 4 nodes (Figure 4).
	code, out, _ = runLattice(t, "-n", "4", "-props", "NN")
	if code != 1 {
		t.Fatalf("failing props: exit code = %d, want 1; output:\n%s", code, out)
	}
}

func TestFindTrapExitCodes(t *testing.T) {
	code, out, _ := runLattice(t, "-n", "3", "-findtrap", "NN")
	if code != 0 || !strings.Contains(out, "no non-constructibility witness") {
		t.Fatalf("trap-free universe: exit code = %d, want 0; output:\n%s", code, out)
	}
	code, out, _ = runLattice(t, "-n", "4", "-findtrap", "NN")
	if code != 1 || !strings.Contains(out, "smallest NN trap") {
		t.Fatalf("trap found: exit code = %d, want 1; output:\n%s", code, out)
	}
}

func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"bad flag", []string{"-no-such-flag"}},
		{"positional arg", []string{"extra"}},
		{"unknown star model", []string{"-star", "XX"}},
		{"unknown props model", []string{"-props", "XX"}},
		{"unknown findtrap model", []string{"-findtrap", "XX"}},
		{"workers with star", []string{"-workers", "2", "-star", "NN"}},
		{"workers with props", []string{"-workers", "2", "-props", "SC", "-n", "3"}},
		{"workers with findtrap", []string{"-workers", "2", "-findtrap", "NN", "-n", "3"}},
		{"negative n", []string{"-n", "-1"}},
		{"negative n with reduce", []string{"-n", "-1", "-reduce"}},
		{"negative n with census", []string{"-n", "-1", "-census"}},
		{"negative n with star", []string{"-n", "-1", "-star", "NN"}},
		{"negative n with props", []string{"-n", "-1", "-props", "SC"}},
		{"negative n with findtrap", []string{"-n", "-1", "-findtrap", "NN"}},
		{"negative locs", []string{"-locs", "-1", "-n", "2"}},
		{"negative locs with reduce", []string{"-locs", "-1", "-n", "2", "-reduce"}},
		{"negative locs with census", []string{"-locs", "-1", "-n", "2", "-census"}},
		{"negative locs with star", []string{"-locs", "-1", "-n", "2", "-star", "NN"}},
		{"negative locs with props", []string{"-locs", "-1", "-n", "2", "-props", "SC"}},
		{"negative locs with findtrap", []string{"-locs", "-1", "-n", "2", "-findtrap", "NN"}},
		{"star without an interior", []string{"-n", "0", "-star", "NN"}},
	} {
		if code, out, _ := runLattice(t, tc.args...); code != 2 {
			t.Errorf("%s: exit code = %d, want 2; output:\n%s", tc.name, code, out)
		}
	}
}

// TestModelNames: -star, -props and -findtrap resolve through the
// model registry — any letter case works, and an unknown name is a
// usage error listing the registered models.
func TestModelNames(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
		want string // on stdout, or on stderr for a usage error
	}{
		{[]string{"-n", "3", "-star", "nn"}, 0, "NN* over computations ≤3 nodes"},
		{[]string{"-n", "2", "-props", "Sc"}, 0, "SC over ≤2 nodes"},
		{[]string{"-n", "2", "-findtrap", "nw"}, 0, "NW has no non-constructibility witness"},
		{[]string{"-star", "PSO"}, 2, `unknown model "PSO" (known models: ` + strings.Join(memmodel.ModelNames(), ", ") + ")"},
	} {
		code, out, errOut := runLattice(t, tc.args...)
		if tc.code == 2 {
			out = errOut
		}
		if code != tc.code || !strings.Contains(out, tc.want) {
			t.Errorf("%v: exit %d, want %d; output lacks %q:\n%s", tc.args, code, tc.code, tc.want, out)
		}
	}
}

// -workers is honored (not rejected) on the branches that shard.
func TestWorkersAllowedOnShardedBranches(t *testing.T) {
	if code, out, _ := runLattice(t, "-n", "3", "-workers", "2"); code != 0 {
		t.Fatalf("lattice -workers: exit code = %d, want 0; output:\n%s", code, out)
	}
}

func TestReportFlag(t *testing.T) {
	path := filepath.Join(t.TempDir(), "report.json")
	code, _, _ := runLattice(t, "-n", "3", "-star", "WN", "-report", path)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Tool     string `json:"tool"`
		ExitCode int    `json:"exit_code"`
		Runs     []struct {
			Name    string `json:"name"`
			Outcome string `json:"outcome"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("report is not JSON: %v\n%s", err, data)
	}
	if rep.Tool != "lattice" || rep.ExitCode != 1 {
		t.Fatalf("report header: %+v", rep)
	}
	if len(rep.Runs) != 1 || rep.Runs[0].Name != "star WN" || rep.Runs[0].Outcome != "FAILED" {
		t.Fatalf("report runs: %+v", rep.Runs)
	}
}

func TestTraceFlag(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	code, _, _ := runLattice(t, "-n", "3", "-trace", path)
	if code != 0 {
		t.Fatalf("exit code = %d, want 0", code)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(data, &events); err != nil {
		t.Fatalf("trace is not a JSON array: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("trace is empty for a 7-edge lattice check")
	}
}

// TestReduceMatchesUnreduced: the -reduce sweeps must render the exact
// same bytes as their unreduced counterparts on every branch that
// supports the flag.
func TestReduceMatchesUnreduced(t *testing.T) {
	for _, tc := range [][]string{
		{"-n", "3"},
		{"-n", "3", "-workers", "2"},
		{"-n", "3", "-census"},
		{"-n", "3", "-props", "SC"},
	} {
		fullCode, full, _ := runLattice(t, tc...)
		redCode, red, _ := runLattice(t, append(append([]string{}, tc...), "-reduce")...)
		if fullCode != redCode {
			t.Fatalf("%v: exit code %d with -reduce, %d without", tc, redCode, fullCode)
		}
		if full != red {
			t.Fatalf("%v: -reduce output differs:\n%s\nvs\n%s", tc, red, full)
		}
	}
}

// TestReducedN5Golden pins the paper's Figure 1 sweep at n = 5, the
// size the benchmark runs: testdata/reduce-n5.txt and .exit hold the
// stdout and exit code of `lattice -n 5 -reduce -workers 2`, recorded
// before the happens-before deciders were rebuilt on reusable cores.
func TestReducedN5Golden(t *testing.T) {
	if testing.Short() {
		t.Skip("n = 5 sweep skipped in -short mode")
	}
	want, err := os.ReadFile(filepath.Join("testdata", "reduce-n5.txt"))
	if err != nil {
		t.Fatal(err)
	}
	wantCode, err := os.ReadFile(filepath.Join("testdata", "reduce-n5.exit"))
	if err != nil {
		t.Fatal(err)
	}
	code, out, errOut := runLattice(t, "-n", "5", "-reduce", "-workers", "2")
	if got := strconv.Itoa(code); got != strings.TrimSpace(string(wantCode)) {
		t.Fatalf("exit code %s, golden %s; stderr:\n%s", got, strings.TrimSpace(string(wantCode)), errOut)
	}
	if out != string(want) {
		t.Fatalf("output drifted from testdata/reduce-n5.txt:\ngot:\n%s\nwant:\n%s", out, want)
	}
}

func TestReduceRejectedOnMutatingBranches(t *testing.T) {
	for _, args := range [][]string{
		{"-n", "3", "-reduce", "-star", "NN"},
		{"-n", "3", "-reduce", "-findtrap", "NN"},
	} {
		if code, out, _ := runLattice(t, args...); code != 2 {
			t.Errorf("%v: exit code = %d, want 2; output:\n%s", args, code, out)
		}
	}
}
