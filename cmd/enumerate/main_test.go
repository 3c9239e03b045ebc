package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/obs"
)

func TestRunCensus(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-n", "3"}, &out, &errb); code != 0 {
		t.Fatalf("exit code = %d, want 0; stderr: %s", code, errb.String())
	}
	want, err := os.ReadFile("testdata/census-n3.txt")
	if err != nil {
		t.Fatal(err)
	}
	if out.String() != string(want) {
		t.Errorf("census differs from testdata/census-n3.txt:\n%q\n%q", out.String(), want)
	}
	for _, model := range []string{"SC", "LC", "WW"} {
		if !strings.Contains(out.String(), model) {
			t.Errorf("census table missing model %s:\n%s", model, out.String())
		}
	}
}

// TestGoldens pins the census at sizes the live reference in
// internal/expt does not reach: testdata/STEM.txt and STEM.exit hold the
// stdout and exit code recorded when the census swept every computation
// of the universe rather than one per isomorphism class. The table must
// not depend on how the workers split the dags.
func TestGoldens(t *testing.T) {
	for _, tc := range []struct {
		stem string
		args []string
	}{
		{"census-n4", []string{"-n", "4"}},
		{"census-n3-locs2", []string{"-n", "3", "-locs", "2"}},
	} {
		want, err := os.ReadFile(filepath.Join("testdata", tc.stem+".txt"))
		if err != nil {
			t.Fatal(err)
		}
		wantCode, err := os.ReadFile(filepath.Join("testdata", tc.stem+".exit"))
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []string{"1", "2", "3"} {
			args := append([]string{"-workers", workers}, tc.args...)
			var out, errb bytes.Buffer
			code := run(args, &out, &errb)
			if got := strconv.Itoa(code); got != strings.TrimSpace(string(wantCode)) {
				t.Fatalf("%v: exit code %s, golden %s; stderr:\n%s", args, got, strings.TrimSpace(string(wantCode)), errb.String())
			}
			if out.String() != string(want) {
				t.Fatalf("%v: output drifted from testdata/%s.txt:\ngot:\n%s\nwant:\n%s", args, tc.stem, out.String(), want)
			}
		}
	}
}

// TestRunCensusWorkersAgree: the parallel sweep must produce the same
// table regardless of shard count.
func TestRunCensusWorkersAgree(t *testing.T) {
	var seq, par bytes.Buffer
	var errb bytes.Buffer
	if code := run([]string{"-n", "3", "-workers", "1"}, &seq, &errb); code != 0 {
		t.Fatalf("sequential run failed: %d; %s", code, errb.String())
	}
	if code := run([]string{"-n", "3", "-workers", "4"}, &par, &errb); code != 0 {
		t.Fatalf("parallel run failed: %d; %s", code, errb.String())
	}
	if seq.String() != par.String() {
		t.Errorf("census depends on worker count:\n%q\n%q", seq.String(), par.String())
	}
}

func TestRunPerSize(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-n", "3", "-persize"}, &out, &errb); code != 0 {
		t.Fatalf("exit code = %d, want 0; stderr: %s", code, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	// Header plus one row per size 0..3.
	if len(lines) != 5 {
		t.Fatalf("per-size table has %d lines, want 5:\n%s", len(lines), out.String())
	}
	if !strings.HasPrefix(lines[0], "size") {
		t.Errorf("missing header: %q", lines[0])
	}
	// Size 1 with one location: one computation (a single write; a
	// lone read cannot be observed) per kind — spot-check the row shape.
	for _, line := range lines[1:] {
		if fields := strings.Fields(line); len(fields) != 4 {
			t.Errorf("malformed row %q", line)
		}
	}
}

func TestRunFlagErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-bogus"},
		{"positional"},
		{"-reduce"},
		{"-n", "-1"},
		{"-n", "-1", "-persize"},
		{"-n", "2", "-locs", "-1"},
		{"-n", "2", "-locs", "-1", "-persize"},
		{"-n", "2", "-workers", "-1"},
		{"-n", "2", "-workers", "-3", "-persize"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 2 {
			t.Errorf("run(%v) = %d, want 2", args, code)
		}
	}
	// -n 0, -locs 0 and -workers 0 (GOMAXPROCS) stay legal.
	for _, args := range [][]string{{"-n", "0"}, {"-n", "2", "-locs", "0", "-persize"}, {"-n", "2", "-workers", "0"}} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 0 {
			t.Errorf("run(%v) = %d, want 0; stderr: %s", args, code, errb.String())
		}
	}
}

// TestRunReport: the census run participates in the observability
// contract — -report emits a schema-valid report naming the tool.
func TestRunReport(t *testing.T) {
	reportFile := t.TempDir() + "/report.json"
	var out, errb bytes.Buffer
	if code := run([]string{"-n", "2", "-report", reportFile}, &out, &errb); code != 0 {
		t.Fatalf("exit code = %d; stderr: %s", code, errb.String())
	}
	report, err := os.ReadFile(reportFile)
	if err != nil {
		t.Fatal(err)
	}
	schema, err := os.ReadFile("../../testdata/report.schema.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateReport(report, schema); err != nil {
		t.Errorf("report violates the schema: %v", err)
	}
	var rep struct {
		Tool string `json:"tool"`
		Runs []struct {
			Name    string `json:"name"`
			Outcome string `json:"outcome"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(report, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Tool != "enumerate" {
		t.Errorf("report does not name the tool: %s", report)
	}
	// One run, the census sweep's own, not a bracket around it.
	if len(rep.Runs) != 1 || rep.Runs[0].Name != "census" || !strings.HasPrefix(rep.Runs[0].Outcome, "28 pairs") {
		t.Errorf("report runs: %+v", rep.Runs)
	}
}

// TestRunReduceMatches: the orbit-weighted tables print the exact
// bytes recorded under testdata when enumerate swept every computation
// of the universe (orbit weighting preserves every total).
func TestRunReduceMatches(t *testing.T) {
	for _, tc := range []struct {
		args   []string
		golden string
	}{
		{[]string{"-n", "3", "-persize"}, "persize-n3.txt"},
		{[]string{"-n", "4", "-locs", "2", "-persize"}, "persize-n4-locs2.txt"},
	} {
		var out, errb bytes.Buffer
		if code := run(tc.args, &out, &errb); code != 0 {
			t.Fatalf("%v: exit code = %d; stderr: %s", tc.args, code, errb.String())
		}
		want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
		if err != nil {
			t.Fatal(err)
		}
		if out.String() != string(want) {
			t.Errorf("%v: output differs from testdata/%s:\n%s\nwant:\n%s", tc.args, tc.golden, out.String(), want)
		}
	}
}
