package main

import (
	"bytes"
	"os"
	"path/filepath"
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
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 2 {
			t.Errorf("run(%v) = %d, want 2", args, code)
		}
	}
	// -n 0 and -locs 0 stay legal.
	for _, args := range [][]string{{"-n", "0"}, {"-n", "2", "-locs", "0", "-persize"}} {
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
	if !strings.Contains(string(report), "enumerate") {
		t.Errorf("report does not name the tool: %s", report)
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
