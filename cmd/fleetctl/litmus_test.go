package main

import (
	"bytes"
	"path/filepath"
	"sort"
	"testing"
)

// TestRunLitmusCorpus extends the single-box byte-identity pin to the
// litmus corpus: fleet-dispatched verdicts for every litmus fixture —
// TSO, RA, and CAUSAL included — must render exactly as ccmc would,
// with and without -explain.
func TestRunLitmusCorpus(t *testing.T) {
	files, err := filepath.Glob("../../testdata/litmus/*.ccm")
	if err != nil || len(files) == 0 {
		t.Fatalf("no litmus corpus: %v (%v)", files, err)
	}
	sort.Strings(files)
	replicas := startReplicas(t, 2)
	for _, explain := range []bool{false, true} {
		for _, path := range files {
			args := []string{"-replicas", replicas, "-shards", "4"}
			if explain {
				args = append(args, "-explain")
			}
			args = append(args, path)
			var stdout, stderr bytes.Buffer
			code := run(args, &stdout, &stderr)
			if code != 0 && code != 1 {
				t.Fatalf("%s explain=%v: exit %d, stderr: %s", path, explain, code, stderr.String())
			}
			if want := singleBoxGolden(t, path, explain); stdout.String() != want {
				t.Errorf("%s explain=%v:\n got:\n%s\nwant:\n%s", path, explain, stdout.String(), want)
			}
		}
	}
}
