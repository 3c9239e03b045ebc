package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The -explain goldens: testdata/explain holds the exact output of
// `ccmc -explain -workers 1 FILE` for every pair under testdata/ and
// testdata/litmus/, recorded before the renderers were shared. With one
// worker the engine stats are deterministic, so every byte is pinned:
// verdicts, stats lines, witness sorts, violating triples, and the LC
// direct-contradiction and cycle texts.

// explainGoldenPath maps a corpus pair to its golden transcript.
func explainGoldenPath(t *testing.T, pair string) string {
	t.Helper()
	rel, err := filepath.Rel("../../testdata", pair)
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Join("testdata", "explain", strings.TrimSuffix(rel, ".ccm")+".txt")
}

func TestExplainGolden(t *testing.T) {
	var files []string
	for _, pattern := range []string{"../../testdata/*.ccm", "../../testdata/litmus/*.ccm"} {
		m, err := filepath.Glob(pattern)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, m...)
	}
	if len(files) < 20 {
		t.Fatalf("corpus has %d pairs, want at least 20", len(files))
	}
	for _, file := range files {
		golden := explainGoldenPath(t, file)
		t.Run(strings.TrimSuffix(golden, ".txt"), func(t *testing.T) {
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("no golden for %s: %v", file, err)
			}
			var out, errb bytes.Buffer
			if code := run([]string{"-explain", "-workers", "1", file}, &out, &errb); code != 0 {
				t.Fatalf("exit %d; stderr: %s", code, errb.String())
			}
			if got := out.String(); got != string(want) {
				t.Errorf("output drifted from %s.\n got:\n%s\nwant:\n%s", golden, got, want)
			}
		})
	}
}
