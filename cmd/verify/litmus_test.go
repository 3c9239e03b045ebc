package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/memmodel"
)

// The verify leg of the litmus conformance suite: -pair must reproduce
// the golden verdicts.txt line for every fixture, byte for byte, the
// same way ccmc, POST /v1/check, and fleetctl do in their packages.
// All four suites read one golden file, so the frontends cannot drift
// from each other without a test failing somewhere.
func TestLitmusPairConformance(t *testing.T) {
	files, err := filepath.Glob("../../testdata/litmus/*.ccm")
	if err != nil || len(files) == 0 {
		t.Fatalf("no litmus corpus: %v (%v)", files, err)
	}
	sort.Strings(files)

	data, err := os.ReadFile("../../testdata/litmus/verdicts.txt")
	if err != nil {
		t.Fatalf("no litmus golden: %v", err)
	}
	golden := make(map[string]string)
	for _, line := range strings.Split(strings.TrimRight(string(data), "\n"), "\n") {
		name, _, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed golden line %q", line)
		}
		golden[name] = line
	}

	for _, file := range files {
		name := strings.TrimSuffix(filepath.Base(file), ".ccm")
		want, ok := golden[name]
		if !ok {
			t.Errorf("fixture %s has no golden line", name)
			continue
		}
		t.Run(name, func(t *testing.T) {
			var out, errb bytes.Buffer
			if code := run([]string{"-pair", file}, &out, &errb); code != 0 {
				t.Fatalf("verify -pair exit %d; stderr: %s", code, errb.String())
			}
			verdicts := make(map[string]string)
			for _, line := range strings.Split(strings.TrimRight(out.String(), "\n"), "\n") {
				model, rest, ok := strings.Cut(line, ": ")
				if !ok {
					t.Fatalf("unparseable verdict line %q", line)
				}
				verdict, _, _ := strings.Cut(rest, "  ")
				verdicts[model] = verdict
			}
			var b strings.Builder
			b.WriteString(name)
			for _, m := range memmodel.ModelNames() {
				v, ok := verdicts[m]
				if !ok {
					t.Fatalf("no verdict for model %s in output:\n%s", m, out.String())
				}
				fmt.Fprintf(&b, " %s=%s", m, v)
			}
			if got := b.String(); got != want {
				t.Errorf("verify -pair:\n got %s\nwant %s", got, want)
			}
		})
	}
}

// TestPairModelNames: -pair -model resolves through the model
// registry — any letter case works, and an unknown name is a usage
// error listing the registered models.
func TestPairModelNames(t *testing.T) {
	for _, tc := range []struct {
		model string
		code  int
		want  string // on stdout, or on stderr for a usage error
	}{
		{"tso", 0, "TSO: IN"},
		{"Causal", 0, "CAUSAL: IN"},
		{"sc", 1, "SC: OUT"},
		{"PSO", 2, `unknown model "PSO" (known models: ` + strings.Join(memmodel.ModelNames(), ", ") + ")"},
	} {
		var out, errb bytes.Buffer
		code := run([]string{"-pair", "-model", tc.model, "../../testdata/litmus/sb.ccm"}, &out, &errb)
		got := out.String()
		if tc.code == 2 {
			got = errb.String()
		}
		if code != tc.code || !strings.Contains(got, tc.want) {
			t.Errorf("-pair -model %s: exit %d, want %d; output lacks %q:\n%s", tc.model, code, tc.code, tc.want, got)
		}
	}
}

// TestPairModeErrors: the pair-mode flag plumbing rejects the
// combinations its usage forbids and surfaces unknown models as the
// self-describing memmodel error.
func TestPairModeErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-pair", "-demo"}, &out, &errb); code != 2 {
		t.Errorf("-pair -demo: exit %d, want 2", code)
	}
	errb.Reset()
	if code := run([]string{"-model", "TSO", "../../testdata/figure2.trace"}, &out, &errb); code != 2 {
		t.Errorf("-model without -pair: exit %d, want 2", code)
	}
	errb.Reset()
	if code := run([]string{"-pair", "-model", "PSO", "../../testdata/litmus/sb.ccm"}, &out, &errb); code != 2 {
		t.Errorf("-pair unknown model: exit %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "known models") || !strings.Contains(errb.String(), "CAUSAL") {
		t.Errorf("unknown-model error not self-describing: %q", errb.String())
	}
}
