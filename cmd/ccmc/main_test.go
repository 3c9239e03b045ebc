package main

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/memmodel"
)

func TestRunDemo(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-demo"}, &out, &errb); code != 0 {
		t.Fatalf("exit code = %d, want 0; stderr: %s", code, errb.String())
	}
	for _, want := range []string{"SC     OUT", "LC     OUT", "NW     IN"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunFile(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"../../testdata/figure2.ccm"}, &out, &errb); code != 0 {
		t.Fatalf("exit code = %d, want 0; stderr: %s", code, errb.String())
	}
}

func TestRunUsage(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(nil, &out, &errb); code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
}

func TestRunModelOut(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-model", "SC", "-demo"}, &out, &errb); code != 1 {
		t.Fatalf("exit code = %d, want 1 (Figure 2 is not SC); output:\n%s", code, out.String())
	}
}

// TestRunTimeoutInconclusive is the acceptance criterion for the
// governed CLI: an expired -timeout must yield INCONCLUSIVE(deadline)
// with exit code 3, promptly, without leaking goroutines.
func TestRunTimeoutInconclusive(t *testing.T) {
	base := runtime.NumGoroutine()
	var out, errb bytes.Buffer
	start := time.Now()
	code := run([]string{"-demo", "-timeout", "1ns"}, &out, &errb)
	elapsed := time.Since(start)

	if code != 3 {
		t.Fatalf("exit code = %d, want 3; output:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "INCONCLUSIVE(deadline)") {
		t.Fatalf("output missing deadline verdict:\n%s", out.String())
	}
	if elapsed > 2*time.Second {
		t.Fatalf("deadline run took %v, want prompt return", elapsed)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base+2 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d goroutines, baseline %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRunModelNames: -model resolves through the model registry — any
// letter case works, and an unknown name is a usage error listing the
// registered models.
func TestRunModelNames(t *testing.T) {
	for _, tc := range []struct {
		model string
		code  int
		want  string // on stdout, or on stderr for a usage error
	}{
		{"tso", 0, "TSO    IN"},
		{"Causal", 0, "CAUSAL IN"},
		{"sc", 1, "SC     OUT"},
		{"PSO", 2, `unknown model "PSO" (known models: ` + strings.Join(memmodel.ModelNames(), ", ") + ")"},
	} {
		var out, errb bytes.Buffer
		code := run([]string{"-model", tc.model, "../../testdata/litmus/sb.ccm"}, &out, &errb)
		got := out.String()
		if tc.code == 2 {
			got = errb.String()
		}
		if code != tc.code || !strings.Contains(got, tc.want) {
			t.Errorf("-model %s: exit %d, want %d; output lacks %q:\n%s", tc.model, code, tc.code, tc.want, got)
		}
	}
}

func TestRunBudgetFlagAccepted(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-demo", "-max-states", "100000", "-max-memo-mb", "16"}, &out, &errb); code != 0 {
		t.Fatalf("exit code = %d, want 0; stderr: %s", code, errb.String())
	}
}
