package memmodel_test

import (
	"context"
	"strings"
	"testing"

	"repro/internal/memmodel"
	"repro/internal/paperfig"
)

// TestDecideByNameMatchesModels checks the structured decision front
// door against the Model interface on the Figure 2 pair: every name
// decides, the verdicts agree with Contains, and the explanations are
// populated exactly when the verdict calls for them.
func TestDecideByNameMatchesModels(t *testing.T) {
	fx := paperfig.Figure2()
	models := map[string]memmodel.Model{
		"SC": memmodel.SC, "LC": memmodel.LC, "NN": memmodel.NN,
		"NW": memmodel.NW, "WN": memmodel.WN, "WW": memmodel.WW,
		"TSO": memmodel.TSO, "RA": memmodel.RA, "CAUSAL": memmodel.CAUSAL,
	}
	if len(models) != len(memmodel.ModelNames()) {
		t.Fatalf("registry has %d models, the test knows %d", len(memmodel.ModelNames()), len(models))
	}
	for _, name := range memmodel.ModelNames() {
		d, err := memmodel.DecideByName(context.Background(), name, fx.Comp, fx.Obs, memmodel.SearchOptions{})
		if err != nil {
			t.Fatalf("DecideByName(%s): %v", name, err)
		}
		if d.Model != name {
			t.Errorf("%s: decision labeled %q", name, d.Model)
		}
		if !d.Verdict.Decided {
			t.Fatalf("%s: ungoverned decision came back inconclusive: %v", name, d.Verdict)
		}
		if want := models[name].Contains(fx.Comp, fx.Obs); d.Verdict.In() != want {
			t.Errorf("%s: verdict %v, Contains = %v", name, d.Verdict, want)
		}
		switch name {
		case "SC", "TSO":
			if d.Verdict.In() != (d.Order != nil) {
				t.Errorf("%s: witness order present = %v, verdict %v", name, d.Order != nil, d.Verdict)
			}
		case "LC":
			if d.Verdict.In() != (d.LocOrders != nil) {
				t.Errorf("LC: witness sorts present = %v, verdict %v", d.LocOrders != nil, d.Verdict)
			}
		case "RA", "CAUSAL":
			// Polynomial yes/no deciders: no witness artifacts either way.
			if d.Order != nil || d.Violation != nil {
				t.Errorf("%s: unexpected explanation artifacts: %v / %v", name, d.Order, d.Violation)
			}
		default:
			if d.Verdict.Out() != (d.Violation != nil) {
				t.Errorf("%s: violation present = %v, verdict %v", name, d.Violation != nil, d.Verdict)
			}
		}
	}
}

func TestDecideByNameUnknownModel(t *testing.T) {
	fx := paperfig.Figure2()
	_, err := memmodel.DecideByName(context.Background(), "PSO", fx.Comp, fx.Obs, memmodel.SearchOptions{})
	if err == nil {
		t.Fatal("unknown model name decided without error")
	}
	// The error must be self-describing: it names the offender and
	// enumerates every registered model, so CLI/HTTP callers can fix
	// their request without reading the source.
	msg := err.Error()
	if !strings.Contains(msg, `"PSO"`) {
		t.Errorf("error does not name the unknown model: %q", msg)
	}
	for _, name := range memmodel.ModelNames() {
		if !strings.Contains(msg, name) {
			t.Errorf("error does not list registered model %s: %q", name, msg)
		}
	}
}

// TestLookup: the CLIs resolve model names through Lookup, so it must
// accept every registered name in any case and reject the rest with an
// error listing the registered models.
func TestLookup(t *testing.T) {
	for _, name := range memmodel.ModelNames() {
		for _, spelling := range []string{name, strings.ToLower(name)} {
			m, err := memmodel.Lookup(spelling)
			if err != nil || m.Name() != name {
				t.Errorf("Lookup(%q) = %v, %v; want %s", spelling, m, err, name)
			}
		}
	}
	_, err := memmodel.Lookup("PSO")
	if err == nil {
		t.Fatal("Lookup(PSO) resolved")
	}
	for _, name := range memmodel.ModelNames() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error does not list %s: %v", name, err)
		}
	}
	// DecideByName keeps the wire's exact spelling.
	fx := paperfig.Figure2()
	if _, err := memmodel.DecideByName(context.Background(), "tso", fx.Comp, fx.Obs, memmodel.SearchOptions{}); err == nil {
		t.Error(`DecideByName("tso") decided; names are exact there`)
	}
}

// TestDecideByNameCancelled: a pre-cancelled context must yield a typed
// inconclusive verdict from every decider, not a definitive answer.
func TestDecideByNameCancelled(t *testing.T) {
	fx := paperfig.Figure2()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, name := range memmodel.ModelNames() {
		d, err := memmodel.DecideByName(ctx, name, fx.Comp, fx.Obs, memmodel.SearchOptions{})
		if err != nil {
			t.Fatalf("DecideByName(%s): %v", name, err)
		}
		if !d.Verdict.Inconclusive() {
			t.Errorf("%s: cancelled decision was %v, want inconclusive", name, d.Verdict)
		}
	}
}
