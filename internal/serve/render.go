package serve

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/checker"
	"repro/internal/computation"
	"repro/internal/memmodel"
	"repro/internal/observer"
)

// Render returns the wire form of one decision, with the pair's node names:
// the witnessing order and per-location sorts of an In verdict, the
// violating triple "loc: u ≺ v ≺ w", and the search stats of a model
// decided on the engine. /v1/check and /v1/batch answer with it, and
// ccmc prints it, so a verdict renders the same everywhere.
func Render(named *computation.Named, d memmodel.Decision) ModelResult {
	r := ModelResult{Model: d.Model, Verdict: d.Verdict}
	if m, err := memmodel.Lookup(d.Model); err == nil && m.Engine() {
		r.Stats = &SearchStats{States: d.Stats.States, MemoHits: d.Stats.MemoHits, Pruned: d.Stats.Pruned, Workers: d.Stats.Workers}
	}
	if d.Verdict.In() {
		r.Witness = named.RenderOrder(d.Order)
		for _, sort := range d.LocOrders {
			r.LocWitnesses = append(r.LocWitnesses, named.RenderOrder(sort))
		}
	}
	if v := d.Violation; v != nil {
		r.Violation = fmt.Sprintf("%d: %s ≺ %s ≺ %s",
			v.Loc, named.RenderNode(v.U), named.RenderNode(v.V), named.RenderNode(v.W))
	}
	return r
}

// verifyResult returns the wire block of one check of a trace: the
// verify CLI's verdict spelling, the search states, and for an In
// verdict the witness observer as -witness prints it. POST /v1/verify
// and every /v1/trace final record build their blocks here.
func verifyResult(r checker.Result) *VerifyResult {
	v := &VerifyResult{Verdict: r.Verdict, Text: checker.VerdictText(r.Verdict), States: r.Stats.States}
	if r.Verdict.In() {
		v.Witness = fmt.Sprintf("%v", r.Observer)
	}
	return v
}

// WriteExplain prints the -explain lines that follow a result's verdict
// line in ccmc and fleetctl: the order witness under its model's label,
// one sort per location, the violating triple, or — for an Out verdict
// the wire carries no proof of — the model's own explanation of the
// pair (c, o).
func WriteExplain(w io.Writer, r ModelResult, c *computation.Computation, o *observer.Observer) {
	m, err := memmodel.Lookup(r.Model)
	if err != nil {
		return
	}
	if label := m.WitnessLabel(); label != "" && r.Verdict.In() {
		fmt.Fprintf(w, "     %s: %s\n", label, r.Witness)
	}
	for l, sort := range r.LocWitnesses {
		fmt.Fprintf(w, "     witness sort for location %d: %s\n", l, sort)
	}
	if loc, triple, ok := strings.Cut(r.Violation, ": "); ok {
		fmt.Fprintf(w, "     violating triple at location %s: %s\n", loc, triple)
	}
	if r.Verdict.Out() {
		if proof := m.ExplainOut(c, o); proof != "" {
			fmt.Fprintf(w, "     %s\n", proof)
		}
	}
}
