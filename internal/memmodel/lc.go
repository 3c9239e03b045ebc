package memmodel

import (
	"context"

	"repro/internal/computation"
	"repro/internal/dag"
	"repro/internal/observer"
	"repro/internal/search"
)

// LC is location consistency (Definition 18), called coherence in much
// of the literature [GS95, HP96]: each location is serialized
// independently. (C, Φ) ∈ LC iff for every location l there is a
// topological sort T_l ∈ TS(C) with Φ(l, ·) = W_{T_l}(l, ·):
//
//	LC = { (C, Φ) : ∀l ∃T ∈ TS(C) ∀u  Φ(l, u) = W_T(l, u) }
//
// Section 6 proves LC is the constructible version of NN-dag
// consistency (Theorem 23); the experiments machine-check that claim.
//
// Note this is *not* the "location consistency" of Gao & Sarkar [GS95],
// which is a different (weaker) model; the paper's Section 7 discusses
// the naming collision.
var LC Model = registered("LC")

// decideLC decides each location by the polynomial serialization
// reduction (serialize.go), polling ctx between locations. An In
// decision carries one witnessing sort per location.
func (d *Decider) decideLC(ctx context.Context) Decision {
	sorts := make([][]dag.Node, d.numLocs)
	slab := make([]dag.Node, d.numLocs*d.n)
	for l := range sorts {
		if err := ctx.Err(); err != nil {
			return inconclusive(err)
		}
		writeOrder, ok := d.lcLoc(computation.Loc(l))
		if !ok {
			return Decision{Verdict: search.VerdictOut()}
		}
		sorts[l] = d.serialize(computation.Loc(l), writeOrder, slab[l*d.n:(l+1)*d.n:(l+1)*d.n])
	}
	return Decision{Verdict: search.VerdictIn(), LocOrders: sorts}
}

// lcLoc runs the LC core at location l and returns the order of l's
// writers in a serialization, or ok = false when there is none.
func (d *Decider) lcLoc(l computation.Loc) ([]int, bool) {
	if _, ok := d.lc.check(d.c, d.cl, d.o, l, d.locWriters()[l]); !ok {
		return nil, false
	}
	return d.lc.sort()
}

// explainLCOut renders ExplainLC's proof of non-membership.
func explainLCOut(c *computation.Computation, o *observer.Observer) string {
	if e := ExplainLC(c, o); e != nil {
		return e.String()
	}
	return ""
}
