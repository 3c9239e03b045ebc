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

// decideLC decides each location by the polynomial SerializeLoc
// reduction, polling ctx between locations. An In decision carries one
// witnessing sort per location.
func decideLC(ctx context.Context, c *computation.Computation, o *observer.Observer, _ SearchOptions) Decision {
	sorts := make([][]dag.Node, c.NumLocs())
	for l := range sorts {
		if err := ctx.Err(); err != nil {
			return inconclusive(err)
		}
		order, ok := SerializeLoc(c, computation.Loc(l), o)
		if !ok {
			return Decision{Verdict: search.VerdictOut()}
		}
		sorts[l] = order
	}
	return Decision{Verdict: search.VerdictIn(), LocOrders: sorts}
}

// explainLCOut renders ExplainLC's proof of non-membership.
func explainLCOut(c *computation.Computation, o *observer.Observer) string {
	if e := ExplainLC(c, o); e != nil {
		return e.String()
	}
	return ""
}
