package memmodel

import (
	"context"

	"repro/internal/computation"
	"repro/internal/observer"
)

// SC is sequential consistency (Definition 17): (C, Φ) ∈ SC iff there
// is a single topological sort T ∈ TS(C) whose last-writer function
// agrees with Φ at every location:
//
//	SC = { (C, Φ) : ∃T ∈ TS(C) ∀l ∀u  Φ(l, u) = W_T(l, u) }
//
// Because the definition quantifies over topological sorts of the
// computation rather than interleavings of per-processor instruction
// streams, it generalizes Lamport's processor-centric definition
// (Section 4 of the paper).
var SC Model = registered("SC")

// decideSC searches for the witnessing sort on the engine:
// cancellation, deadline expiry or an exhausted opts.Budget stop it
// with an inconclusive verdict.
func decideSC(ctx context.Context, c *computation.Computation, o *observer.Observer, opts SearchOptions) Decision {
	res := searchLastWriter(ctx, c, o, allLocs(c), opts)
	return Decision{Verdict: res.Verdict(), Stats: res.Stats, Order: res.Order}
}

func allLocs(c *computation.Computation) []computation.Loc {
	locs := make([]computation.Loc, c.NumLocs())
	for l := range locs {
		locs[l] = computation.Loc(l)
	}
	return locs
}
