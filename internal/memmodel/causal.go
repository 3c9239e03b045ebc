package memmodel

import (
	"context"

	"repro/internal/computation"
	"repro/internal/dag"
	"repro/internal/observer"
	"repro/internal/search"
)

// CAUSAL is causal memory (Ahamad, Neiger, Burns, Kohli & Hutto,
// lifted to the computation-centric setting; Cohen's coherent causal
// memory is this plus per-location agreement). Writes propagate
// respecting the happens-before relation hb = (precedence ∪
// observation)⁺, and every node may serialize its own causal past
// independently — there is no global arbitration, so two nodes may
// disagree about the order of hb-concurrent writes:
//
//	(C, Φ) ∈ CAUSAL  iff  hb is acyclic and every node u has a
//	linearization of its causal past consistent with hb in which,
//	for every location l, Φ(l, u) is the last write to l (and no
//	write to l exists in the past when Φ(l, u) = ⊥).
//
// The per-node check is polynomial: Φ(l, u) last among the past
// l-writes is "every other past l-write lands before it", and the
// required linearization exists iff hb restricted to the past plus
// those forcing edges is jointly acyclic. The joint check matters —
// per-location hidden-write tests miss cycles that only close across
// locations — and the differential fuzzer pins it to a brute-force
// enumeration of linearizations.
var CAUSAL Model = registered("CAUSAL")

// decideCausal decides CAUSAL membership in polynomial time.
func decideCausal(ctx context.Context, c *computation.Computation, o *observer.Observer, _ SearchOptions) Decision {
	hb, ok := buildHB(c, o)
	if !ok {
		return Decision{Verdict: search.VerdictOut()}
	}
	return Decision{Verdict: causalCheck(ctx, c, o, hb)}
}

// causalCheck runs the per-node linearization check against hb, the
// (acyclic) happens-before relation of (c, o), polling ctx once per
// node.
func causalCheck(ctx context.Context, c *computation.Computation, o *observer.Observer, hb *hbRel) Verdict {
	n := c.NumNodes()
	numLocs := c.NumLocs()
	idx := make([]int, n) // node -> dense index in members, or -1
	for u := 0; u < n; u++ {
		if err := ctx.Err(); err != nil {
			return search.VerdictInconclusive(search.ContextStopReason(err))
		}
		node := dag.Node(u)
		members := append(hb.ancestors(node), node)
		for i := range idx {
			idx[i] = -1
		}
		for i, m := range members {
			idx[m] = i
		}
		k := len(members)
		adj := make([][]int, k)
		for i, x := range members {
			for j, y := range members {
				if i != j && hb.prec(x, y) {
					adj[i] = append(adj[i], j)
				}
			}
		}
		for l := computation.Loc(0); int(l) < numLocs; l++ {
			if c.Op(node).IsWriteTo(l) {
				// u's own write is last automatically: u is the
				// hb-maximum of its past.
				continue
			}
			want := o.Get(l, node)
			if want == observer.Bottom {
				for _, w := range c.Writers(l) {
					if w != node && idx[w] >= 0 {
						return search.VerdictOut() // a past write is visible
					}
				}
				continue
			}
			// want ≺_hb u by construction (observation edges are in
			// hb), so it is a member. Every other past l-write must
			// linearize before it.
			wi := idx[want]
			for _, w := range c.Writers(l) {
				if w == want || w == node {
					continue
				}
				if j := idx[w]; j >= 0 {
					adj[j] = append(adj[j], wi)
				}
			}
		}
		if findCycleInts(k, adj) != nil {
			return search.VerdictOut()
		}
	}
	return search.VerdictIn()
}
