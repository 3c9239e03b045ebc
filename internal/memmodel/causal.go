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
// The per-node check is polynomial. Φ(l, u) last among the past
// l-writes is "every other past l-write lands before it", so the
// required linearization exists iff hb restricted to u's past plus
// those forcing edges w → Φ(l, u) is jointly acyclic — per-location
// hidden-write tests miss cycles that only close across locations.
// The check never builds that digraph over the past. hb restricted to
// the past is acyclic and transitive, so a cycle uses at least one
// forcing edge, and the stretch from one forcing edge's head to the
// next one's tail is a single hb step or empty. A forcing edge runs
// from a past l′-writer w ∉ {want_l′, u} to want_l′, u's view of l′,
// so contracting each stretch gives a cycle in the digraph over u's
// view locations with an edge
//
//	l → l′  whenever  want_l ≼_hb w for some past l′-writer w ∉ {want_l′, u}
//
// and every cycle there expands back into one. want_l = w is
// impossible (a node writes one location, so l = l′ and w = want_l′),
// so ≼_hb is ≺_hb. A self-loop l → l is a view shadowed at its own
// location; longer cycles close across locations. The location
// digraph is therefore that joint check, at O(L²·k) bit tests per node
// for L locations and k writers, in the hb core's reused digraph. The
// differential fuzzer and the small-universe oracle test pin it to a
// brute-force enumeration of linearizations.
var CAUSAL Model = registered("CAUSAL")

// causal runs the per-node linearization check against the built
// (acyclic) hb of (c, o), with writers c's writers per location,
// polling ctx once per node.
func (h *hbCore) causal(ctx context.Context, c *computation.Computation, o *observer.Observer, writers [][]dag.Node) Verdict {
	for u := 0; u < c.NumNodes(); u++ {
		if err := ctx.Err(); err != nil {
			return search.VerdictInconclusive(search.ContextStopReason(err))
		}
		node := dag.Node(u)
		op := c.Op(node)
		adj := h.g.reset(len(writers))
		for lp, ws := range writers {
			if op.IsWriteTo(computation.Loc(lp)) {
				// u's own write is last automatically: u is the
				// hb-maximum of its past.
				continue
			}
			wantP := o.Get(computation.Loc(lp), node)
			for _, w := range ws {
				if w == wantP || !h.prec(w, node) {
					continue
				}
				if wantP == observer.Bottom {
					return search.VerdictOut() // a past write is visible
				}
				// w lands before want_l′, so every view want_l ≺_hb w
				// lands before want_l′ too.
				for l := range writers {
					if op.IsWriteTo(computation.Loc(l)) {
						continue
					}
					want := o.Get(computation.Loc(l), node)
					if want == observer.Bottom || !h.prec(want, w) {
						continue
					}
					if out := adj[l]; len(out) == 0 || out[len(out)-1] != lp {
						adj[l] = append(out, lp)
					}
				}
			}
		}
		if _, ok := h.g.sort(); !ok {
			return search.VerdictOut()
		}
	}
	return search.VerdictIn()
}
