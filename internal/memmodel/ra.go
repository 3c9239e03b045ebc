package memmodel

import (
	"context"

	"repro/internal/computation"
	"repro/internal/dag"
	"repro/internal/observer"
	"repro/internal/search"
)

// RA is the C11 release/acquire fragment lifted to the
// computation-centric setting: every write is a release and every
// observation an acquire, so happens-before hb = (precedence ∪
// observation)⁺ synchronizes globally, and each location carries one
// total modification order mo_l that all nodes agree on:
//
//	(C, Φ) ∈ RA  iff  hb is acyclic and for every location l there
//	is a total order mo_l of the writes to l such that
//	  - w ≺_hb w'           ⇒  w <_mo w'          (write coherence)
//	  - w' ≺_hb u, w' ≠ Φ(l,u) ⇒  w' <_mo Φ(l,u)  (no hidden write)
//	  - u ≺_hb w', w' ≠ Φ(l,u) ⇒  Φ(l,u) <_mo w'  (no future write)
//	  - Φ(l,u) = ⊥          ⇒  no write to l precedes u in hb.
//
// These are exactly the coherence axioms (CoWW, CoWR, CoRW; CoRR
// follows because observation edges are inside hb), so mo_l exists iff
// the forced-order digraph over the writes of l is acyclic — a
// polynomial check per location, differentially fuzzed against a
// brute-force enumeration of candidate modification orders.
//
// RA ⊆ LC: RA's per-location digraph contains every edge LC's
// serialization digraph forces (hb ⊇ the precedence closure), so an
// RA-consistent pair is location-consistent. The strictness witnesses
// live in testdata/litmus and are machine-checked by cmd/lattice.
var RA Model = registered("RA")

// decideRA decides RA membership in polynomial time.
func decideRA(ctx context.Context, c *computation.Computation, o *observer.Observer, _ SearchOptions) Decision {
	hb, ok := buildHB(c, o)
	if !ok {
		return Decision{Verdict: search.VerdictOut()}
	}
	return Decision{Verdict: raCheck(ctx, c, o, hb)}
}

// raCheck runs the per-location modification-order check against hb,
// the (acyclic) happens-before relation of (c, o), polling ctx once per
// location.
func raCheck(ctx context.Context, c *computation.Computation, o *observer.Observer, hb *hbRel) Verdict {
	n := c.NumNodes()
	for l := computation.Loc(0); int(l) < c.NumLocs(); l++ {
		if err := ctx.Err(); err != nil {
			return search.VerdictInconclusive(search.ContextStopReason(err))
		}
		writers := c.Writers(l)
		k := len(writers)
		idx := make(map[dag.Node]int, k)
		for i, w := range writers {
			idx[w] = i
		}
		adj := make([][]int, k)
		addEdge := func(a, b int) {
			if a != b {
				adj[a] = append(adj[a], b)
			}
		}
		for i, w := range writers {
			for j, x := range writers {
				if i != j && hb.prec(w, x) {
					addEdge(i, j)
				}
			}
			_ = w
		}
		for u := 0; u < n; u++ {
			node := dag.Node(u)
			want := o.Get(l, node)
			if want == observer.Bottom {
				for _, w := range writers {
					if hb.prec(w, node) {
						return search.VerdictOut()
					}
				}
				continue
			}
			wi := idx[want] // want is a write to l (or u itself when u writes l)
			for j, w := range writers {
				if j == wi {
					continue
				}
				if hb.prec(w, node) {
					addEdge(j, wi)
				}
				if hb.prec(node, w) {
					addEdge(wi, j)
				}
			}
		}
		if findCycleInts(k, adj) != nil {
			return search.VerdictOut()
		}
	}
	return search.VerdictIn()
}
