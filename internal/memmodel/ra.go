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
// polynomial check per location: the edges go into the hb core's
// reused digraph, indexed through a node → writer-index slice, and
// Kahn's algorithm (the sort LC runs on its own write-order digraph)
// decides acyclicity. The differential fuzzer and the small-universe
// oracle test pin it to a brute-force enumeration of candidate
// modification orders.
//
// RA ⊆ LC: RA's per-location digraph contains every edge LC's
// serialization digraph forces (hb ⊇ the precedence closure), so an
// RA-consistent pair is location-consistent. The strictness witnesses
// live in testdata/litmus and are machine-checked by cmd/lattice.
var RA Model = registered("RA")

// ra runs the per-location modification-order check against the built
// (acyclic) hb of (c, o), with writers c's writers per location,
// polling ctx once per location.
func (h *hbCore) ra(ctx context.Context, c *computation.Computation, o *observer.Observer, writers [][]dag.Node) Verdict {
	n := c.NumNodes()
	if cap(h.widx) < n {
		h.widx = make([]int, n)
	}
	widx := h.widx[:n]
	for l, ws := range writers {
		if err := ctx.Err(); err != nil {
			return search.VerdictInconclusive(search.ContextStopReason(err))
		}
		for i, w := range ws {
			widx[w] = i
		}
		adj := h.g.reset(len(ws))
		for i, w := range ws {
			for j, x := range ws {
				if i != j && h.prec(w, x) {
					adj[i] = append(adj[i], j)
				}
			}
		}
		for u := 0; u < n; u++ {
			node := dag.Node(u)
			want := o.Get(computation.Loc(l), node)
			if want == observer.Bottom {
				for _, w := range ws {
					if h.prec(w, node) {
						return search.VerdictOut()
					}
				}
				continue
			}
			wi := widx[want] // want is a write to l (or u itself when u writes l)
			for j, w := range ws {
				if j == wi {
					continue
				}
				if h.prec(w, node) {
					adj[j] = append(adj[j], wi)
				}
				if h.prec(node, w) {
					adj[wi] = append(adj[wi], j)
				}
			}
		}
		if _, ok := h.g.sort(); !ok {
			return search.VerdictOut()
		}
	}
	return search.VerdictIn()
}
