package memmodel

import (
	"repro/internal/computation"
	"repro/internal/dag"
	"repro/internal/observer"
)

// This file computes the happens-before relation the causal,
// release/acquire and TSO deciders share: the transitive closure of the
// computation's precedence edges together with the observation
// ("reads-from") edges Φ induces,
//
//	hb = ( E(C) ∪ { (Φ(l,u), u) : Φ(l,u) ∉ {⊥, u} } )⁺
//
// In the computation-centric setting every node carries a full view
// (Φ(l, u) is defined for every location, not just the ones u reads),
// so observation edges arise from every non-⊥, non-self entry of Φ:
// "u's view of l includes w" is causal knowledge of w exactly like a
// read of it. The relation may be cyclic — an observer can claim a
// view that feeds back into the past — and a cyclic hb is immediate
// non-membership for any hb-based model, so the builder reports it
// instead of panicking the way dag.Closure would.
//
// The build works on one bitset row per node: each row starts as the
// node's descendants in the precedence closure, the observation edges
// are added as single bits, and bitset Warshall (for each k, every row
// holding k absorbs row k) closes the rows. hb is cyclic iff some node
// lands in its own row.

// hbCore is the happens-before relation of one pair together with the
// scratch the hb-based checks run in. The zero value is ready; the
// buffers grow to the largest computation seen and are reused, so a
// long-lived core (PatternDecider's) decides without allocating, and
// the one-shot deciders use a fresh one per call.
type hbCore struct {
	words int      // words per row
	rows  []uint64 // row u (words words from u*words) = {v : u ≺_hb v}
	widx  []int    // node -> index among a location's writers (RA)
	g     digraph  // RA's write-order digraph, CAUSAL's location digraph
}

// build computes hb for (c, o), with cl c's precedence closure. It
// reports false when the relation is cyclic (the pair is then outside
// every hb-based model). The observer must already be validated.
func (h *hbCore) build(c *computation.Computation, cl *dag.Closure, o *observer.Observer) bool {
	n := c.NumNodes()
	words := (n + 63) / 64
	h.words = words
	if cap(h.rows) < n*words {
		h.rows = make([]uint64, n*words)
	}
	h.rows = h.rows[:n*words]
	for u := 0; u < n; u++ {
		copy(h.row(dag.Node(u)), cl.Descendants(dag.Node(u)).Words())
	}
	for l := computation.Loc(0); int(l) < c.NumLocs(); l++ {
		for u := 0; u < n; u++ {
			if w := o.Get(l, dag.Node(u)); w != observer.Bottom && w != dag.Node(u) {
				h.rows[int(w)*words+u/64] |= 1 << (u % 64)
			}
		}
	}
	for k := 0; k < n; k++ {
		rk := h.row(dag.Node(k))
		kw, kb := k/64, uint64(1)<<(k%64)
		for i := 0; i < n; i++ {
			if ri := h.row(dag.Node(i)); ri[kw]&kb != 0 {
				for j, x := range rk {
					ri[j] |= x
				}
			}
		}
	}
	for u := 0; u < n; u++ {
		if h.prec(dag.Node(u), dag.Node(u)) {
			return false // u ≺_hb u: cyclic
		}
	}
	return true
}

// row is u's hb-descendant row.
func (h *hbCore) row(u dag.Node) []uint64 {
	return h.rows[int(u)*h.words : (int(u)+1)*h.words]
}

// prec reports u ≺_hb v; on an acyclic hb it is strict.
func (h *hbCore) prec(u, v dag.Node) bool {
	return h.rows[int(u)*h.words+int(v)/64]&(1<<(uint(v)%64)) != 0
}

// writersByLoc lists c's writers per location. PatternDecider keeps
// the lists for a computation's observers; the one-shot deciders list
// them per call.
func writersByLoc(c *computation.Computation) [][]dag.Node {
	ws := make([][]dag.Node, c.NumLocs())
	for l := range ws {
		ws[l] = c.Writers(computation.Loc(l))
	}
	return ws
}
