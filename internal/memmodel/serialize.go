package memmodel

import (
	"fmt"

	"repro/internal/computation"
	"repro/internal/dag"
	"repro/internal/observer"
)

// This file implements the polynomial-time single-location
// serialization procedure behind LC membership: given a computation C,
// an observer function Φ, and a location l, is there a topological sort
// T with W_T(l, u) = Φ(l, u) for every node u?
//
// The reduction: a sort T induces a total order w_1 < … < w_k of the
// writes to l, and every other node lies in the "interval" after its
// observed write (or before w_1 for ⊥). Each dag edge then forces an
// order between two observed writes:
//
//   - u ≺ v (both non-writes) forces Φ(l,u) at-or-before Φ(l,v);
//   - x ≺ u (x a write) forces x at-or-before Φ(l,u);
//   - u ≺ x (x a write) forces Φ(l,u) strictly before x;
//
// and since distinct writes occupy distinct positions, "at-or-before"
// between distinct writes is strict. Φ is realizable at l iff no direct
// contradiction arises (a node observing ⊥ preceded by a write, or by a
// node observing a write) and the resulting digraph over the writes is
// acyclic. A witness sort is assembled by ranking nodes by interval and
// sorting within intervals by a fixed topological position, with each
// interval's write first.
//
// Worst-case cost is O(|V|² + k²) per location, versus the exponential
// topological-sort search (kept in search.go for SC, which needs all
// locations simultaneously serialized and is NP-hard, and for
// cross-validation in the tests). One core, lcCore, runs the reduction
// for SerializeLoc, ExplainLC and the Decider alike.

// SerializeLoc returns a topological sort T of c with W_T(l, u) =
// Φ(l, u) for every node u, or ok = false if none exists. The observer
// must be valid for c.
func SerializeLoc(c *computation.Computation, l computation.Loc, o *observer.Observer) ([]dag.Node, bool) {
	var d Decider
	d.Reset(c)
	d.observe(o)
	writeOrder, ok := d.lcLoc(l)
	if !ok {
		return nil, false
	}
	return d.serialize(l, writeOrder, make([]dag.Node, c.NumNodes())), true
}

// serialize fills order with the witness sort of location l for the
// order of l's writers the LC core found, and returns it. Every node is
// ranked by interval — a write by its 1-based position in writeOrder,
// any other node by the write it observes (0 for ⊥) — and the sort
// lists the intervals in rank order, each led by its write and then in
// c's topological order.
func (d *Decider) serialize(l computation.Loc, writeOrder []int, order []dag.Node) []dag.Node {
	if d.topo == nil {
		d.topo, _ = d.c.Dag().TopoSort() // c is acyclic: it has a closure
	}
	writers := d.locWriters()[l]
	n, k := d.n, len(writers)
	d.scr = grow(d.scr, n+k+1)
	rank, start := d.scr[:n], d.scr[n:]
	for pos, wi := range writeOrder {
		rank[writers[wi]] = pos + 1
	}
	for u := dag.Node(0); int(u) < n; u++ {
		if w := d.o.Get(l, u); w == observer.Bottom {
			rank[u] = 0
		} else if w != u {
			rank[u] = rank[w]
		}
	}
	// start[r] becomes where interval r begins.
	clear(start)
	for _, r := range rank {
		start[r]++
	}
	for r, sum := 0, 0; r <= k; r++ {
		start[r], sum = sum, sum+start[r]
	}
	for pos, wi := range writeOrder {
		order[start[pos+1]] = writers[wi]
		start[pos+1]++
	}
	for _, u := range d.topo {
		if !d.c.Op(u).IsWriteTo(l) {
			order[start[rank[u]]] = u
			start[rank[u]]++
		}
	}
	return order
}

// LCExplanation is a proof of non-membership in LC at one location:
// either a direct contradiction at a node, or a cycle of writes each of
// which is forced before the next by the observer's requirements.
type LCExplanation struct {
	Loc computation.Loc
	// Direct is a human-readable direct contradiction, if one exists
	// (e.g. a node pinned to ⊥ after a write).
	Direct string
	// Cycle lists writes w0 → w1 → … → w0, each forced strictly before
	// the next, when the constraint digraph is cyclic.
	Cycle []dag.Node
}

// ExplainLC returns a proof that (c, o) ∉ LC — the first failing
// location with either a direct contradiction or a forced write-order
// cycle — or nil if the pair is in LC.
func ExplainLC(c *computation.Computation, o *observer.Observer) *LCExplanation {
	if o.Validate(c) != nil {
		return &LCExplanation{Direct: "not an observer function"}
	}
	var lc lcCore
	cl := c.Closure()
	for l := computation.Loc(0); int(l) < c.NumLocs(); l++ {
		writers := c.Writers(l)
		if d, ok := lc.check(c, cl, o, l, writers); !ok {
			if d.v == observer.Bottom {
				return &LCExplanation{Loc: l, Direct: fmt.Sprintf("node %d observes ⊥ at location %d but write %d precedes it", d.u, l, d.w)}
			}
			return &LCExplanation{Loc: l, Direct: fmt.Sprintf("node %d observes write %d at location %d but its successor %d observes ⊥", d.u, d.w, l, d.v)}
		}
		if cycle := findCycleInts(len(writers), lc.adj); cycle != nil {
			nodes := make([]dag.Node, len(cycle))
			for i, wi := range cycle {
				nodes[i] = writers[wi]
			}
			return &LCExplanation{Loc: l, Cycle: nodes}
		}
	}
	return nil
}

// String renders the explanation.
func (e *LCExplanation) String() string {
	if e == nil {
		return "in LC"
	}
	if e.Direct != "" {
		return e.Direct
	}
	s := fmt.Sprintf("location %d: forced write-order cycle", e.Loc)
	for _, w := range e.Cycle {
		s += fmt.Sprintf(" %d →", w)
	}
	return s + fmt.Sprintf(" %d", e.Cycle[0])
}

// lcCore is the LC feasibility core with its scratch. The zero value
// is ready; the buffers grow to the largest computation seen and are
// reused, so a long-lived core decides without allocating.
type lcCore struct {
	widx    []int // node -> index among the location's writers
	digraph       // forced write-order digraph over the writers
}

// lcConflict is a direct contradiction: node u observes ⊥ although
// write w precedes it (v is ⊥), or u observes write w although its
// successor v observes ⊥.
type lcConflict struct{ u, w, v dag.Node }

// check runs the reduction at location l of (c, o), with cl c's
// closure and writers c's writers to l. It returns the first direct
// contradiction, in node order, or ok with the forced write-order
// digraph over writers left in lc.adj. o must be valid for c.
func (lc *lcCore) check(c *computation.Computation, cl *dag.Closure, o *observer.Observer, l computation.Loc, writers []dag.Node) (lcConflict, bool) {
	n, k := c.NumNodes(), len(writers)
	if cap(lc.widx) < n {
		lc.widx = make([]int, n)
	}
	lc.widx = lc.widx[:n]
	for i, w := range writers {
		lc.widx[w] = i
	}
	adj := lc.reset(k)
	for i, w := range writers {
		for j, x := range writers {
			if i != j && cl.Precedes(w, x) {
				adj[i] = append(adj[i], j)
			}
		}
	}
	for ui := 0; ui < n; ui++ {
		u := dag.Node(ui)
		if c.Op(u).IsWriteTo(l) {
			continue
		}
		w := o.Get(l, u)
		if w == observer.Bottom {
			for _, x := range writers {
				if cl.Precedes(x, u) {
					return lcConflict{u: u, w: x, v: observer.Bottom}, false
				}
			}
			continue
		}
		wi := lc.widx[w]
		for j, x := range writers {
			if j == wi {
				continue
			}
			if cl.Precedes(x, u) {
				adj[j] = append(adj[j], wi)
			}
			if cl.Precedes(u, x) {
				adj[wi] = append(adj[wi], j)
			}
		}
		// Each successor observes a write at-or-after w; ⊥ is a
		// contradiction. Writes were covered by the loop above.
		bad := observer.Bottom
		cl.Descendants(u).ForEach(func(vi int) bool {
			v := dag.Node(vi)
			if c.Op(v).IsWriteTo(l) {
				return true
			}
			wv := o.Get(l, v)
			if wv == observer.Bottom {
				bad = v
				return false
			}
			if wv != w {
				adj[wi] = append(adj[wi], lc.widx[wv])
			}
			return true
		})
		if bad != observer.Bottom {
			return lcConflict{u: u, w: w, v: bad}, false
		}
	}
	return lcConflict{}, true
}

// digraph is a reusable integer digraph with Kahn's topological sort.
// The zero value is ready; reset keeps the edge lists' backing arrays,
// so refilling a warm digraph allocates nothing. LC and RA sort a
// location's writers with it, CAUSAL a node's view locations.
type digraph struct {
	adj   [][]int
	indeg []int
	order []int
}

// reset empties the digraph to k vertices and no edges and returns its
// edge lists for the caller to fill.
func (g *digraph) reset(k int) [][]int {
	if cap(g.adj) < k {
		g.adj = append(g.adj[:cap(g.adj)], make([][]int, k-cap(g.adj))...)
	}
	g.adj = g.adj[:k]
	for i := range g.adj {
		g.adj[i] = g.adj[i][:0]
	}
	return g.adj
}

// sort topologically sorts the vertices (Kahn's algorithm, lowest index
// first among the ready), or reports ok = false on a cycle. Duplicate
// edges and self-loops are allowed; a self-loop is a cycle.
func (g *digraph) sort() ([]int, bool) {
	k := len(g.adj)
	if cap(g.indeg) < k {
		g.indeg = make([]int, k)
	}
	indeg := g.indeg[:k]
	clear(indeg)
	for _, out := range g.adj {
		for _, v := range out {
			indeg[v]++
		}
	}
	order := g.order[:0]
	for v := 0; v < k; v++ {
		if indeg[v] == 0 {
			order = append(order, v)
		}
	}
	for head := 0; head < len(order); head++ {
		for _, w := range g.adj[order[head]] {
			indeg[w]--
			if indeg[w] == 0 {
				order = append(order, w)
			}
		}
	}
	g.order = order
	return order, len(order) == k
}

// findCycleInts returns one directed cycle of the integer digraph, or
// nil when it is acyclic.
func findCycleInts(n int, adj [][]int) []int {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]int, n)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = -1
	}
	var cycle []int
	var dfs func(v int) bool
	dfs = func(v int) bool {
		color[v] = gray
		for _, w := range adj[v] {
			switch color[w] {
			case white:
				parent[w] = v
				if dfs(w) {
					return true
				}
			case gray:
				// Unwind from v back to w.
				cycle = []int{w}
				for x := v; x != w; x = parent[x] {
					cycle = append(cycle, x)
				}
				// Reverse into forward order.
				for i, j := 0, len(cycle)-1; i < j; i, j = i+1, j-1 {
					cycle[i], cycle[j] = cycle[j], cycle[i]
				}
				return true
			}
		}
		color[v] = black
		return false
	}
	for v := 0; v < n; v++ {
		if color[v] == white && dfs(v) {
			return cycle
		}
	}
	return nil
}
