package dag

import "repro/internal/bitset"

// EachPrefixSet enumerates every downward-closed node set of the dag
// (each induces a prefix in the sense of Section 2, including the empty
// set and the full node set). The bitset passed to fn is reused; clone
// it to retain. Returns the number of prefixes visited; enumeration
// stops early if fn returns false.
//
// The enumeration walks nodes in topological order and either excludes a
// node (forcing exclusion of all its descendants) or includes it (its
// predecessors are already decided, so inclusion is legal iff they are
// all included).
func (d *Dag) EachPrefixSet(fn func(set *bitset.Set) bool) int {
	order, err := d.TopoSort()
	if err != nil {
		return 0
	}
	n := d.NumNodes()
	set := bitset.New(n)
	visited := 0
	stopped := false

	var rec func(i int)
	rec = func(i int) {
		if stopped {
			return
		}
		if i == n {
			visited++
			if !fn(set) {
				stopped = true
			}
			return
		}
		u := order[i]
		// Case 1: exclude u.
		rec(i + 1)
		if stopped {
			return
		}
		// Case 2: include u, legal iff all predecessors are included.
		for _, p := range d.preds[u] {
			if !set.Contains(int(p)) {
				return
			}
		}
		set.Add(int(u))
		rec(i + 1)
		set.Remove(int(u))
	}
	rec(0)
	return visited
}

// CountPrefixes returns the number of distinct prefixes (antichain
// ideals) of the dag.
func (d *Dag) CountPrefixes() int {
	return d.EachPrefixSet(func(*bitset.Set) bool { return true })
}

// EachRelaxation enumerates every relaxation of the dag: every graph on
// the same nodes whose edge set is a subset of d's (Section 2). The Dag
// passed to fn is freshly allocated each call and may be retained.
// Returns the number of relaxations visited (2^|E|); stops early if fn
// returns false.
func (d *Dag) EachRelaxation(fn func(r *Dag) bool) int {
	edges := d.Edges()
	m := len(edges)
	if m > 30 {
		panic("dag: EachRelaxation would enumerate more than 2^30 graphs")
	}
	visited := 0
	for mask := 0; mask < 1<<uint(m); mask++ {
		r := New(d.NumNodes())
		for i, e := range edges {
			if mask&(1<<uint(i)) != 0 {
				r.MustAddEdge(e[0], e[1])
			}
		}
		visited++
		if !fn(r) {
			break
		}
	}
	return visited
}

// IsRelaxationOf reports whether d is a relaxation of o: same node
// count, and every edge of d is an edge of o.
func (d *Dag) IsRelaxationOf(o *Dag) bool {
	if d.NumNodes() != o.NumNodes() {
		return false
	}
	for u := range d.succs {
		for _, v := range d.succs[u] {
			if !o.HasEdge(Node(u), v) {
				return false
			}
		}
	}
	return true
}

// EachDagOnNodes enumerates every dag on n nodes in which all edges go
// from a lower index to a higher index, invoking fn with each. Every dag
// on n nodes is isomorphic to at least one member of this family (fix a
// topological order and renumber), so it is a complete universe for
// isomorphism-invariant experiments. There are NumDagsOnNodes(n)
// members, visited in mask order (DagOnNodes). The Dag passed to fn is
// freshly allocated; it may be retained. Returns the number visited;
// stops early if fn returns false.
func EachDagOnNodes(n int, fn func(d *Dag) bool) int {
	count := NumDagsOnNodes(n)
	visited := 0
	for mask := uint64(0); mask < count; mask++ {
		visited++
		if !fn(DagOnNodes(n, mask)) {
			break
		}
	}
	return visited
}

// NumDagsOnNodes returns 2^(n(n-1)/2), the number of dags EachDagOnNodes
// visits. It panics past 2^30, a universe no sweep here could finish.
func NumDagsOnNodes(n int) uint64 {
	slots := n * (n - 1) / 2
	if slots > 30 {
		panic("dag: EachDagOnNodes would enumerate more than 2^30 graphs")
	}
	return 1 << uint(slots)
}

// DagOnNodes returns the mask-th dag EachDagOnNodes visits: slot i of
// the edge slots (u, v), u < v, ordered u-ascending then v-ascending, is
// an edge iff bit i of mask is set. Sweeps that hand dags out to
// workers build each one from its index with it.
func DagOnNodes(n int, mask uint64) *Dag {
	d := New(n)
	slot := 0
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if mask&(1<<uint(slot)) != 0 {
				d.MustAddEdge(Node(u), Node(v))
			}
			slot++
		}
	}
	return d
}
