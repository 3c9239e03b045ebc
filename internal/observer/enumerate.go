package observer

import (
	"repro/internal/computation"
	"repro/internal/dag"
)

// Candidates returns, for each (location, node) pair, the set of values
// that conditions 2.1–2.3 allow Φ(l, u) to take:
//
//   - if op(u) = W(l): exactly {u} (condition 2.3);
//   - otherwise: {⊥} ∪ {w : op(w) = W(l), ¬(u ≺ w)} (conditions 2.1, 2.2).
//
// The result is indexed cands[l][u]. Every observer function is a
// member of the candidate product, and conversely every member of the
// product is a valid observer function, so the product enumerates the
// full observer space exactly.
func Candidates(c *computation.Computation) [][][]dag.Node {
	cl := c.Closure()
	n := c.NumNodes()
	cands := make([][][]dag.Node, c.NumLocs())
	for l := computation.Loc(0); int(l) < c.NumLocs(); l++ {
		writers := c.Writers(l)
		cands[l] = make([][]dag.Node, n)
		for u := dag.Node(0); int(u) < n; u++ {
			if c.Op(u).IsWriteTo(l) {
				cands[l][u] = []dag.Node{u}
				continue
			}
			row := []dag.Node{Bottom}
			for _, w := range writers {
				if !cl.Precedes(u, w) {
					row = append(row, w)
				}
			}
			cands[l][u] = row
		}
	}
	return cands
}

// Enumerate visits every observer function of c exactly once. The
// Observer passed to fn is reused between calls; Clone it to retain.
// Enumeration stops early if fn returns false. Returns the number
// visited. The count is the product of candidate-set sizes, which grows
// exponentially; this is intended for the small-universe experiments.
func Enumerate(c *computation.Computation, fn func(o *Observer) bool) int {
	cands := Candidates(c)
	o := New(c)
	n := c.NumNodes()
	total := c.NumLocs() * n
	visited := 0
	stopped := false

	var rec func(slot int)
	rec = func(slot int) {
		if stopped {
			return
		}
		if slot == total {
			visited++
			if !fn(o) {
				stopped = true
			}
			return
		}
		l := computation.Loc(slot / n)
		u := dag.Node(slot % n)
		for _, v := range cands[l][u] {
			o.set(l, u, v)
			rec(slot + 1)
			if stopped {
				return
			}
		}
	}
	rec(0)
	return visited
}

// Rank returns the position at which Enumerate(c, ...) visits o, counting
// from 0, and false if o is not an observer function of c. Enumerate is
// a mixed-radix counter over the candidate sets with slot (l, u) =
// (0, 0) most significant, so the rank is o's candidate indices read as
// that number. Rank allocates nothing beyond c's cached closure.
func Rank(c *computation.Computation, o *Observer) (int, bool) {
	if o.numLocs != c.NumLocs() || o.n != c.NumNodes() {
		return 0, false
	}
	cl := c.Closure()
	rank := 0
	for l := computation.Loc(0); int(l) < o.numLocs; l++ {
		for u := dag.Node(0); int(u) < o.n; u++ {
			v := o.val[int(l)*o.n+int(u)]
			if c.Op(u).IsWriteTo(l) {
				if v != u {
					return 0, false
				}
				continue // a singleton candidate set: radix 1, digit 0
			}
			// The digit is v's index in Candidates(c)[l][u]: ⊥ first, then
			// the writers to l that u does not precede, in id order.
			radix, digit := 1, -1
			if v == Bottom {
				digit = 0
			}
			for w := dag.Node(0); int(w) < o.n; w++ {
				if !c.Op(w).IsWriteTo(l) || cl.Precedes(u, w) {
					continue
				}
				if w == v {
					digit = radix
				}
				radix++
			}
			if digit < 0 {
				return 0, false
			}
			rank = rank*radix + digit
		}
	}
	return rank, true
}

// Count returns the number of observer functions of c without
// materializing them: the product of candidate-set sizes. Pass limit > 0
// to saturate the count (useful to bound work); limit <= 0 counts all.
func Count(c *computation.Computation, limit int) int {
	cands := Candidates(c)
	count := 1
	for l := range cands {
		for u := range cands[l] {
			count *= len(cands[l][u])
			if limit > 0 && count >= limit {
				return limit
			}
		}
	}
	return count
}
