package memmodel

import (
	"repro/internal/computation"
	"repro/internal/dag"
	"repro/internal/observer"
)

// This file provides machine checks for the abstract properties of
// Sections 2 and 3: completeness, monotonicity (Definition 5), and the
// local constructibility criteria of Theorems 10 and 12. The properties
// are universally quantified over all computations, so the checks come
// in two flavors: pointwise (at one pair) and universe-wide (driven by
// internal/enum over every computation up to a size bound).

// HasObserver reports whether the model defines at least one observer
// function for c, by exhaustive enumeration of the observer space. A
// model is complete iff this holds for every computation; the
// small-universe experiments quantify it exhaustively.
func HasObserver(m Model, c *computation.Computation) bool {
	found := false
	observer.Enumerate(c, func(o *observer.Observer) bool {
		if m.Contains(c, o) {
			found = true
			return false
		}
		return true
	})
	return found
}

// MonotonicAt reports whether the pair (c, o) respects Definition 5
// locally: if (c, o) ∈ m, then (r, o) ∈ m for every relaxation r of c.
// Pairs outside the model are vacuously monotonic. Note an observer
// function for c is automatically an observer function for every
// relaxation of c, because relaxing only shrinks the precedence
// relation constrained by condition 2.2.
func MonotonicAt(m Model, c *computation.Computation, o *observer.Observer) bool {
	if !m.Contains(c, o) {
		return true
	}
	ok := true
	c.EachRelaxation(func(r *computation.Computation) bool {
		if !m.Contains(r, o) {
			ok = false
			return false
		}
		return true
	})
	return ok
}

// CanExtend reports whether the observer o on c extends into m across
// the single-node extension ext of c: whether there is an observer o2
// for ext with (ext, o2) ∈ m and o2|c = o. ext must extend c by exactly
// one node (which is necessarily a sink of ext).
func CanExtend(m Model, c *computation.Computation, o *observer.Observer, ext *computation.Computation) bool {
	return ExtendObserver(m, c, o, ext) != nil
}

// ExtendObserver returns the first observer o2 for the single-node
// extension ext of c with (ext, o2) ∈ m and o2|c = o, or nil when none
// exists. "First" is in the order of the new node's candidate rows,
// location by location. ext must extend c by exactly one node.
//
// Only the new node's entries are free: the new node adds no precedence
// among old nodes, so o's entries remain valid in ext and o2 must agree
// with them.
func ExtendObserver(m Model, c *computation.Computation, o *observer.Observer, ext *computation.Computation) *observer.Observer {
	if ext.NumNodes() != c.NumNodes()+1 || !c.IsPrefixOfExtension(ext) {
		panic("memmodel: ExtendObserver requires a one-node extension")
	}
	u := dag.Node(c.NumNodes())
	cands := observer.Candidates(ext)
	numLocs := ext.NumLocs()

	// Seed o2 with o's entries, then try every assignment of u's row.
	o2 := observer.New(ext)
	for l := computation.Loc(0); int(l) < numLocs; l++ {
		for v := dag.Node(0); v < u; v++ {
			o2.Set(l, v, o.Get(l, v))
		}
	}
	var try func(l int) bool
	try = func(l int) bool {
		if l == numLocs {
			return m.Contains(ext, o2)
		}
		for _, v := range cands[l][u] {
			o2.Set(computation.Loc(l), u, v)
			if try(l + 1) {
				return true
			}
		}
		return false
	}
	if !try(0) {
		return nil
	}
	return o2
}

// ConstructibleAtAug checks the Theorem 12 criterion at one pair: for
// every instruction in ops, the observer extends into m across the
// augmented computation aug_o(c). For monotonic models, this criterion
// holding at every pair of the model is equivalent to constructibility.
// Returns the first failing instruction, if any.
func ConstructibleAtAug(m Model, c *computation.Computation, o *observer.Observer, ops []computation.Op) (computation.Op, bool) {
	for _, op := range ops {
		aug, _ := c.Augment(op)
		if !CanExtend(m, c, o, aug) {
			return op, false
		}
	}
	return computation.Op{}, true
}

// ConstructibleAtFull checks the Theorem 10 criterion at one pair: for
// every instruction in ops and every set of predecessors, the observer
// extends into m across the corresponding one-node extension of c.
// This is exact for all models (no monotonicity assumption) but costs a
// factor 2^n over ConstructibleAtAug. Returns a failing extension, if
// any.
func ConstructibleAtFull(m Model, c *computation.Computation, o *observer.Observer, ops []computation.Op) (*computation.Computation, bool) {
	n := c.NumNodes()
	if n > 20 {
		panic("memmodel: ConstructibleAtFull would enumerate more than 2^20 predecessor sets")
	}
	for _, op := range ops {
		for mask := 0; mask < 1<<uint(n); mask++ {
			var preds []dag.Node
			for i := 0; i < n; i++ {
				if mask&(1<<uint(i)) != 0 {
					preds = append(preds, dag.Node(i))
				}
			}
			ext, _ := c.Extend(op, preds)
			if !CanExtend(m, c, o, ext) {
				return ext, false
			}
		}
	}
	return nil, true
}
