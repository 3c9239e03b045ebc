package enum

// This file implements the symmetry-reduced enumeration: one canonical
// representative per isomorphism class, passed with the class's orbit
// size, so a sweep multiplies per-computation counts by the orbit
// instead of re-deciding every member.
//
// Every model and property swept by this repository is
// isomorphism-invariant (see the package comment), so membership of a
// representative decides membership for its whole class, and exact
// universe totals are recovered as Σ orbit. The canonical
// representative is the enumeration-order-minimal class member
// (dag.Canonicalizer), so the first computation of the full enumeration
// with a given isomorphism-invariant property is itself canonical: its
// representative precedes it in enumeration order and has the property
// too. A reduced sweep therefore reports the same first failure as the
// unreduced one, not merely an isomorphic one.

import (
	"repro/internal/computation"
	"repro/internal/dag"
)

// EachComputationReduced enumerates one canonical representative per
// isomorphism class of computations with exactly n nodes over numLocs
// locations, passing each with its orbit size (the number of
// ordered-universe members it stands for). Σ orbit over a full sweep
// equals EachComputation's visit count. The computation is freshly
// allocated and may be retained; enumeration stops early if fn returns
// false. Returns the number of representatives visited.
func EachComputationReduced(n, numLocs int, fn func(c *computation.Computation, orbit int64) bool) int {
	visited := 0
	eachComputationReducedShard(n, numLocs, 0, 1, func(c *computation.Computation, orbit int64) bool {
		visited++
		return fn(c, orbit)
	})
	return visited
}

// EachComputationReducedUpTo enumerates canonical representatives with
// 0..maxNodes nodes, smallest first.
func EachComputationReducedUpTo(maxNodes, numLocs int, fn func(c *computation.Computation, orbit int64) bool) int {
	total := 0
	for n := 0; n <= maxNodes; n++ {
		stopped := false
		total += EachComputationReduced(n, numLocs, func(c *computation.Computation, orbit int64) bool {
			if !fn(c, orbit) {
				stopped = true
				return false
			}
			return true
		})
		if stopped {
			break
		}
	}
	return total
}

// eachComputationReducedShard enumerates the canonical representatives
// whose dag mask index is ≡ shard (mod shards), passing the orbit size.
// Ownership is decided on the raw mask index, before the symmetry
// analysis, so each worker analyzes only its own dags.
func eachComputationReducedShard(n, numLocs, shard, shards int, fn func(c *computation.Computation, orbit int64) bool) {
	ops := computation.AllOps(numLocs)
	cz := dag.NewCanonicalizer()
	var dagIdx uint64
	dag.EachDagOnNodes(n, func(g *dag.Dag) bool {
		idx := dagIdx
		dagIdx++
		if idx%uint64(shards) != uint64(shard) {
			return true
		}
		if !cz.AnalyzeDag(g) {
			return true // every labeling of a non-minimal mask is non-canonical
		}
		labels := make([]computation.Op, n)
		lidx := make([]int32, n)
		stopped := false
		var rec func(i int) bool
		rec = func(i int) bool {
			if i == n {
				orbit, canonical := cz.LabelOrbit(lidx)
				if !canonical {
					return true
				}
				c := computation.MustFrom(g.Clone(), append([]computation.Op(nil), labels...), numLocs)
				if !fn(c, orbit) {
					stopped = true
					return false
				}
				return true
			}
			for oi, op := range ops {
				labels[i] = op
				lidx[i] = int32(oi)
				if !rec(i + 1) {
					return false
				}
			}
			return true
		}
		rec(0)
		return !stopped
	})
}
