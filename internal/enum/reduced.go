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
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/computation"
	"repro/internal/dag"
)

// EachComputationReduced enumerates one canonical representative per
// isomorphism class of computations with exactly n nodes over numLocs
// locations, in enumeration order, passing each with its orbit size
// (the number of ordered-universe members it stands for). Σ orbit over
// a full sweep equals EachComputation's visit count. The computations
// of one dag's labellings share that dag and its closure
// (computation.Relabel): they may be retained but must not be mutated.
// Enumeration stops early if fn returns false. Returns the number of
// representatives visited.
func EachComputationReduced(n, numLocs int, fn func(c *computation.Computation, orbit int64) bool) int {
	visited := 0
	var next atomic.Uint64
	eachComputationReducedClaimed(n, numLocs, &next, func(c *computation.Computation, orbit int64) bool {
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

// EachComputationReducedParallel visits what EachComputationReduced
// visits, on workers goroutines (<= 0 means GOMAXPROCS) that each claim
// the next unclaimed dag when they finish one, so the order of visits
// is unspecified. fn receives the index in [0, workers) of the worker
// calling it; calls with one index never overlap, so per-worker state
// indexed by it needs no locking. When fn returns false, every worker
// stops before its next call. Returns the number of representatives
// visited.
func EachComputationReducedParallel(n, numLocs, workers int, fn func(worker int, c *computation.Computation, orbit int64) bool) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var next atomic.Uint64
	var stop atomic.Bool
	visited := make([]int, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			eachComputationReducedClaimed(n, numLocs, &next, func(c *computation.Computation, orbit int64) bool {
				if stop.Load() {
					return false
				}
				visited[w]++
				if !fn(w, c, orbit) {
					stop.Store(true)
					return false
				}
				return true
			})
		}(w)
	}
	wg.Wait()
	total := 0
	for _, v := range visited {
		total += v
	}
	return total
}

// eachComputationReducedClaimed is one worker of a reduced enumeration
// of the n-node universe. It claims dag mask indices from next, one at
// a time, until none is left, and passes fn the canonical labellings of
// each claimed dag that is its own canonical form, in enumeration
// order. Workers sharing next visit every representative once between
// them, and a worker that finishes a dag claims the next one, so none
// idles while another still has several dags to go; a lone worker
// visits them in enumeration order. It stops when fn returns false.
func eachComputationReducedClaimed(n, numLocs int, next *atomic.Uint64, fn func(c *computation.Computation, orbit int64) bool) {
	ops := computation.AllOps(numLocs)
	numDags := dag.NumDagsOnNodes(n)
	cz := dag.NewCanonicalizer()
	labels := make([]computation.Op, n)
	lidx := make([]int32, n)
	var proto *computation.Computation // the claimed dag, all no-ops
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == n {
			orbit, canonical := cz.LabelOrbit(lidx)
			return !canonical || fn(proto.Relabel(append([]computation.Op(nil), labels...)), orbit)
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
	for idx := next.Add(1) - 1; idx < numDags; idx = next.Add(1) - 1 {
		g := dag.DagOnNodes(n, idx)
		if !cz.AnalyzeDag(g) {
			continue // every labeling of a non-minimal mask is non-canonical
		}
		proto = computation.MustFrom(g, make([]computation.Op, n), numLocs)
		if !rec(0) {
			return
		}
	}
}
