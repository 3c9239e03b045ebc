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
//
// Each claimed dag's canonical labellings are collected into one list,
// which is handed out two ways. EachComputationReduced and its
// variants pass each labelling on its own, in enumeration order, as a
// computation the caller may retain. The pattern sweep and the star's
// boundary count take them grouped by writer signature (Group), on
// storage reused from group to group: every model but TSO reads a
// labelling only through which nodes write which location
// (memmodel.Entry.ReadsOnlyWriters), so a group's members share every
// other verdict and are decided together.

import (
	"runtime"
	"slices"
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
	eachDagClaimed(n, numLocs, &next, func(dl *dagLabellings) bool {
		return dl.eachLabelling(func(c *computation.Computation, orbit int64) bool {
			visited++
			return fn(c, orbit)
		})
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
	return eachReducedParallel(n, numLocs, workers, func(w int, dl *dagLabellings, ok func() bool) bool {
		return dl.eachLabelling(func(c *computation.Computation, orbit int64) bool { return ok() && fn(w, c, orbit) })
	})
}

// Group is the canonical labellings of one dag that share a writer
// signature: each node writes the same location, or nothing, in all of
// them. Labels lists them in enumeration order and Orbits their orbit
// sizes; C is the first of them. Only TSO, where a no-op is a fence,
// tells a group's members apart (memmodel.Entry.ReadsOnlyWriters).
// A Group and all it holds are reused from group to group: they are
// valid only during the call that receives them, and must not be
// mutated.
type Group struct {
	C      *computation.Computation
	Labels [][]computation.Op
	Orbits []int64
}

// Weight returns the group's summed orbit: the number of
// ordered-universe computations its members stand for.
func (g *Group) Weight() int64 {
	var w int64
	for _, orbit := range g.Orbits {
		w += orbit
	}
	return w
}

// EachGroupReducedParallel visits what EachComputationReducedParallel
// visits, grouped by writer signature: every canonical labelling with
// its orbit, once, in exactly one Group. Groups come one dag at a time,
// as EachComputationReducedParallel's labellings do, with the same
// worker indices and the same stop. Returns the number of groups
// visited.
func EachGroupReducedParallel(n, numLocs, workers int, fn func(worker int, g *Group) bool) int {
	return eachReducedParallel(n, numLocs, workers, func(w int, dl *dagLabellings, ok func() bool) bool {
		return dl.eachGroup(func(g *Group) bool { return ok() && fn(w, g) })
	})
}

// eachReducedParallel runs eachDagClaimed on workers goroutines (<= 0
// means GOMAXPROCS) that share one claim counter. visit receives each
// claimed dag with its worker's index, and asks ok before each call it
// makes to its own caller's callback: ok counts the call, and reports
// false once any visit has returned false. Returns the number of calls
// ok allowed.
func eachReducedParallel(n, numLocs, workers int, visit func(worker int, dl *dagLabellings, ok func() bool) bool) int {
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
			ok := func() bool {
				if stop.Load() {
					return false
				}
				visited[w]++
				return true
			}
			eachDagClaimed(n, numLocs, &next, func(dl *dagLabellings) bool {
				if !visit(w, dl, ok) {
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

// dagLabellings is the canonical labellings of one claimed dag, in
// enumeration order, with their orbits: the one list that both the
// per-labelling and the grouped enumerations read. Its storage is
// reused from dag to dag.
type dagLabellings struct {
	n      int
	proto  *computation.Computation // the dag, all no-ops
	ops    []computation.Op         // labelling i is ops[i*n : (i+1)*n]
	orbits []int64
	group  Group                   // eachGroup's group
	c      computation.Computation // the storage of group.C

	// eachGroup's counting sort: each labelling's signature, where
	// each signature's labellings end, and the labellings in
	// signature order.
	sigs  []uint64
	ends  []int
	order []int
}

// label returns labelling i.
func (dl *dagLabellings) label(i int) []computation.Op {
	return dl.ops[i*dl.n : (i+1)*dl.n : (i+1)*dl.n]
}

// eachLabelling passes fn each labelling with its orbit, in enumeration
// order, until fn returns false, and reports whether it ran to the end.
// Each computation is a Relabel of the dag, over a copy of the
// labellings that no later dag reuses, so fn may retain it.
func (dl *dagLabellings) eachLabelling(fn func(c *computation.Computation, orbit int64) bool) bool {
	ops := append([]computation.Op(nil), dl.ops...)
	for i, orbit := range dl.orbits {
		if !fn(dl.proto.Relabel(ops[i*dl.n:(i+1)*dl.n:(i+1)*dl.n]), orbit) {
			return false
		}
	}
	return true
}

// eachGroup passes fn the labellings grouped by writer signature, until
// fn returns false, and reports whether it ran to the end. Groups come
// in signature order and members in enumeration order: a stable
// counting sort over the (numLocs+1)^n signatures, which are never more
// than the (2·numLocs+1)^n labellings eachDagClaimed walks for the dag.
func (dl *dagLabellings) eachGroup(fn func(g *Group) bool) bool {
	numLocs := dl.proto.NumLocs()
	numSigs := 1
	for range dl.n {
		numSigs *= numLocs + 1
	}
	dl.ends = slices.Grow(dl.ends[:0], numSigs+1)[:numSigs+1]
	clear(dl.ends)
	dl.sigs = dl.sigs[:0]
	for i := range dl.orbits {
		sig := signature(dl.label(i), numLocs)
		dl.sigs = append(dl.sigs, sig)
		dl.ends[sig+1]++
	}
	for sig := 1; sig <= numSigs; sig++ {
		dl.ends[sig] += dl.ends[sig-1]
	}
	// ends[sig] is where signature sig's labellings start, until they
	// are placed; then it is where they end.
	dl.order = slices.Grow(dl.order[:0], len(dl.sigs))[:len(dl.sigs)]
	for i, sig := range dl.sigs {
		dl.order[dl.ends[sig]] = i
		dl.ends[sig]++
	}
	g := &dl.group
	for start := 0; start < len(dl.order); {
		end := dl.ends[dl.sigs[dl.order[start]]]
		g.Labels, g.Orbits = g.Labels[:0], g.Orbits[:0]
		for _, i := range dl.order[start:end] {
			g.Labels = append(g.Labels, dl.label(i))
			g.Orbits = append(g.Orbits, dl.orbits[i])
		}
		start = end
		g.C = dl.proto.RelabelInto(&dl.c, g.Labels[0])
		if !fn(g) {
			return false
		}
	}
	return true
}

// signature returns the writer signature of labels over numLocs
// locations as a number: node u's digit, most significant first, is one
// more than the location it writes, or 0 when it writes nothing. It
// cannot wrap on a dag whose labellings can be listed, since there are
// (2·numLocs+1)^n ≥ (numLocs+1)^n of them.
func signature(labels []computation.Op, numLocs int) uint64 {
	var sig uint64
	for _, op := range labels {
		sig *= uint64(numLocs) + 1
		if op.Kind == computation.Write {
			sig += uint64(op.Loc) + 1
		}
	}
	return sig
}

// eachDagClaimed is one worker of a reduced enumeration of the n-node
// universe. It claims dag mask indices from next, one at a time, until
// none is left, and passes fn the canonical labellings of each claimed
// dag that is its own canonical form. Workers sharing next visit every
// representative once between them, and a worker that finishes a dag
// claims the next one, so none idles while another still has several
// dags to go; a lone worker visits them in enumeration order. It stops
// when fn returns false.
func eachDagClaimed(n, numLocs int, next *atomic.Uint64, fn func(dl *dagLabellings) bool) {
	ops := computation.AllOps(numLocs)
	numDags := dag.NumDagsOnNodes(n)
	cz := dag.NewCanonicalizer()
	labels := make([]computation.Op, n)
	lidx := make([]int32, n)
	dl := &dagLabellings{n: n}
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			if orbit, canonical := cz.LabelOrbit(lidx); canonical {
				dl.ops = append(dl.ops, labels...)
				dl.orbits = append(dl.orbits, orbit)
			}
			return
		}
		for oi, op := range ops {
			labels[i] = op
			lidx[i] = int32(oi)
			rec(i + 1)
		}
	}
	for idx := next.Add(1) - 1; idx < numDags; idx = next.Add(1) - 1 {
		g := dag.DagOnNodes(n, idx)
		if !cz.AnalyzeDag(g) {
			continue // every labeling of a non-minimal mask is non-canonical
		}
		dl.proto = computation.MustFrom(g, make([]computation.Op, n), numLocs)
		dl.ops, dl.orbits = dl.ops[:0], dl.orbits[:0]
		rec(0)
		if !fn(dl) {
			return
		}
	}
}
