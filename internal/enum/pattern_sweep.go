package enum

// This file implements the universe sweep behind the lattice check and
// the membership census: one pass over canonical representatives
// classifies every pair into its membership pattern (one bit per
// registered model) with a pooled memmodel.PatternDecider, and every
// edge's Relation falls out of the orbit-weighted pattern census.

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/computation"
	"repro/internal/memmodel"
	"repro/internal/obs"
	"repro/internal/observer"
)

// ctxPollMask throttles ctx polling to every 256 pairs: an Err() call
// is cheap but not free, and pair visits are nanoseconds each.
const ctxPollMask = 255

// PatternEdge selects two membership-pattern bits to relate, as
// indices into memmodel.PatternModels() (= ModelNames order).
type PatternEdge struct{ A, B int }

// PatternSweep is the result of one reduced pattern sweep.
type PatternSweep struct {
	// Edges holds one Relation per requested PatternEdge, with counts
	// over the whole universe.
	Edges []Relation
	// Counts is the orbit-weighted census: Counts[p] is the number of
	// universe pairs whose membership pattern, masked to the bits the
	// sweep decided (see PatternSweepParallel), is exactly p. Indexed by
	// the 9-bit pattern; Figure-1-only censuses land in the low 64
	// entries.
	Counts [512]int64
	// Pairs and Computations are universe totals (orbit-weighted);
	// RepPairs and RepComputations count what was actually decided.
	Pairs, Computations       int64
	RepPairs, RepComputations int64
}

// Skipped returns the number of universe computations the sweep never
// materialized — the symmetry reduction's saving.
func (s PatternSweep) Skipped() int64 { return s.Computations - s.RepComputations }

// PatternSweepParallel classifies every pair of the universe up to
// maxNodes nodes into its membership pattern, deciding only canonical
// representatives (orbit-weighted), sharded over workers (<= 0 means
// GOMAXPROCS). It decides only the bits its edges read (their union;
// every registered model's bit when edges is empty, the census), so
// Counts is indexed by that masked pattern. Edge relations are
// identical to running the serial Compare once per edge, for every
// worker count. The recorder (nil = off) sees a
// RunStart with live gauges (decided pairs as States), one WorkerDone
// per shard, and a RunEnd; WorkerDone and RunEnd stats carry the
// symmetry gauges (Orbits = universe computations covered,
// SymmetrySkipped = computations never materialized). err is ctx's
// error when the sweep was cut short; the partial counts then prove
// nothing.
func PatternSweepParallel(ctx context.Context, edges []PatternEdge, maxNodes, numLocs, workers int, rec obs.Recorder) (PatternSweep, error) {
	numModels := len(memmodel.ModelNames())
	mask := uint16(1)<<numModels - 1
	if len(edges) > 0 {
		mask = 0
	}
	for _, e := range edges {
		if e.A < 0 || e.A >= numModels || e.B < 0 || e.B >= numModels {
			panic(fmt.Sprintf("enum: pattern edge %+v out of range", e))
		}
		mask |= 1<<e.A | 1<<e.B
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var live *obs.Counters
	if rec != nil {
		live = &obs.Counters{}
		obs.Emit(rec, obs.Event{Kind: obs.RunStart, Total: workers, Live: live})
	}
	type shardRes struct {
		counts          [512]int64
		pairs, decided  int64
		comps, repComps int64
	}
	results := make([]shardRes, workers)
	var cancelled atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			sr := &results[shard]
			pd := memmodel.NewPatternDecider()
			tick, published := 0, 0
			var pubSkip int64
			for n := 0; n <= maxNodes; n++ {
				eachComputationReducedShard(n, numLocs, shard, workers, func(c *computation.Computation, orbit int64) bool {
					pd.Reset(c)
					sr.repComps++
					sr.comps += orbit
					observer.Enumerate(c, func(o *observer.Observer) bool {
						tick++
						if tick&ctxPollMask == 0 {
							if ctx.Err() != nil {
								cancelled.Store(true)
							}
							if live != nil {
								live.States.Add(int64(tick - published))
								published = tick
								if skip := sr.comps - sr.repComps; skip != pubSkip {
									live.Skipped.Add(skip - pubSkip)
									pubSkip = skip
								}
							}
						}
						if cancelled.Load() {
							return false
						}
						sr.counts[pd.Masked(o, mask)] += orbit
						sr.pairs += orbit
						return true
					})
					return !cancelled.Load()
				})
				if cancelled.Load() {
					break
				}
			}
			sr.decided = int64(tick)
			if rec != nil {
				live.States.Add(int64(tick - published))
				live.Skipped.Add(sr.comps - sr.repComps - pubSkip)
				live.Done.Add(1)
				obs.Emit(rec, obs.Event{Kind: obs.WorkerDone, Worker: shard,
					Stats: &obs.Stats{States: int64(tick), Orbits: sr.comps,
						SymmetrySkipped: sr.comps - sr.repComps, Workers: workers}})
			}
		}(w)
	}
	wg.Wait()

	var out PatternSweep
	for i := range results {
		sr := &results[i]
		for p, n := range sr.counts {
			out.Counts[p] += n
		}
		out.Pairs += sr.pairs
		out.Computations += sr.comps
		out.RepPairs += sr.decided
		out.RepComputations += sr.repComps
	}
	out.Edges = make([]Relation, len(edges))
	for ei, e := range edges {
		for p, n := range out.Counts {
			out.Edges[ei].add(p&(1<<uint(e.A)) != 0, p&(1<<uint(e.B)) != 0, int(n))
		}
	}
	if rec != nil {
		obs.Emit(rec, obs.Event{Kind: obs.RunEnd,
			Str: fmt.Sprintf("%d pairs via %d representatives", out.Pairs, out.RepPairs),
			Stats: &obs.Stats{States: live.States.Load(), Orbits: out.Computations,
				SymmetrySkipped: out.Skipped(), Workers: workers}})
	}
	return out, ctx.Err()
}
