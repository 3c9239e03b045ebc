package enum

// This file implements the single-pass reduced lattice sweep: instead
// of one universe sweep per Figure-1 edge (each deciding two models per
// pair), one sweep over canonical representatives classifies every pair
// into its membership pattern (one bit per registered model) with a pooled memmodel
// PatternDecider, and every edge's Relation falls out of the
// orbit-weighted pattern census. Witnesses stay byte-identical to the
// per-edge unreduced sweeps: within a shard the first pair on each side
// of an edge is kept, and the merge takes the globally rank-minimal one
// (same argument as reduced.go — the enumeration-first witness-bearing
// computation is necessarily canonical).

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

// PatternEdge selects two membership-pattern bits to relate, as
// indices into memmodel.PatternModels() (= ModelNames order).
type PatternEdge struct{ A, B int }

// PatternSweep is the result of one reduced pattern sweep.
type PatternSweep struct {
	// Edges holds one Relation per requested PatternEdge, with counts
	// over the whole universe and witnesses equal to the ones the
	// unreduced per-edge Compare would report.
	Edges []Relation
	// Counts is the orbit-weighted census: Counts[p] is the number of
	// universe pairs whose membership pattern is exactly p (indexed by
	// the full 9-bit pattern; Figure-1-only censuses land in the low 64
	// entries).
	Counts [512]int64
	// Pairs and Computations are universe totals (orbit-weighted);
	// RepPairs and RepComputations count what was actually decided.
	Pairs, Computations       int64
	RepPairs, RepComputations int64
}

// Skipped returns the number of universe computations the sweep never
// materialized — the symmetry reduction's saving.
func (s PatternSweep) Skipped() int64 { return s.Computations - s.RepComputations }

type edgeWitness struct {
	aPair, bPair *memmodel.Pair
	aRank, bRank pairRank
}

// PatternSweepParallel classifies every pair of the universe up to
// maxNodes nodes into its Figure-1 membership pattern, deciding only
// canonical representatives (orbit-weighted), sharded over workers
// (<= 0 means GOMAXPROCS). Counts and witnesses are identical to
// running the unreduced CompareParallel once per edge, for every
// worker count. The recorder (nil = off) sees a RunStart with live
// gauges (decided pairs as States), one WorkerDone per shard, and a
// RunEnd; WorkerDone and RunEnd stats carry the symmetry gauges
// (Orbits = universe computations covered, SymmetrySkipped =
// computations never materialized).
func PatternSweepParallel(ctx context.Context, edges []PatternEdge, maxNodes, numLocs, workers int, rec obs.Recorder) (PatternSweep, error) {
	numModels := len(memmodel.ModelNames())
	for _, e := range edges {
		if e.A < 0 || e.A >= numModels || e.B < 0 || e.B >= numModels {
			panic(fmt.Sprintf("enum: pattern edge %+v out of range", e))
		}
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
		counts                  [512]int64
		pairs, members, decided int64
		comps, repComps         int64
		wits                    []edgeWitness
	}
	results := make([]shardRes, workers)
	var cancelled atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			sr := &results[shard]
			sr.wits = make([]edgeWitness, len(edges))
			pd := memmodel.NewPatternDecider()
			tick, published := 0, 0
			var pubSkip int64
			for n := 0; n <= maxNodes; n++ {
				eachComputationReducedShard(n, numLocs, shard, workers, func(c *computation.Computation, orbit int64, dagIdx, labelIdx uint64) bool {
					pd.Reset(c)
					sr.repComps++
					sr.comps += orbit
					rank := pairRank{set: true, n: int32(n), dag: dagIdx, label: labelIdx}
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
						p := pd.Pattern(o)
						sr.counts[p] += orbit
						sr.pairs += orbit
						for ei := range edges {
							ew := &sr.wits[ei]
							inA := p&(1<<uint(edges[ei].A)) != 0
							inB := p&(1<<uint(edges[ei].B)) != 0
							switch {
							case inA && !inB && ew.aPair == nil:
								ew.aPair = &memmodel.Pair{C: c, O: o.Clone()}
								ew.aRank = rank
							case inB && !inA && ew.bPair == nil:
								ew.bPair = &memmodel.Pair{C: c, O: o.Clone()}
								ew.bRank = rank
							}
						}
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
	out.Edges = make([]Relation, len(edges))
	wits := make([]edgeWitness, len(edges))
	for i := range results {
		sr := &results[i]
		for p, n := range sr.counts {
			out.Counts[p] += n
		}
		out.Pairs += sr.pairs
		out.Computations += sr.comps
		out.RepPairs += sr.decided
		out.RepComputations += sr.repComps
		for ei := range edges {
			ew, m := &sr.wits[ei], &wits[ei]
			if ew.aPair != nil && (m.aPair == nil || ew.aRank.less(m.aRank)) {
				m.aPair, m.aRank = ew.aPair, ew.aRank
			}
			if ew.bPair != nil && (m.bPair == nil || ew.bRank.less(m.bRank)) {
				m.bPair, m.bRank = ew.bPair, ew.bRank
			}
		}
	}
	for ei, e := range edges {
		r := &out.Edges[ei]
		for p, n := range out.Counts {
			inA := p&(1<<uint(e.A)) != 0
			inB := p&(1<<uint(e.B)) != 0
			switch {
			case inA && inB:
				r.Both += int(n)
			case inA:
				r.AOnly += int(n)
			case inB:
				r.BOnly += int(n)
			}
		}
		r.WitnessAOnly, r.rankAOnly = wits[ei].aPair, wits[ei].aRank
		r.WitnessBOnly, r.rankBOnly = wits[ei].bPair, wits[ei].bRank
	}
	if rec != nil {
		obs.Emit(rec, obs.Event{Kind: obs.RunEnd,
			Str: fmt.Sprintf("%d pairs via %d representatives", out.Pairs, out.RepPairs),
			Stats: &obs.Stats{States: live.States.Load(), Orbits: out.Computations,
				SymmetrySkipped: out.Skipped(), Workers: workers}})
	}
	return out, ctx.Err()
}
