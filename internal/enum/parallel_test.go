package enum

import (
	"context"
	"testing"

	"repro/internal/computation"
	"repro/internal/memmodel"
	"repro/internal/observer"
)

// modelBit returns m's pattern bit: its index in memmodel.PatternModels().
func modelBit(t *testing.T, m memmodel.Model) int {
	t.Helper()
	for i, pm := range memmodel.PatternModels() {
		if pm.Name() == m.Name() {
			return i
		}
	}
	t.Fatalf("%s is not a pattern model", m.Name())
	return -1
}

// sweepRelation relates a and b by PatternSweepParallel.
func sweepRelation(t *testing.T, a, b memmodel.Model, maxNodes, numLocs, workers int) Relation {
	t.Helper()
	s, err := PatternSweepParallel(context.Background(), []PatternEdge{{A: modelBit(t, a), B: modelBit(t, b)}},
		maxNodes, numLocs, workers, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s.Edges[0]
}

// The parallel sweep must produce exactly the sequential counts.
func TestCompareParallelMatchesSequential(t *testing.T) {
	seq := Compare(memmodel.LC, memmodel.NN, 3, 1)
	for _, workers := range []int{1, 2, 5} {
		if par := sweepRelation(t, memmodel.LC, memmodel.NN, 3, 1, workers); par != seq {
			t.Fatalf("workers=%d: parallel %+v != sequential %+v", workers, par, seq)
		}
	}
}

// The sweep's universe totals equal the plain enumerations' for every
// worker count: every pair, every ordered computation, and one decided
// computation per canonical representative.
func TestCountPairsParallel(t *testing.T) {
	pairs := EachPair(3, 1, func(*computation.Computation, *observer.Observer) bool { return true })
	comps := EachComputationUpTo(3, 1, func(*computation.Computation) bool { return true })
	reps := EachComputationReducedUpTo(3, 1, func(*computation.Computation, int64) bool { return true })
	for _, workers := range []int{0, 1, 4} {
		s, err := PatternSweepParallel(context.Background(), nil, 3, 1, workers, nil)
		if err != nil {
			t.Fatal(err)
		}
		if s.Pairs != int64(pairs) || s.Computations != int64(comps) || s.RepComputations != int64(reps) {
			t.Fatalf("workers=%d: pairs/computations/representatives %d/%d/%d, want %d/%d/%d",
				workers, s.Pairs, s.Computations, s.RepComputations, pairs, comps, reps)
		}
	}
}
