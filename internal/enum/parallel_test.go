package enum

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/computation"
	"repro/internal/memmodel"
	"repro/internal/obs"
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

// n5RepPairs is the number of representative pairs the n = 5,
// one-location sweep decides when it runs to the end.
const n5RepPairs = 514100

// TestPatternSweepCancelled cancels an n = 5 sweep on two workers twice,
// once before it starts and once after it has decided some pairs. Each
// time the sweep must return ctx's error having decided only part of
// the universe, with every worker finished (the live Done gauge) and
// no goroutine left behind.
func TestPatternSweepCancelled(t *testing.T) {
	const workers = 2
	for _, mid := range []bool{false, true} {
		base := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		var live atomic.Pointer[obs.Counters]
		started := make(chan struct{})
		rec := obs.RecorderFunc(func(ev obs.Event) {
			if ev.Kind == obs.RunStart {
				live.Store(ev.Live)
				close(started)
			}
		})
		watched := make(chan struct{})
		if mid {
			go func() { // cancel once the workers have published some pairs
				defer close(watched)
				<-started
				for live.Load().States.Load() < 4096 {
					time.Sleep(time.Millisecond)
				}
				cancel()
			}()
		} else {
			cancel()
			close(watched)
		}
		s, err := PatternSweepParallel(ctx, nil, 5, 1, workers, rec)
		<-watched
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("mid=%v: err %v, want %v", mid, err, context.Canceled)
		}
		if s.RepPairs >= n5RepPairs {
			t.Fatalf("mid=%v: a cancelled sweep decided %d pairs, the whole universe's %d", mid, s.RepPairs, n5RepPairs)
		}
		if done := live.Load().Done.Load(); done != workers {
			t.Fatalf("mid=%v: %d of %d workers finished", mid, done, workers)
		}
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; {
			if time.Now().After(deadline) {
				t.Fatalf("mid=%v: %d goroutines after the sweep, %d before", mid, runtime.NumGoroutine(), base)
			}
			time.Sleep(time.Millisecond)
		}
	}
}
