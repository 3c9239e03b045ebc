package memmodel

import (
	"context"
	"testing"

	"repro/internal/computation"
	"repro/internal/dag"
	"repro/internal/observer"
)

// eachComputationLocal enumerates the ordered-node universe of exactly
// n nodes (mirroring enum.EachComputation, which this package cannot
// import without a cycle).
func eachComputationLocal(n, numLocs int, fn func(c *computation.Computation)) {
	ops := computation.AllOps(numLocs)
	dag.EachDagOnNodes(n, func(g *dag.Dag) bool {
		labels := make([]computation.Op, n)
		var rec func(i int)
		rec = func(i int) {
			if i == n {
				fn(computation.MustFrom(g.Clone(), append([]computation.Op(nil), labels...), numLocs))
				return
			}
			for _, op := range ops {
				labels[i] = op
				rec(i + 1)
			}
		}
		rec(0)
		return true
	})
}

// TestPatternMatchesContains differentially checks the fused decider
// against the registered models' Contains over the full universe: for
// every computation and every valid observer, the pattern bits must
// agree with the individual model deciders.
func TestPatternMatchesContains(t *testing.T) {
	models := PatternModels()
	if len(models) != len(ModelNames()) {
		t.Fatalf("PatternModels has %d models, ModelNames %d", len(models), len(ModelNames()))
	}
	for i, name := range ModelNames() {
		if models[i].Name() != name {
			t.Fatalf("pattern bit %d is %s, want %s", i, models[i].Name(), name)
		}
	}
	cases := []struct{ n, locs int }{
		{0, 1}, {1, 1}, {2, 1}, {3, 1}, {4, 1},
		{0, 2}, {1, 2}, {2, 2}, {3, 2},
	}
	if testing.Short() {
		cases = cases[:7]
	}
	pd := NewPatternDecider()
	for _, tc := range cases {
		pairs := 0
		eachComputationLocal(tc.n, tc.locs, func(c *computation.Computation) {
			pd.Reset(c)
			observer.Enumerate(c, func(o *observer.Observer) bool {
				got := pd.Pattern(o)
				var want uint16
				for i, m := range models {
					if m.Contains(c, o) {
						want |= 1 << i
					}
				}
				if got != want {
					t.Fatalf("n=%d locs=%d %v / %v: pattern %09b, Contains say %09b",
						tc.n, tc.locs, c, o, got, want)
				}
				pairs++
				return true
			})
		})
		if pairs == 0 && tc.n > 0 {
			t.Fatalf("n=%d locs=%d: no pairs enumerated", tc.n, tc.locs)
		}
	}
}

// TestSleepSetsPreserveSC: the engine's sleep-set pruning must not
// change SC membership for any pair of the small universe.
func TestSleepSetsPreserveSC(t *testing.T) {
	noSleep := SearchOptions{DisableSleep: true}
	for _, tc := range []struct{ n, locs int }{{3, 1}, {3, 2}, {4, 1}} {
		eachComputationLocal(tc.n, tc.locs, func(c *computation.Computation) {
			observer.Enumerate(c, func(o *observer.Observer) bool {
				if got, want := SC.Contains(c, o), decideSC(context.Background(), c, o, noSleep).Verdict.In(); got != want {
					t.Fatalf("n=%d locs=%d %v / %v: SC with sleep %v, without %v",
						tc.n, tc.locs, c, o, got, want)
				}
				return true
			})
		})
	}
}

// TestPatternDeciderReuse checks that one decider instance gives the
// same answers when hopping between computations of different sizes and
// location counts — the pooled buffers must not leak state.
func TestPatternDeciderReuse(t *testing.T) {
	shared := NewPatternDecider()
	sizes := []struct{ n, locs int }{{3, 2}, {2, 1}, {3, 1}, {1, 2}}
	for _, tc := range sizes {
		eachComputationLocal(tc.n, tc.locs, func(c *computation.Computation) {
			fresh := NewPatternDecider()
			shared.Reset(c)
			fresh.Reset(c)
			observer.Enumerate(c, func(o *observer.Observer) bool {
				if g, w := shared.Pattern(o), fresh.Pattern(o); g != w {
					t.Fatalf("n=%d locs=%d %v / %v: reused decider %09b, fresh %09b",
						tc.n, tc.locs, c, o, g, w)
				}
				return true
			})
		})
	}
}
