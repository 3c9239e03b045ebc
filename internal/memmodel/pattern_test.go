package memmodel

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/computation"
	"repro/internal/dag"
	"repro/internal/observer"
	"repro/internal/search"
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

// patternMasks are the row masks the masked-decision tests ask for: the
// SC/LC auxiliary sweep's, each single bit, the Figure 1 bits and every
// bit.
func patternMasks() []uint16 {
	masks := []uint16{PatternSC | PatternLC, PatternNW | PatternWN, PatternLC | PatternNN, PatternAll, patternEvery}
	for i := range ModelNames() {
		masks = append(masks, 1<<i)
	}
	return masks
}

// TestPatternMatchesContains differentially checks the fused decider
// against the registered models' Contains over the full universe: for
// every computation and every valid observer, the pattern bits must
// agree with the individual model deciders, which run the engine for
// SC and TSO whatever the inclusions imply, and a masked decision must
// equal the full pattern under the mask. The Q-dag models' Decisions,
// made by one fused scan on a reused Decider, must carry the triple
// ExplainQDag finds.
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
	preds := []Predicate{PredNN, PredNW, PredWN, PredWW}
	masks := patternMasks()
	pd := NewPatternDecider()
	var qd Decider
	for _, tc := range cases {
		pairs := 0
		eachComputationLocal(tc.n, tc.locs, func(c *computation.Computation) {
			pd.Reset(c)
			qd.Reset(c)
			observer.Enumerate(c, func(o *observer.Observer) bool {
				qd.Observe(o)
				for _, p := range preds {
					d, err := qd.Decide(context.Background(), p.Name, SearchOptions{})
					if err != nil {
						t.Fatal(err)
					}
					if want := ExplainQDag(p, c, o); !reflect.DeepEqual(d.Violation, want) {
						t.Fatalf("n=%d locs=%d %v / %v: %s violation %+v, ExplainQDag %+v",
							tc.n, tc.locs, c, o, p.Name, d.Violation, want)
					}
				}
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
				for _, mask := range masks {
					if got := pd.Masked(o, mask); got != want&mask {
						t.Fatalf("n=%d locs=%d %v / %v: mask %09b decided %09b, want %09b",
							tc.n, tc.locs, c, o, mask, got, want&mask)
					}
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
				d, err := DecideByName(context.Background(), "SC", c, o, noSleep)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := SC.Contains(c, o), d.Verdict.In(); got != want {
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
// location counts, and between row masks — the pooled buffers must not
// leak state.
func TestPatternDeciderReuse(t *testing.T) {
	masks := patternMasks()
	shared := NewPatternDecider()
	sizes := []struct{ n, locs int }{{3, 2}, {2, 1}, {3, 1}, {1, 2}}
	for _, tc := range sizes {
		eachComputationLocal(tc.n, tc.locs, func(c *computation.Computation) {
			fresh := NewPatternDecider()
			shared.Reset(c)
			fresh.Reset(c)
			observer.Enumerate(c, func(o *observer.Observer) bool {
				w := fresh.Pattern(o)
				if g := shared.Pattern(o); g != w {
					t.Fatalf("n=%d locs=%d %v / %v: reused decider %09b, fresh %09b",
						tc.n, tc.locs, c, o, g, w)
				}
				for _, mask := range masks {
					if g := shared.Masked(o, mask); g != w&mask {
						t.Fatalf("n=%d locs=%d %v / %v: reused decider under mask %09b %09b, fresh %09b",
							tc.n, tc.locs, c, o, mask, g, w&mask)
					}
				}
				return true
			})
		})
	}
}

// TestHBCoreWarmAllocatesNothing: once its buffers have grown to the
// computation, the happens-before core builds hb and runs the RA and
// CAUSAL checks, and TSO runs its static checks, whether they rule the
// pair out or lay out its gates, without allocating — the cost
// PatternDecider pays once per observer on the lattice sweeps. Once
// warm, TSO's event dag and Spec (events) and a Runner's search of it
// allocate nothing either, on every pair the search finds out of TSO:
// the cost the sweeps pay once per effective fence set.
func TestHBCoreWarmAllocatesNothing(t *testing.T) {
	var r search.Runner
	searched := 0
	eachComputationLocal(3, 2, func(c *computation.Computation) {
		cl, writers := c.Closure(), writersByLoc(nil, c)
		var h hbCore
		var tso tsoCore
		observer.Enumerate(c, func(o *observer.Observer) bool {
			feasible := false
			decide := func() {
				feasible = false
				if h.build(c, cl, o) {
					h.ra(context.Background(), c, o, writers)
					h.causal(context.Background(), c, o, writers)
					feasible = tso.check(c, cl, o, writers)
				}
			}
			decide()
			if allocs := testing.AllocsPerRun(5, decide); allocs != 0 {
				t.Fatalf("%v / %v: %v allocs per warm decision, want 0", c, o, allocs)
			}
			if !feasible {
				return true
			}
			found := false
			tsoSearch := func() {
				found = r.Run(context.Background(), tso.events(c, cl, o, c.Ops()), SearchOptions{}).Found
			}
			if tsoSearch(); found {
				return true
			}
			searched++
			if allocs := testing.AllocsPerRun(5, tsoSearch); allocs != 0 {
				t.Fatalf("%v / %v: %v allocs per warm TSO search, want 0", c, o, allocs)
			}
			return true
		})
	})
	if searched == 0 {
		t.Fatal("no pair reached TSO's search and was found out")
	}
	t.Logf("%d pairs searched warm", searched)
}
