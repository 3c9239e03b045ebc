package search_test

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/checker"
	"repro/internal/computation"
	"repro/internal/dag"
	"repro/internal/memmodel"
	"repro/internal/observer"
	"repro/internal/trace"
)

// Differential tests: on computations small enough to enumerate every
// topological sort, the engine-backed deciders (memmodel.SC/LC, the
// checker's VerifySC/VerifyLC) must agree exactly with brute-force
// enumeration, and the parallel engine (Workers > 1) must return the
// same answers — and the same witness order — as the serial one.

func randomComputation(rng *rand.Rand, maxNodes, maxLocs int) *computation.Computation {
	n := 1 + rng.Intn(maxNodes)
	locs := 1 + rng.Intn(maxLocs)
	g := dag.Random(rng, n, 0.35)
	ops := make([]computation.Op, n)
	for i := range ops {
		l := computation.Loc(rng.Intn(locs))
		if rng.Intn(2) == 0 {
			ops[i] = computation.R(l)
		} else {
			ops[i] = computation.W(l)
		}
	}
	return computation.MustFrom(g, ops, locs)
}

// scDecision is the SC decision on the given number of engine workers
// (0 = one per CPU).
func scDecision(c *computation.Computation, o *observer.Observer, workers int) memmodel.Decision {
	d, _ := memmodel.DecideByName(context.Background(), "SC", c, o, memmodel.SearchOptions{Workers: workers}) // SC is registered
	return d
}

// allSorts materializes every topological sort, giving up past cap so
// a dense instance cannot stall the suite.
func allSorts(g *dag.Dag, cap int) ([][]dag.Node, bool) {
	var sorts [][]dag.Node
	complete := true
	g.EachTopoSort(func(order []dag.Node) bool {
		sorts = append(sorts, append([]dag.Node(nil), order...))
		if len(sorts) >= cap {
			complete = false
			return false
		}
		return true
	})
	return sorts, complete
}

// sampleObservers collects up to k valid observer functions of c.
func sampleObservers(c *computation.Computation, k int) []*observer.Observer {
	var os []*observer.Observer
	observer.Enumerate(c, func(o *observer.Observer) bool {
		os = append(os, o.Clone())
		return len(os) < k
	})
	return os
}

func bruteSC(c *computation.Computation, o *observer.Observer, sorts [][]dag.Node) bool {
	for _, order := range sorts {
		if observer.FromLastWriter(c, order).Equal(o) {
			return true
		}
	}
	return false
}

func bruteLC(c *computation.Computation, o *observer.Observer, sorts [][]dag.Node) bool {
	for l := 0; l < c.NumLocs(); l++ {
		ok := false
		for _, order := range sorts {
			row := observer.LastWriterForLoc(c, order, computation.Loc(l))
			match := true
			for u := range row {
				if row[u] != o.Get(computation.Loc(l), dag.Node(u)) {
					match = false
					break
				}
			}
			if match {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

func orderExplainsLoc(t *trace.Trace, order []dag.Node, l computation.Loc) bool {
	c := t.Comp
	row := observer.LastWriterForLoc(c, order, l)
	for u := 0; u < c.NumNodes(); u++ {
		if !c.Op(dag.Node(u)).IsReadOf(l) {
			continue
		}
		v := trace.Undefined
		if row[u] != observer.Bottom {
			v = t.WriteVal[row[u]]
		}
		if v != t.ReadVal[u] {
			return false
		}
	}
	return true
}

func bruteTraceSC(t *trace.Trace, sorts [][]dag.Node) bool {
	for _, order := range sorts {
		if checker.OrderExplains(t, order) {
			return true
		}
	}
	return false
}

func bruteTraceLC(t *trace.Trace, sorts [][]dag.Node) bool {
	for l := 0; l < t.Comp.NumLocs(); l++ {
		ok := false
		for _, order := range sorts {
			if orderExplainsLoc(t, order, computation.Loc(l)) {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

func TestQuickEngineSCAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	positives, negatives := 0, 0
	for trial := 0; trial < 60; trial++ {
		c := randomComputation(rng, 6, 2)
		sorts, complete := allSorts(c.Dag(), 4000)
		if !complete {
			continue
		}
		for _, o := range sampleObservers(c, 20) {
			want := bruteSC(c, o, sorts)
			d := scDecision(c, o, 0)
			order, got := d.Order, d.Verdict.In()
			if got != want {
				t.Fatalf("SC(%v, %v) = %v, brute force says %v", c, o, got, want)
			}
			if got {
				positives++
				if !observer.FromLastWriter(c, order).Equal(o) {
					t.Fatalf("SC witness %v does not realize the observer", order)
				}
			} else {
				negatives++
			}
		}
	}
	if positives == 0 || negatives == 0 {
		t.Fatalf("weak test: %d positives, %d negatives", positives, negatives)
	}
}

func TestQuickEngineLCAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	positives, negatives := 0, 0
	for trial := 0; trial < 40; trial++ {
		c := randomComputation(rng, 6, 2)
		sorts, complete := allSorts(c.Dag(), 4000)
		if !complete {
			continue
		}
		for _, o := range sampleObservers(c, 15) {
			want := bruteLC(c, o, sorts)
			if got := memmodel.LC.Contains(c, o); got != want {
				t.Fatalf("LC(%v, %v) = %v, brute force says %v", c, o, got, want)
			}
			if want {
				positives++
			} else {
				negatives++
			}
		}
	}
	if positives == 0 || negatives == 0 {
		t.Fatalf("weak test: %d positives, %d negatives", positives, negatives)
	}
}

func TestQuickCheckerAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	scPos, scNeg := 0, 0
	for trial := 0; trial < 50; trial++ {
		c := randomComputation(rng, 6, 2)
		sorts, complete := allSorts(c.Dag(), 4000)
		if !complete {
			continue
		}
		for _, o := range sampleObservers(c, 12) {
			tr := trace.FromObserver(c, o)
			if tr.Validate() != nil {
				continue
			}
			wantSC := bruteTraceSC(tr, sorts)
			resSC := checker.VerifySC(context.Background(), tr, checker.SearchOptions{})
			if resSC.Verdict.In() != wantSC {
				t.Fatalf("VerifySC(%v) = %v, brute force says %v", tr, resSC.Verdict, wantSC)
			}
			if resSC.Verdict.In() {
				scPos++
				if !memmodel.SC.Contains(c, resSC.Observer) {
					t.Fatalf("VerifySC witness observer not in SC")
				}
			} else {
				scNeg++
			}
			wantLC := bruteTraceLC(tr, sorts)
			resLC := checker.VerifyLC(context.Background(), tr, checker.SearchOptions{})
			if resLC.Verdict.In() != wantLC {
				t.Fatalf("VerifyLC(%v) = %v, brute force says %v", tr, resLC.Verdict, wantLC)
			}
			if resLC.Verdict.In() && !memmodel.LC.Contains(c, resLC.Observer) {
				t.Fatalf("VerifyLC witness observer not in LC")
			}
		}
	}
	if scPos == 0 || scNeg == 0 {
		t.Fatalf("weak test: %d SC positives, %d SC negatives", scPos, scNeg)
	}
}

// Parallel search must agree with serial search bit-for-bit: the same
// decision and, on success, the same witness order (the engine commits
// to the lexicographically lowest admissible root).
func TestQuickParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	checked := 0
	for trial := 0; trial < 60; trial++ {
		c := randomComputation(rng, 7, 2)
		for _, o := range sampleObservers(c, 10) {
			serial := scDecision(c, o, 1)
			serialOrder, serialOK := serial.Order, serial.Verdict.In()
			for _, w := range []int{2, 4} {
				par := scDecision(c, o, w)
				parOrder, parOK := par.Order, par.Verdict.In()
				if parOK != serialOK {
					t.Fatalf("workers=%d decision %v, serial %v on (%v, %v)", w, parOK, serialOK, c, o)
				}
				if !parOK {
					continue
				}
				if len(parOrder) != len(serialOrder) {
					t.Fatalf("workers=%d witness length %d, serial %d", w, len(parOrder), len(serialOrder))
				}
				for i := range parOrder {
					if parOrder[i] != serialOrder[i] {
						t.Fatalf("workers=%d witness %v, serial %v", w, parOrder, serialOrder)
					}
				}
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no instances checked")
	}
}

// The checker's decisions must also be worker-independent.
func TestQuickCheckerParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	for trial := 0; trial < 30; trial++ {
		c := randomComputation(rng, 7, 2)
		for _, o := range sampleObservers(c, 6) {
			tr := trace.FromObserver(c, o)
			if tr.Validate() != nil {
				continue
			}
			ctx := context.Background()
			serial := checker.VerifySC(ctx, tr, checker.SearchOptions{Workers: 1}).Verdict
			par := checker.VerifySC(ctx, tr, checker.SearchOptions{Workers: 4}).Verdict
			if serial != par {
				t.Fatalf("VerifySC workers=4 %v, workers=1 %v on %v", par, serial, tr)
			}
			serialLC := checker.VerifyLC(ctx, tr, checker.SearchOptions{Workers: 1}).Verdict
			parLC := checker.VerifyLC(ctx, tr, checker.SearchOptions{Workers: 4}).Verdict
			if serialLC != parLC {
				t.Fatalf("VerifyLC workers=4 %v, workers=1 %v on %v", parLC, serialLC, tr)
			}
		}
	}
}
