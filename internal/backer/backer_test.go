package backer

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/checker"
	"repro/internal/computation"
	"repro/internal/dag"
	"repro/internal/observer"
	"repro/internal/sched"
	"repro/internal/trace"
)

// randomMemComputation builds a random computation with a healthy mix
// of reads and writes for coherence testing.
func randomMemComputation(rng *rand.Rand, n, locs int) *computation.Computation {
	g := dag.Random(rng, n, 0.25)
	ops := make([]computation.Op, n)
	for i := range ops {
		l := computation.Loc(rng.Intn(locs))
		switch rng.Intn(4) {
		case 0:
			ops[i] = computation.W(l)
		case 1:
			ops[i] = computation.N
		default:
			ops[i] = computation.R(l)
		}
	}
	return computation.MustFrom(g, ops, locs)
}

func TestSingleProcessorIsSequential(t *testing.T) {
	// On one processor BACKER behaves like an ordinary memory: every
	// read sees the latest preceding write in execution order.
	c := computation.New(1)
	w1 := c.AddNode(computation.W(0))
	r1 := c.AddNode(computation.R(0))
	w2 := c.AddNode(computation.W(0))
	r2 := c.AddNode(computation.R(0))
	c.MustAddEdge(w1, r1)
	c.MustAddEdge(r1, w2)
	c.MustAddEdge(w2, r2)
	s, err := sched.ListSchedule(c, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.ReadObserved[r1] != w1 || res.ReadObserved[r2] != w2 {
		t.Fatalf("observed %v", res.ReadObserved)
	}
	if res.Stats.CrossEdges != 0 || res.Stats.Flushes != 0 {
		t.Fatalf("sequential run should not cross or flush: %+v", res.Stats)
	}
	if !checker.VerifySC(context.Background(), res.Trace, checker.SearchOptions{}).Verdict.In() {
		t.Fatal("sequential BACKER trace must even be SC")
	}
}

func TestUninitializedReadObservesBottom(t *testing.T) {
	c := computation.New(1)
	r := c.AddNode(computation.R(0))
	s, err := sched.ListSchedule(c, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.ReadObserved[r] != observer.Bottom {
		t.Fatal("read of fresh memory must observe ⊥")
	}
	if res.Trace.ReadVal[r] != trace.Undefined {
		t.Fatal("trace value must be Undefined")
	}
}

func TestCrossingEdgeMakesWriteVisible(t *testing.T) {
	// Writer on one branch, reader after a crossing edge: the reconcile
	// + flush must deliver the write.
	c := computation.New(1)
	w := c.AddNode(computation.W(0))
	r := c.AddNode(computation.R(0))
	c.MustAddEdge(w, r)
	// Force the two nodes onto different processors via a hand-built
	// schedule.
	s := &sched.Schedule{
		Comp:     c,
		P:        2,
		Proc:     []int{0, 1},
		Start:    []sched.Tick{0, 1},
		Finish:   []sched.Tick{1, 2},
		Order:    []dag.Node{w, r},
		Makespan: 2,
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	res, err := Run(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.ReadObserved[r] != w {
		t.Fatalf("read observed %v, want the write", res.ReadObserved[r])
	}
	if res.Stats.CrossEdges != 1 || res.Stats.Reconciles != 1 || res.Stats.Flushes != 1 {
		t.Fatalf("protocol stats: %+v", res.Stats)
	}
}

func TestFaultInjectionLosesWrite(t *testing.T) {
	// Same crossing pattern, but the protocol skips everything: the
	// reader misses in its (unflushed but empty) cache... make it
	// non-trivial: reader has a stale cached copy from before.
	c := computation.New(1)
	r0 := c.AddNode(computation.R(0)) // reader proc caches ⊥
	w := c.AddNode(computation.W(0))
	r := c.AddNode(computation.R(0))
	c.MustAddEdge(r0, r)
	c.MustAddEdge(w, r)
	s := &sched.Schedule{
		Comp:     c,
		P:        2,
		Proc:     []int{1, 0, 1},
		Start:    []sched.Tick{0, 0, 2},
		Finish:   []sched.Tick{1, 1, 3},
		Order:    []dag.Node{r0, w, r},
		Makespan: 3,
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// Healthy protocol: r sees w.
	res, err := Run(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.ReadObserved[r] != w {
		t.Fatalf("healthy run observed %v", res.ReadObserved[r])
	}
	if !checker.VerifyLC(context.Background(), res.Trace, checker.SearchOptions{}).Verdict.In() {
		t.Fatal("healthy trace must be LC")
	}
	// Broken protocol (flush skipped): r reads its stale ⊥ copy, which
	// violates LC because the write precedes the read.
	faults := &Faults{SkipFlush: 1.0, Rng: rand.New(rand.NewSource(1))}
	bad, err := Run(s, faults)
	if err != nil {
		t.Fatal(err)
	}
	if bad.ReadObserved[r] != observer.Bottom {
		t.Fatalf("faulty run observed %v, want stale ⊥", bad.ReadObserved[r])
	}
	if checker.VerifyLC(context.Background(), bad.Trace, checker.SearchOptions{}).Verdict.In() {
		t.Fatal("checker must catch the lost write")
	}
}

// E8: BACKER maintains location consistency ([Luc97]) — every trace
// from random computations under random work-stealing schedules
// verifies under LC.
func TestBackerMaintainsLC(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 200; trial++ {
		c := randomMemComputation(rng, 2+rng.Intn(18), 1+rng.Intn(2))
		P := 1 + rng.Intn(4)
		res, err := RunWorkStealing(c, P, rng, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Trace.Validate(); err != nil {
			t.Fatal(err)
		}
		if !checker.VerifyLC(context.Background(), res.Trace, checker.SearchOptions{}).Verdict.In() {
			t.Fatalf("BACKER violated LC on %v (P=%d, schedule %v)", c, P, res.Schedule.Order)
		}
	}
}

// BACKER is weaker than SC: running the Dekker computation with one
// branch per processor produces the classic both-reads-⊥ outcome, which
// is location consistent but not sequentially consistent.
func TestBackerNotSC(t *testing.T) {
	c := computation.New(2)
	w1 := c.AddNode(computation.W(0))
	r1 := c.AddNode(computation.R(1))
	w2 := c.AddNode(computation.W(1))
	r2 := c.AddNode(computation.R(0))
	c.MustAddEdge(w1, r1)
	c.MustAddEdge(w2, r2)
	s := &sched.Schedule{
		Comp:     c,
		P:        2,
		Proc:     []int{0, 0, 1, 1},
		Start:    []sched.Tick{0, 1, 0, 1},
		Finish:   []sched.Tick{1, 2, 1, 2},
		Order:    []dag.Node{w1, w2, r1, r2},
		Makespan: 2,
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	res, err := Run(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Neither write was reconciled (no crossing edges), so both reads
	// miss and observe ⊥.
	if res.ReadObserved[r1] != observer.Bottom || res.ReadObserved[r2] != observer.Bottom {
		t.Fatalf("observed %v, want both ⊥", res.ReadObserved)
	}
	if checker.VerifySC(context.Background(), res.Trace, checker.SearchOptions{}).Verdict.In() {
		t.Fatal("Dekker BACKER trace must not be SC")
	}
	if !checker.VerifyLC(context.Background(), res.Trace, checker.SearchOptions{}).Verdict.In() {
		t.Fatal("Dekker BACKER trace must be LC")
	}
}

// Property: with aggressive fault injection the checker flags at least
// some executions, and healthy runs always pass — i.e. the checker's
// verdict tracks protocol health.
func TestQuickFaultsAreDetectable(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := randomMemComputation(rng, 14, 1)
		s, err := sched.WorkStealing(c, 3, nil, rng)
		if err != nil {
			return false
		}
		res, err := Run(s, nil)
		if err != nil {
			return false
		}
		if !checker.VerifyLC(context.Background(), res.Trace, checker.SearchOptions{}).Verdict.In() {
			return false // healthy run must always verify
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}

	// Aggregate detection rate under faults: must be nonzero.
	rng := rand.New(rand.NewSource(123))
	detected := 0
	for trial := 0; trial < 150; trial++ {
		c := randomMemComputation(rng, 14, 1)
		s, err := sched.WorkStealing(c, 3, nil, rng)
		if err != nil {
			t.Fatal(err)
		}
		faults := &Faults{SkipFlush: 0.8, SkipReconcile: 0.8, Rng: rng}
		res, err := Run(s, faults)
		if err != nil {
			t.Fatal(err)
		}
		if !checker.VerifyLC(context.Background(), res.Trace, checker.SearchOptions{}).Verdict.In() {
			detected++
		}
	}
	if detected == 0 {
		t.Fatal("fault injection never produced a detectable violation")
	}
}

func TestRunRejectsInvalidSchedule(t *testing.T) {
	c := computation.New(1)
	c.AddNode(computation.W(0))
	bad := &sched.Schedule{Comp: c, P: 1}
	if res, err := Run(bad, nil); err == nil || res != nil {
		t.Fatalf("invalid schedule accepted (res %v, err %v)", res, err)
	}
	if res, err := Run(nil, nil); err == nil || res != nil {
		t.Fatalf("nil schedule accepted (res %v, err %v)", res, err)
	}
}

func TestStatsAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	c := randomMemComputation(rng, 20, 2)
	res, err := RunWorkStealing(c, 4, rng, nil)
	if err != nil {
		t.Fatal(err)
	}
	reads, writes := 0, 0
	for u := 0; u < c.NumNodes(); u++ {
		switch c.Op(dag.Node(u)).Kind {
		case computation.Read:
			reads++
		case computation.Write:
			writes++
		}
	}
	if res.Stats.Hits+res.Stats.Fetches != reads {
		t.Fatalf("hits %d + fetches %d != reads %d", res.Stats.Hits, res.Stats.Fetches, reads)
	}
	if res.Stats.Writes != writes {
		t.Fatalf("writes %d != %d", res.Stats.Writes, writes)
	}
	if len(res.ReadObserved) != reads {
		t.Fatalf("observed %d of %d reads", len(res.ReadObserved), reads)
	}
}
