package cilk

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/backer"
	"repro/internal/checker"
	"repro/internal/computation"
	"repro/internal/dag"
	"repro/internal/memmodel"
	"repro/internal/observer"
	"repro/internal/trace"
)

func TestStraightLineProgram(t *testing.T) {
	p := New(1, func(th *Thread) {
		th.Write(0, Const(7))
		th.Read(0)
	})
	c := p.Computation()
	if c.NumNodes() != 2 || !c.Dag().HasEdge(0, 1) {
		t.Fatalf("program shape: %v", c)
	}
	res, err := Execute(p, 1, rand.New(rand.NewSource(1)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.ReadVal[1] != 7 {
		t.Fatalf("read %v, want 7", res.ReadVal[1])
	}
}

func TestSpawnSyncShape(t *testing.T) {
	var w1, w2, j dag.Node
	p := New(2, func(th *Thread) {
		th.Noop()
		th.Spawn(func(c *Thread) { w1 = c.Write(0, Const(1)) })
		th.Spawn(func(c *Thread) { w2 = c.Write(1, Const(2)) })
		j = th.Sync()
	})
	c := p.Computation()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	cl := c.Closure()
	// Both writes are between the anchor and the join, parallel to each
	// other.
	if !cl.Precedes(w1, j) || !cl.Precedes(w2, j) {
		t.Fatal("children must precede the sync")
	}
	if cl.Comparable(w1, w2) {
		t.Fatal("siblings must be parallel")
	}
	if len(c.Dag().Sources()) != 1 {
		t.Fatalf("sources = %v", c.Dag().Sources())
	}
}

func TestNestedSpawnPassesChildrenUp(t *testing.T) {
	var deep dag.Node
	p := New(1, func(th *Thread) {
		th.Noop()
		th.Spawn(func(c *Thread) {
			c.Noop()
			c.Spawn(func(g *Thread) { deep = g.Write(0, Const(3)) })
			// no sync in the child: the grandchild joins at the parent's sync
		})
		th.Sync()
	})
	c := p.Computation()
	cl := c.Closure()
	join := dag.Node(c.NumNodes() - 1)
	if !cl.Precedes(deep, join) {
		t.Fatal("unsynced grandchild must join at the ancestor's sync")
	}
}

func TestEnvUnreadPanics(t *testing.T) {
	p := New(1, func(th *Thread) {
		th.Write(0, func(env *Env) trace.Value {
			return env.Value(99) // never read
		})
	})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	_, _ = Execute(p, 1, rand.New(rand.NewSource(1)), nil)
}

// Fib builds the canonical divide-and-conquer program: every task
// writes its result to a fresh cell exactly once; parents sync and sum
// their children's cells.
func Fib(n int) (*Program, computation.Loc) {
	var out computation.Loc
	var build func(t *Thread, res computation.Loc, k int)
	build = func(t *Thread, res computation.Loc, k int) {
		if k < 2 {
			t.Write(res, Const(trace.Value(k)))
			return
		}
		l1 := t.AllocLoc()
		l2 := t.AllocLoc()
		t.Spawn(func(c *Thread) { build(c, l1, k-1) })
		t.Spawn(func(c *Thread) { build(c, l2, k-2) })
		t.Sync()
		r1 := t.Read(l1)
		r2 := t.Read(l2)
		t.Write(res, func(env *Env) trace.Value {
			return env.Value(r1) + env.Value(r2)
		})
	}
	p := New(0, func(t *Thread) {
		out = t.AllocLoc()
		build(t, out, n)
	})
	return p, out
}

func fibValue(n int) trace.Value {
	a, b := trace.Value(0), trace.Value(1)
	for i := 0; i < n; i++ {
		a, b = b, a+b
	}
	return a
}

// The paper's end-to-end story: a Cilk-style program on the BACKER
// machine computes correctly on any processor count, because BACKER
// maintains LC and the program is single-assignment with syncs — and
// the produced trace verifies as location consistent.
func TestFibCorrectOnBacker(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, n := range []int{0, 1, 2, 5, 10} {
		p, out := Fib(n)
		for _, P := range []int{1, 2, 4, 8} {
			res, err := Execute(p, P, rng, nil)
			if err != nil {
				t.Fatal(err)
			}
			// The program's final write to `out` is the root task's.
			var got trace.Value
			found := false
			c := p.Computation()
			for u := 0; u < c.NumNodes(); u++ {
				if c.Op(dag.Node(u)).IsWriteTo(out) {
					got = res.WriteVal[dag.Node(u)]
					found = true
				}
			}
			if !found {
				t.Fatalf("fib(%d): no write to the result cell", n)
			}
			if got != fibValue(n) {
				t.Fatalf("fib(%d) on P=%d = %v, want %v", n, P, got, fibValue(n))
			}
			if !checker.VerifyLC(context.Background(), res.Backer.Trace, checker.SearchOptions{}).Verdict.In() {
				t.Fatalf("fib(%d) trace not LC", n)
			}
		}
	}
}

// Under heavy protocol faults the program computes garbage on some run,
// and the post-mortem checker flags those runs.
func TestFibBreaksWithoutCoherence(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	p, out := Fib(9)
	want := fibValue(9)
	wrong, flagged := 0, 0
	const trials = 60
	for i := 0; i < trials; i++ {
		faults := &backer.Faults{SkipReconcile: 0.9, SkipFlush: 0.9, Rng: rng}
		res, err := Execute(p, 4, rng, faults)
		if err != nil {
			t.Fatal(err)
		}
		c := p.Computation()
		for u := 0; u < c.NumNodes(); u++ {
			if c.Op(dag.Node(u)).IsWriteTo(out) {
				if res.WriteVal[dag.Node(u)] != want {
					wrong++
				}
			}
		}
		if !checker.VerifyLC(context.Background(), res.Backer.Trace, checker.SearchOptions{}).Verdict.In() {
			flagged++
		}
	}
	if wrong == 0 {
		t.Fatal("faulty protocol never broke the program; the fault injection looks inert")
	}
	if flagged == 0 {
		t.Fatal("checker never flagged a faulty run")
	}
	t.Logf("faults: %d/%d wrong results, %d/%d runs flagged as LC violations", wrong, trials, flagged, trials)
}

// Property: random fork/join programs unfold into valid computations
// with a single source, and execution at P=1 is deterministic (same
// seed, same values).
func TestQuickRandomProgramsWellFormed(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var build func(t *Thread, depth int)
		build = func(th *Thread, depth int) {
			ops := 1 + rng.Intn(3)
			for i := 0; i < ops; i++ {
				l := computation.Loc(rng.Intn(2))
				switch rng.Intn(3) {
				case 0:
					th.Write(l, Const(trace.Value(rng.Intn(10))))
				case 1:
					th.Read(l)
				default:
					th.Noop()
				}
			}
			if depth > 0 {
				kids := 1 + rng.Intn(2)
				for i := 0; i < kids; i++ {
					build2 := func(c *Thread) { build(c, depth-1) }
					th.Spawn(build2)
				}
				th.Sync()
				if rng.Intn(2) == 0 {
					th.Read(computation.Loc(rng.Intn(2)))
				}
			}
		}
		p := New(2, func(th *Thread) {
			th.Noop()
			build(th, 2)
		})
		c := p.Computation()
		if c.Validate() != nil {
			return false
		}
		if len(c.Dag().Sources()) != 1 {
			return false
		}
		// Deterministic at P=1 with a fixed execution seed.
		r1, err1 := Execute(p, 1, rand.New(rand.NewSource(1)), nil)
		r2, err2 := Execute(p, 1, rand.New(rand.NewSource(1)), nil)
		if err1 != nil || err2 != nil {
			return false
		}
		for u, v := range r1.WriteVal {
			if r2.WriteVal[u] != v {
				return false
			}
		}
		// And LC-consistent on every processor count.
		res, err := Execute(p, 1+rng.Intn(4), rand.New(rand.NewSource(seed)), nil)
		if err != nil {
			return false
		}
		return checker.VerifyLC(context.Background(), res.Backer.Trace, checker.SearchOptions{}).Verdict.In()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// The unfolded fib computation is in the universe of valid
// computations: it validates, has one source, and its observer from
// the BACKER run is a valid observer function in LC.
func TestFibObserverInLC(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p, _ := Fib(6)
	res, err := Execute(p, 4, rng, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := p.Computation()
	// Reconstruct the full observer from the backer result rows is not
	// exposed; instead verify via the trace-level checker and via
	// memmodel on the read-pinned completion.
	v := checker.VerifyLC(context.Background(), res.Backer.Trace, checker.SearchOptions{})
	if !v.Verdict.In() {
		t.Fatal("fib trace not LC")
	}
	if err := v.Observer.Validate(c); err != nil {
		t.Fatal(err)
	}
	if !memmodel.LC.Contains(c, v.Observer) {
		t.Fatal("witness observer not in LC")
	}
	_ = observer.Bottom
}
