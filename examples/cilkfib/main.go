// Cilkfib: the end-to-end story of the paper's introduction. A
// fork/join (Cilk-style) divide-and-conquer program unfolds into a
// computation, runs on a simulated multiprocessor under randomized
// work stealing with the BACKER coherence protocol, and computes the
// right answer on every processor count — because BACKER maintains
// location consistency and the program writes each result cell once
// before syncing on it. Disable the coherence protocol and the program
// computes garbage, which the post-mortem checker flags.
//
// Run with: go run ./examples/cilkfib
package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"

	"repro/internal/backer"
	"repro/internal/checker"
	"repro/internal/cilk"
	"repro/internal/computation"
	"repro/internal/dag"
	"repro/internal/sched"
	"repro/internal/trace"
)

// fib builds the canonical program: each task allocates cells for its
// children, spawns them, syncs, and writes the sum of their results.
func fib(n int) (*cilk.Program, computation.Loc) {
	var out computation.Loc
	var build func(t *cilk.Thread, res computation.Loc, k int)
	build = func(t *cilk.Thread, res computation.Loc, k int) {
		if k < 2 {
			t.Write(res, cilk.Const(trace.Value(k)))
			return
		}
		l1, l2 := t.AllocLoc(), t.AllocLoc()
		t.Spawn(func(c *cilk.Thread) { build(c, l1, k-1) })
		t.Spawn(func(c *cilk.Thread) { build(c, l2, k-2) })
		t.Sync()
		r1, r2 := t.Read(l1), t.Read(l2)
		t.Write(res, func(env *cilk.Env) trace.Value {
			return env.Value(r1) + env.Value(r2)
		})
	}
	p := cilk.New(0, func(t *cilk.Thread) {
		out = t.AllocLoc()
		build(t, out, n)
	})
	return p, out
}

func result(p *cilk.Program, out computation.Loc, res *cilk.Result) trace.Value {
	c := p.Computation()
	var v trace.Value
	for u := 0; u < c.NumNodes(); u++ {
		if c.Op(dag.Node(u)).IsWriteTo(out) {
			v = res.WriteVal[dag.Node(u)]
		}
	}
	return v
}

func main() {
	const n = 12
	rng := rand.New(rand.NewSource(99))
	p, out := fib(n)
	c := p.Computation()
	fmt.Printf("fib(%d) unfolds into %d nodes over %d locations (T1=%d, T∞=%d)\n",
		n, c.NumNodes(), c.NumLocs(), sched.Work(c, nil), sched.Span(c, nil))

	fmt.Println("\nwith BACKER coherence:")
	for _, P := range []int{1, 2, 4, 8, 16} {
		res, err := cilk.Execute(p, P, rng, nil)
		check(err)
		lc := checker.VerifyLC(context.Background(), res.Backer.Trace, checker.SearchOptions{}).Verdict.In()
		fmt.Printf("  P=%-2d makespan=%-5d steals=%-4d fib=%-6v LC=%v\n",
			P, res.Schedule.Makespan, res.Schedule.Steals, result(p, out, res), lc)
	}

	fmt.Println("\nwith the coherence protocol sabotaged (90% of steps skipped):")
	for trial := 0; trial < 5; trial++ {
		faults := &backer.Faults{SkipReconcile: 0.9, SkipFlush: 0.9, Rng: rng}
		res, err := cilk.Execute(p, 8, rng, faults)
		check(err)
		lc := checker.VerifyLC(context.Background(), res.Backer.Trace, checker.SearchOptions{}).Verdict.In()
		fmt.Printf("  trial %d: fib=%-8v LC=%v\n", trial+1, result(p, out, res), lc)
	}
	fmt.Printf("\n(correct answer: %d — the checker flags exactly the broken runs)\n", fibIter(n))
}

func fibIter(n int) trace.Value {
	a, b := trace.Value(0), trace.Value(1)
	for i := 0; i < n; i++ {
		a, b = b, a+b
	}
	return a
}

// check aborts the example on a simulator error (invalid parameters).
func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "cilkfib:", err)
		os.Exit(1)
	}
}
