package search_test

import (
	"context"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/checker"
	"repro/internal/computation"
	"repro/internal/dag"
	"repro/internal/search"
	"repro/internal/trace"
)

// Governance tests: the engine must honour deadlines, cancellation,
// state budgets, and memo caps without ever changing a definitive
// answer — a governed run either returns the same In/Out verdict as an
// ungoverned one, or a typed Inconclusive.
//
// The workloads are randomized checker instances (reads with several
// candidate writers force deep memoized backtracking; the singleton
// candidate sets of SC membership instances are statically pruned and
// never get hard). The seeds below are pinned empirically:
//
//	govTrace(11, 30, 8, 0.08, 2, 3, 3)  — undecided after 1e7 states (minutes of work)
//	govTrace(17, 14, 6, 0.10, 2, 2, 3)  — UNSAT, exhausts in ~5e4 states
//	govTrace(16, 14, 6, 0.10, 2, 2, 3)  — UNSAT, ~3e3 states, ~50KB of memo
//	govTrace(27, 14, 6, 0.10, 2, 2, 3)  — SAT, ~4e3 states, ~100KB of memo
//	govTrace(31, 14, 6, 0.10, 2, 2, 3)  — SAT, witness after ~2e5 states (tens of ms)
//
// Capping the memo is exact but not free: dropped entries mean
// re-exploration, and a tight cap on a memo-hungry instance blows the
// state count up by orders of magnitude. The differential instances
// are small ones whose capped blowup stays in the 1e5-state range.
func govTrace(seed int64, layers, width int, p float64, locs, vals, wprob int) *trace.Trace {
	rng := rand.New(rand.NewSource(seed))
	g := dag.RandomLayered(rng, layers, width, p)
	n := g.NumNodes()
	ops := make([]computation.Op, n)
	for i := range ops {
		l := computation.Loc(rng.Intn(locs))
		if rng.Intn(wprob) == 0 {
			ops[i] = computation.W(l)
		} else {
			ops[i] = computation.R(l)
		}
	}
	c := computation.MustFrom(g, ops, locs)
	tr := trace.New(c)
	for u := 0; u < n; u++ {
		switch c.Op(dag.Node(u)).Kind {
		case computation.Write:
			tr.WriteVal[u] = trace.Value(rng.Intn(vals) + 1)
		case computation.Read:
			tr.ReadVal[u] = trace.Value(rng.Intn(vals) + 1)
		}
	}
	return tr
}

// traceSpec compiles the trace's SC constraint system into an engine
// Spec directly (mirroring the checker's internal construction), so
// the tests can assert on raw engine Results: Order, Stop, memo stats.
func traceSpec(tr *trace.Trace) search.Spec {
	c := tr.Comp
	n := c.NumNodes()
	cands := make([][]dag.Node, c.NumLocs()*n)
	constrained := make([]bool, c.NumLocs()*n)
	for u := 0; u < n; u++ {
		op := c.Op(dag.Node(u))
		if op.Kind != computation.Read {
			continue
		}
		idx := int(op.Loc)*n + u
		cands[idx] = tr.Candidates(dag.Node(u))
		constrained[idx] = true
	}
	return search.Spec{
		Dag:      c.Dag(),
		Closure:  c.Closure(),
		NumSlots: c.NumLocs(),
		WriteSlot: func(u dag.Node) int {
			if op := c.Op(u); op.Kind == computation.Write {
				return int(op.Loc)
			}
			return -1
		},
		Allowed: func(s int, u dag.Node) ([]dag.Node, bool) {
			idx := s*n + int(u)
			return cands[idx], constrained[idx]
		},
	}
}

// checkWitness replays the order against the trace: every read's last
// writer at its location must be one of the read's candidates.
func checkWitness(t *testing.T, tr *trace.Trace, order []dag.Node) {
	t.Helper()
	c := tr.Comp
	if len(order) != c.NumNodes() {
		t.Fatalf("witness has %d nodes, want %d", len(order), c.NumNodes())
	}
	last := make([]dag.Node, c.NumLocs())
	for i := range last {
		last[i] = dag.None
	}
	for _, u := range order {
		op := c.Op(u)
		if op.Kind == computation.Read {
			ok := false
			for _, w := range tr.Candidates(u) {
				if w == last[op.Loc] {
					ok = true
					break
				}
			}
			if !ok {
				t.Fatalf("witness invalid: read %d sees writer %d, not a candidate", u, last[op.Loc])
			}
		}
		if op.Kind == computation.Write {
			last[op.Loc] = u
		}
	}
}

// waitGoroutines polls until the goroutine count settles back to at
// most base+slack, failing the test if it never does — the leak check
// of the acceptance criterion.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= base+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d goroutines, baseline %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestDeadlineInconclusive interrupts a multi-minute search after
// 200ms: the engine must return promptly (well under 2x the deadline
// plus setup), report a typed deadline verdict, and leak no goroutines.
func TestDeadlineInconclusive(t *testing.T) {
	tr := govTrace(11, 30, 8, 0.08, 2, 3, 3)
	spec := traceSpec(tr)
	base := runtime.NumGoroutine()

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	res := search.RunContext(ctx, spec, search.Options{Workers: 4})
	elapsed := time.Since(start)

	if res.Found || res.Exhausted {
		t.Fatalf("deadline run must be non-exhaustive without a witness: %+v", res)
	}
	if res.Stop != search.StopDeadline {
		t.Fatalf("Stop = %v, want %v", res.Stop, search.StopDeadline)
	}
	v := res.Verdict()
	if !v.Inconclusive() || v.Reason != search.StopDeadline {
		t.Fatalf("verdict = %v, want inconclusive(deadline)", v)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("deadline overshoot: ran %v against a 200ms deadline", elapsed)
	}
	waitGoroutines(t, base)
}

// TestCheckerDeadline is the same property one layer up, through
// checker.VerifySC — where the hard instances actually come from.
func TestCheckerDeadline(t *testing.T) {
	tr := govTrace(11, 30, 8, 0.08, 2, 3, 3)
	base := runtime.NumGoroutine()

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	verdict := checker.VerifySC(ctx, tr, checker.SearchOptions{Workers: 4}).Verdict
	elapsed := time.Since(start)

	if !verdict.Inconclusive() || verdict.Reason != search.StopDeadline {
		t.Fatalf("verdict = %v, want inconclusive(deadline)", verdict)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("deadline overshoot: ran %v against a 100ms deadline", elapsed)
	}
	waitGoroutines(t, base)
}

// TestAlreadyCancelled: a context cancelled before the call must not
// start the search at all.
func TestAlreadyCancelled(t *testing.T) {
	tr := govTrace(17, 14, 6, 0.10, 2, 2, 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		res := search.RunContext(ctx, traceSpec(tr), search.Options{Workers: workers})
		if res.Found || res.Exhausted || res.Stop != search.StopCancel {
			t.Fatalf("workers=%d: pre-cancelled run = %+v, want cancel stop", workers, res)
		}
		if res.Stats.States != 0 {
			t.Fatalf("workers=%d: pre-cancelled run expanded %d states", workers, res.Stats.States)
		}
		if v := res.Verdict(); !v.Inconclusive() || v.Reason != search.StopCancel {
			t.Fatalf("workers=%d: verdict = %v, want inconclusive(cancelled)", workers, v)
		}
	}
}

// TestBudgetSerialParallelAgree: on an UNSAT instance a budget far
// below the exhaustion cost must yield inconclusive from both the
// serial and the parallel engine — neither may claim Out.
func TestBudgetSerialParallelAgree(t *testing.T) {
	tr := govTrace(17, 14, 6, 0.10, 2, 2, 3)
	spec := traceSpec(tr)
	for _, workers := range []int{1, 4} {
		res := search.Run(spec, search.Options{Workers: workers, Budget: 1000})
		if res.Found {
			t.Fatalf("workers=%d: UNSAT instance reported a witness", workers)
		}
		if res.Exhausted {
			t.Fatalf("workers=%d: budget 1000 cannot be exhaustive (needs ~5e4 states)", workers)
		}
		if res.Stop != search.StopBudget {
			t.Fatalf("workers=%d: Stop = %v, want %v", workers, res.Stop, search.StopBudget)
		}
		if v := res.Verdict(); !v.Inconclusive() || v.Reason != search.StopBudget {
			t.Fatalf("workers=%d: verdict = %v, want inconclusive(budget)", workers, v)
		}
	}
}

// TestWitnessSurvivesConcurrentCancel races a cancellation against a
// satisfiable search: whatever the interleaving, the verdict is either
// In (with a valid witness) or Inconclusive — never Out.
func TestWitnessSurvivesConcurrentCancel(t *testing.T) {
	tr := govTrace(31, 14, 6, 0.10, 2, 2, 3)
	spec := traceSpec(tr)
	var sawFound, sawCancelled bool
	for i := 0; i < 24; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		// Sweep cancellation through the search's lifetime; the last
		// iterations never cancel, guaranteeing witnesses.
		if i < 20 {
			delay := time.Duration(i) * 2 * time.Millisecond
			go func() {
				time.Sleep(delay)
				cancel()
			}()
		}
		res := search.RunContext(ctx, spec, search.Options{Workers: 4})
		cancel()
		v := res.Verdict()
		switch {
		case v.Out():
			t.Fatalf("iteration %d: cancel turned a satisfiable instance into Out: %+v", i, res)
		case v.In():
			sawFound = true
			checkWitness(t, tr, res.Order)
		default:
			sawCancelled = true
			if v.Reason != search.StopCancel {
				t.Fatalf("iteration %d: inconclusive reason = %v, want cancelled", i, v.Reason)
			}
		}
	}
	// The delay sweep spans well past the uncancelled runtime, so both
	// outcomes must occur; if not, the sweep isn't exercising the race.
	if !sawFound {
		t.Error("cancel sweep never completed with a witness; widen the delay range")
	}
	if !sawCancelled {
		t.Log("cancel sweep never observed a cancellation (machine too fast?); race still exercised")
	}
}

// TestMemoCapDifferential: capping memo memory must not change the
// answer — same Found, same Order (the serial engine is deterministic
// and the parallel lowest-root rule restores determinism), same
// Exhausted — only the work and the spill stats.
func TestMemoCapDifferential(t *testing.T) {
	for _, tc := range []struct {
		name    string
		seed    int64
		sat     bool
		memoCap int64
	}{
		{"unsat", 16, false, 25 << 10},
		{"sat", 27, true, 32 << 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := govTrace(tc.seed, 14, 6, 0.10, 2, 2, 3)
			spec := traceSpec(tr)
			full := search.Run(spec, search.Options{Workers: 1})
			if full.Found != tc.sat || !full.Exhausted {
				t.Fatalf("uncapped baseline drifted: %+v", full)
			}
			if full.Stats.MemoSpilled != 0 {
				t.Fatalf("uncapped run spilled %d memo inserts", full.Stats.MemoSpilled)
			}
			if full.Stats.MemoBytes <= tc.memoCap {
				t.Fatalf("baseline memo table (%d bytes) does not exceed the %d-byte cap; instance too small", full.Stats.MemoBytes, tc.memoCap)
			}
			for _, workers := range []int{1, 4} {
				capped := search.Run(spec, search.Options{Workers: workers, MaxMemoBytes: tc.memoCap})
				if capped.Found != full.Found || !capped.Exhausted {
					t.Fatalf("workers=%d: memo cap changed the answer: capped %+v, full Found=%v", workers, capped, full.Found)
				}
				if capped.Found {
					if len(capped.Order) != len(full.Order) {
						t.Fatalf("workers=%d: witness length changed under cap", workers)
					}
					for j := range full.Order {
						if capped.Order[j] != full.Order[j] {
							t.Fatalf("workers=%d: memo cap changed the witness at position %d: %d vs %d", workers, j, capped.Order[j], full.Order[j])
						}
					}
					checkWitness(t, tr, capped.Order)
				}
				if capped.Stats.MemoBytes > tc.memoCap {
					t.Fatalf("workers=%d: memo tables use %d bytes, cap is %d", workers, capped.Stats.MemoBytes, tc.memoCap)
				}
				if capped.Stats.MemoSpilled == 0 {
					t.Fatalf("workers=%d: cap did not bind (no spills); baseline used %d bytes", workers, full.Stats.MemoBytes)
				}
				// Frozen tables reject fewer states, never more — a
				// like-for-like claim only for the serial engine
				// (parallel splitting reshuffles the explored set).
				if workers == 1 && capped.Stats.States < full.Stats.States {
					t.Fatalf("capped serial run expanded fewer states (%d) than uncapped (%d)", capped.Stats.States, full.Stats.States)
				}
			}
		})
	}
}
