package chaos

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"repro/internal/checker"
	"repro/internal/cilk"
	"repro/internal/computation"
	"repro/internal/dag"
	"repro/internal/sched"
	"repro/internal/trace"
)

// litmusSchedule builds the stale-read litmus (A: R(x) and C: R(x) on
// p0, B: W(x) on p1, edges A->C and B->C) list-scheduled on 2
// processors: one crossing edge, B -> C, node ids A=0 B=1 C=2.
func litmusSchedule(t *testing.T) *sched.Schedule {
	t.Helper()
	named, err := computation.ParseString(
		"locs x\nnode A R(x)\nnode B W(x)\nnode C R(x)\nedge A C\nedge B C\n")
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.ListSchedule(named.Comp, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Proc[1] == s.Proc[2] {
		t.Fatal("litmus lost its crossing edge; list scheduling changed")
	}
	return s
}

func verifyLC(t *testing.T, tr *trace.Trace) checker.Verdict {
	t.Helper()
	v := checker.VerifyLC(context.Background(), tr, checker.SearchOptions{}).Verdict
	if v.Inconclusive() {
		t.Fatalf("ungoverned LC verification came back inconclusive")
	}
	return v
}

func TestPlanCodecRoundTrip(t *testing.T) {
	p := NewPlan(
		Event{Kind: SkipReconcile, Src: 1, Dst: 2},
		Event{Kind: DelayReconcile, Src: 3, Dst: 7},
		Event{Kind: SkipFlush, Dst: 2},
		Event{Kind: CrashCache, Proc: 1, Tick: 5},
		Event{Kind: CorruptRead, Dst: 4},
	)
	var b bytes.Buffer
	if err := Format(&b, p); err != nil {
		t.Fatal(err)
	}
	q, err := Parse(&b)
	if err != nil {
		t.Fatalf("re-parse failed: %v\nformatted:\n%s", err, p)
	}
	if !p.Equal(q) {
		t.Fatalf("roundtrip changed the plan:\n%s\n->\n%s", p, q)
	}
}

func TestPlanCodecCommentsAndOrder(t *testing.T) {
	p, err := ParseString(`
# a full-line comment
skip-flush 2      # trailing comment
crash-cache 0 3
skip-reconcile 1 2
`)
	if err != nil {
		t.Fatal(err)
	}
	want := NewPlan(
		Event{Kind: SkipFlush, Dst: 2},
		Event{Kind: CrashCache, Proc: 0, Tick: 3},
		Event{Kind: SkipReconcile, Src: 1, Dst: 2},
	)
	if !p.Equal(want) {
		t.Fatalf("parsed plan:\n%s\nwant:\n%s", p, want)
	}
}

func TestPlanCodecErrors(t *testing.T) {
	for _, bad := range []string{
		"frobnicate 1 2",   // unknown kind
		"skip-reconcile 1", // missing arg
		"skip-flush",       // missing arg
		"skip-flush 1 2",   // extra arg
		"corrupt-read x",   // non-numeric node
		"crash-cache -1 0", // negative proc
		"crash-cache 0 -1", // negative tick
		"skip-reconcile 1 2 3",
	} {
		if _, err := ParseString(bad); err == nil {
			t.Errorf("ParseString(%q) accepted malformed input", bad)
		}
	}
}

func TestRunRejectsUnfireablePlan(t *testing.T) {
	s := litmusSchedule(t)
	for _, p := range []*Plan{
		NewPlan(Event{Kind: SkipReconcile, Src: 0, Dst: 2}), // edge exists, same proc
		NewPlan(Event{Kind: SkipReconcile, Src: 0, Dst: 1}), // no such edge
		NewPlan(Event{Kind: SkipFlush, Dst: 99}),            // node out of range
		NewPlan(Event{Kind: CrashCache, Proc: 5, Tick: 0}),  // proc out of range
	} {
		if _, _, err := Run(s, p); err == nil {
			t.Errorf("Run accepted unfireable plan:\n%s", p)
		}
	}
}

func TestEventsFireAtMostOnce(t *testing.T) {
	s := litmusSchedule(t)
	p := NewPlan(
		Event{Kind: SkipReconcile, Src: 1, Dst: 2},
		Event{Kind: CrashCache, Proc: 0, Tick: 0},
	)
	res, inj, err := Run(s, p)
	if err != nil {
		t.Fatal(err)
	}
	if !inj.AllFired() {
		t.Fatalf("expected every event to fire; fired = %v", inj.Fired())
	}
	if res.Stats.SkippedReconciles != 1 || res.Stats.Crashes != 1 {
		t.Fatalf("stats = %+v, want exactly one skip and one crash", res.Stats)
	}
}

// TestHealthyPlanIsLC pins the baseline: the empty plan reproduces a
// healthy BACKER run, and the litmus trace is location consistent.
func TestHealthyPlanIsLC(t *testing.T) {
	s := litmusSchedule(t)
	res, _, err := Run(s, NewPlan())
	if err != nil {
		t.Fatal(err)
	}
	if !verifyLC(t, res.Trace).In() {
		t.Fatalf("healthy litmus run violates LC: %v", res.Trace)
	}
}

// TestExploreLitmus is the acceptance sweep: depth-1 exploration of the
// stale-read litmus finds a violation for every fault kind that can
// target its crossing edge.
func TestExploreLitmus(t *testing.T) {
	s := litmusSchedule(t)
	rep, err := Explore(context.Background(), s, Options{Depth: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Explored != rep.Planned {
		t.Fatalf("explored %d of %d planned", rep.Explored, rep.Planned)
	}
	wantKinds := map[Kind]bool{SkipReconcile: false, DelayReconcile: false, SkipFlush: false, CorruptRead: false}
	for _, v := range rep.Violations {
		if v.Plan.Len() != 1 {
			t.Fatalf("depth-1 sweep produced a %d-event plan", v.Plan.Len())
		}
		e := v.Plan.Events[0]
		if _, ok := wantKinds[e.Kind]; ok {
			wantKinds[e.Kind] = true
		}
		if !v.Verdict.Out() {
			t.Fatalf("violation with verdict %v", v.Verdict)
		}
	}
	for k, found := range wantKinds {
		if !found {
			t.Errorf("no %v violation found; violations:\n%v", k, rep.Violations)
		}
	}
	if len(rep.Inconclusive) != 0 {
		t.Fatalf("%d inconclusive outcomes in an ungoverned sweep", len(rep.Inconclusive))
	}
}

func TestExploreDepth2PlanCount(t *testing.T) {
	s := litmusSchedule(t)
	sites := Sites(s, nil)
	rep, err := Explore(context.Background(), s, Options{Depth: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := len(sites) + len(sites)*(len(sites)-1)/2
	if rep.Planned != want || rep.Explored != want {
		t.Fatalf("planned/explored = %d/%d, want %d", rep.Planned, rep.Explored, want)
	}
}

func TestExploreGovernors(t *testing.T) {
	s := litmusSchedule(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := Explore(ctx, s, Options{Depth: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Explored != 0 || rep.Stop == 0 {
		t.Fatalf("cancelled sweep explored %d plans, stop = %v", rep.Explored, rep.Stop)
	}

	rep, err = Explore(context.Background(), s, Options{Depth: 1, MaxPlans: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Explored != 2 {
		t.Fatalf("MaxPlans=2 sweep explored %d plans", rep.Explored)
	}
}

// TestShrinkLocalMinimality is the shrinker soundness criterion: a
// violating plan padded with irrelevant events shrinks to one that (a)
// still violates LC and (b) is 1-minimal — removing any single
// remaining event makes the violation disappear.
func TestShrinkLocalMinimality(t *testing.T) {
	s := litmusSchedule(t)
	// skip-reconcile on the crossing edge violates; the crash of p1's
	// cache at tick 0 and the corrupt-read... corrupting node 0's read
	// would itself violate, so pad only with events that do not.
	padded := NewPlan(
		Event{Kind: CrashCache, Proc: 1, Tick: 0},
		Event{Kind: SkipReconcile, Src: 1, Dst: 2},
		Event{Kind: CrashCache, Proc: 0, Tick: 0},
	)
	rep, err := Shrink(context.Background(), s, padded, checker.SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !verifyLC(t, rep.Result.Trace).Out() {
		t.Fatalf("shrunk repro does not violate LC: %v", rep.Result.Trace)
	}
	if rep.Plan.Len() != 1 {
		t.Fatalf("shrunk plan has %d events, want 1:\n%s", rep.Plan.Len(), rep.Plan)
	}
	// 1-minimality on the shrunk triple.
	for i := range rep.Plan.Events {
		res, _, err := Run(rep.Sched, rep.Plan.Without(i))
		if err != nil {
			t.Fatal(err)
		}
		if verifyLC(t, res.Trace).Out() {
			t.Fatalf("shrunk plan is not 1-minimal: removing event %d still violates", i)
		}
	}
	// The shrunk computation must not be larger than the original.
	if rep.Sched.Comp.NumNodes() > s.Comp.NumNodes() {
		t.Fatalf("shrinking grew the computation")
	}
	// NodeMap maps shrunk ids back into the original id range.
	for nu, ou := range rep.NodeMap {
		if ou < 0 || int(ou) >= s.Comp.NumNodes() {
			t.Fatalf("NodeMap[%d] = %d out of range", nu, ou)
		}
	}
}

// TestShrinkTruncatesSchedule pins the schedule-truncation stage: a
// violation confined to an execution prefix drops the unneeded suffix.
func TestShrinkTruncatesSchedule(t *testing.T) {
	// Litmus plus two trailing no-op nodes after C.
	named, err := computation.ParseString(
		"locs x\nnode A R(x)\nnode B W(x)\nnode C R(x)\nnode D N\nnode E N\n" +
			"edge A C\nedge B C\nedge C D\nedge D E\n")
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.ListSchedule(named.Comp, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := NewPlan(Event{Kind: SkipReconcile, Src: 1, Dst: 2})
	if s.Proc[1] == s.Proc[2] {
		t.Skip("list scheduling no longer crosses the litmus edge")
	}
	rep, err := Shrink(context.Background(), s, p, checker.SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Sched.Comp.NumNodes(); got >= named.Comp.NumNodes() {
		t.Fatalf("truncation kept %d of %d nodes", got, named.Comp.NumNodes())
	}
	if !verifyLC(t, rep.Result.Trace).Out() {
		t.Fatal("truncated repro no longer violates LC")
	}
}

func TestShrinkRejectsHealthyPlan(t *testing.T) {
	s := litmusSchedule(t)
	if _, err := Shrink(context.Background(), s, NewPlan(), checker.SearchOptions{}); err == nil {
		t.Fatal("Shrink accepted a non-violating plan")
	}
}

// TestShrinkDeterminism: shrinking the same input twice yields the same
// repro (plans, schedules and traces compare equal).
func TestShrinkDeterminism(t *testing.T) {
	s := litmusSchedule(t)
	p := NewPlan(
		Event{Kind: CrashCache, Proc: 1, Tick: 0},
		Event{Kind: SkipFlush, Dst: 2},
	)
	a, err := Shrink(context.Background(), s, p, checker.SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Shrink(context.Background(), s, p, checker.SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Plan.Equal(b.Plan) {
		t.Fatalf("shrink is not deterministic:\n%s\nvs\n%s", a.Plan, b.Plan)
	}
	if a.OracleRuns != b.OracleRuns {
		t.Fatalf("oracle run counts differ: %d vs %d", a.OracleRuns, b.OracleRuns)
	}
	if !tracesEqual(a.Result.Trace, b.Result.Trace) {
		t.Fatal("shrunk traces differ")
	}
}

// TestClassifyLitmusViolation classifies the skip-reconcile violation
// against the paper's model lattice: the broken trace must be outside
// both serialization models, and every verdict must be definitive on a
// computation this small.
func TestClassifyLitmusViolation(t *testing.T) {
	s := litmusSchedule(t)
	res, _, err := Run(s, NewPlan(Event{Kind: SkipReconcile, Src: 1, Dst: 2}))
	if err != nil {
		t.Fatal(err)
	}
	class := Classify(context.Background(), res.Trace, checker.SearchOptions{}, 0)
	if len(class) != 6 {
		t.Fatalf("classified against %d models, want 6", len(class))
	}
	byName := map[string]checker.Verdict{}
	for _, mv := range class {
		if mv.Verdict.Inconclusive() {
			t.Fatalf("%s verdict inconclusive on a 3-node trace", mv.Model)
		}
		byName[mv.Model] = mv.Verdict
	}
	if !byName["LC"].Out() {
		t.Fatal("LC did not reject the skip-reconcile trace")
	}
	if !byName["SC"].Out() {
		t.Fatal("SC did not reject the skip-reconcile trace")
	}
}

// TestCilkFibExploration is the second acceptance computation: a real
// divide-and-conquer cilk program whose work-stealing schedule has many
// crossing edges. Single-fault exploration must find skip-reconcile
// violations (a child's result write never reaches the backing store,
// so the parent sums stale ⊥). Skip-flush, by contrast, can only
// preserve stale cached lines — and every fib cell is read exactly once,
// on a cold cache, so the sweep must find NO skip-flush violations here;
// the stale-read litmus (TestExploreLitmus) is the computation that
// exposes that kind.
func TestCilkFibExploration(t *testing.T) {
	prog := fibProgram(7)
	rng := rand.New(rand.NewSource(11))
	s, err := sched.WorkStealing(prog.Computation(), 4, nil, rng)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Explore(context.Background(), s, Options{
		Depth: 1,
		Kinds: []Kind{SkipReconcile, SkipFlush},
	})
	if err != nil {
		t.Fatal(err)
	}
	found := map[Kind]int{}
	for _, v := range rep.Violations {
		found[v.Plan.Events[0].Kind]++
	}
	if found[SkipReconcile] == 0 {
		t.Errorf("no skip-reconcile violation in %d plans over fib(7)", rep.Explored)
	}
	if found[SkipFlush] != 0 {
		t.Errorf("%d skip-flush violations on single-read-per-cell fib; the model changed", found[SkipFlush])
	}

	// Shrink the first violation end to end: it must stay a violation
	// and get strictly smaller.
	first := rep.Violations[0]
	shrunk, err := Shrink(context.Background(), s, first.Plan, checker.SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if shrunk.Sched.Comp.NumNodes() >= s.Comp.NumNodes() {
		t.Errorf("fib repro did not shrink: %d nodes", shrunk.Sched.Comp.NumNodes())
	}
	if !verifyLC(t, shrunk.Result.Trace).Out() {
		t.Error("shrunk fib repro no longer violates LC")
	}
}

// fibProgram mirrors the canonical cilk fib example: each task
// allocates cells for its children, spawns them, syncs, and writes the
// sum.
func fibProgram(n int) *cilk.Program {
	return cilk.New(1, func(t *cilk.Thread) {
		var build func(t *cilk.Thread, out computation.Loc, n int)
		build = func(t *cilk.Thread, out computation.Loc, n int) {
			if n < 2 {
				t.Write(out, cilk.Const(trace.Value(n)))
				return
			}
			a, b := t.AllocLoc(), t.AllocLoc()
			t.Spawn(func(c *cilk.Thread) { build(c, a, n-1) })
			t.Spawn(func(c *cilk.Thread) { build(c, b, n-2) })
			t.Sync()
			ra := t.Read(a)
			rb := t.Read(b)
			t.Write(out, func(env *cilk.Env) trace.Value {
				return env.Value(ra) + env.Value(rb)
			})
		}
		build(t, 0, n)
	})
}

// TestSitesDeterministicOrder: the exploration alphabet is a pure
// function of the schedule.
func TestSitesDeterministicOrder(t *testing.T) {
	s := litmusSchedule(t)
	a, b := Sites(s, nil), Sites(s, nil)
	if len(a) != len(b) {
		t.Fatal("site enumeration is not deterministic")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("site %d differs: %v vs %v", i, a[i], b[i])
		}
	}
	// Kind filtering.
	only := Sites(s, []Kind{CrashCache})
	for _, e := range only {
		if e.Kind != CrashCache {
			t.Fatalf("filtered sites contain %v", e)
		}
	}
	if len(only) == 0 {
		t.Fatal("no crash sites enumerated")
	}
}

func TestCorruptValueNeverCollides(t *testing.T) {
	for u := dag.Node(0); u < 100; u++ {
		v := corruptValue(u)
		if v >= 0 || v == trace.Undefined {
			t.Fatalf("corruptValue(%d) = %v collides with legitimate values", u, v)
		}
	}
}
