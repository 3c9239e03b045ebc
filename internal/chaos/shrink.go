package chaos

import (
	"context"
	"fmt"

	"repro/internal/backer"
	"repro/internal/bitset"
	"repro/internal/checker"
	"repro/internal/dag"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/search"
)

// Repro is a shrunk, replayable reproduction of an LC violation: a
// (computation, schedule, plan) triple — the schedule carries its
// (possibly truncated) computation — plus the violating run.
type Repro struct {
	Sched *sched.Schedule
	Plan  *Plan
	// Result is the run of the shrunk triple; its trace definitively
	// violates LC.
	Result *backer.Result
	// NodeMap maps the shrunk computation's node ids back to the
	// original computation's (identity when nothing was truncated).
	NodeMap []dag.Node
	// OracleRuns counts how many run+verify cycles the shrink spent.
	OracleRuns int
}

// Shrink delta-debugs a violating (schedule, plan) pair to a locally
// minimal repro:
//
//  1. greedily drop plan events while the violation persists, to a
//     fixpoint — afterwards, removing any single remaining event makes
//     the violation disappear;
//  2. truncate the schedule (and the computation with it) to the
//     shortest execution prefix on which the shrunk plan still
//     violates;
//  3. re-run step 1 on the truncated triple, since a shorter
//     execution can make more events redundant.
//
// The oracle is deterministic (backer.Run under a plan injector plus
// the exhaustive LC checker), so shrinking is reproducible. ctx cancels
// the shrink between oracle runs; an inconclusive LC verdict (possible
// only with a state budget in opts) is treated conservatively as "not
// a violation", which keeps shrunk plans sound but may leave them
// larger than minimal. Shrink fails if the input does not violate LC.
func Shrink(ctx context.Context, s *sched.Schedule, p *Plan, opts checker.SearchOptions) (*Repro, error) {
	return ShrinkRec(ctx, s, p, opts, nil)
}

// ShrinkRec is Shrink with observability: rec receives a RunStart
// (Total = the input plan's length), one ShrinkStep per accepted
// shrink iteration (Str names the stage, "drop-event" or "truncate";
// N counts oracle runs so far; Total is the plan length after the
// step), and a RunEnd summarizing the repro. A nil rec is exactly
// Shrink.
func ShrinkRec(ctx context.Context, s *sched.Schedule, p *Plan, opts checker.SearchOptions, rec obs.Recorder) (*Repro, error) {
	if s == nil || p == nil {
		return nil, fmt.Errorf("chaos: Shrink needs a schedule and a plan")
	}
	runs := 0
	step := func(stage string, planLen int) {
		if rec != nil {
			obs.Emit(rec, obs.Event{Kind: obs.ShrinkStep, Str: stage, N: int64(runs), Total: planLen})
		}
	}
	if rec != nil {
		obs.Emit(rec, obs.Event{Kind: obs.RunStart, Total: p.Len()})
	}
	oracle := func(s *sched.Schedule, p *Plan) (bool, *backer.Result, error) {
		if err := ctx.Err(); err != nil {
			return false, nil, fmt.Errorf("chaos: shrink stopped (%s): %w", search.ContextStopReason(err), err)
		}
		res, _, err := Run(s, p)
		if err != nil {
			return false, nil, err
		}
		runs++
		return checker.VerifyLC(ctx, res.Trace, opts).Verdict.Out(), res, nil
	}

	violates, res, err := oracle(s, p)
	if err != nil {
		return nil, err
	}
	if !violates {
		return nil, fmt.Errorf("chaos: plan does not violate LC on this schedule; nothing to shrink")
	}

	cur, res, err := shrinkEvents(oracle, s, p, res, step)
	if err != nil {
		return nil, err
	}
	ts, tp, tres, nodeMap, err := truncateSchedule(oracle, s, cur, res, step)
	if err != nil {
		return nil, err
	}
	tp, tres, err = shrinkEvents(oracle, ts, tp, tres, step)
	if err != nil {
		return nil, err
	}
	if rec != nil {
		obs.Emit(rec, obs.Event{Kind: obs.RunEnd,
			Str: fmt.Sprintf("shrunk to %d events / %d nodes in %d oracle runs",
				tp.Len(), ts.Comp.NumNodes(), runs),
			Stats: &obs.Stats{States: int64(runs)}})
	}
	return &Repro{Sched: ts, Plan: tp, Result: tres, NodeMap: nodeMap, OracleRuns: runs}, nil
}

type oracleFunc func(*sched.Schedule, *Plan) (bool, *backer.Result, error)

// shrinkEvents greedily removes plan events to a fixpoint, preserving
// the violation. res is the run of (s, p); the returned result is the
// run of the returned plan. step reports each accepted removal.
func shrinkEvents(oracle oracleFunc, s *sched.Schedule, p *Plan, res *backer.Result, step func(string, int)) (*Plan, *backer.Result, error) {
	cur := p.Clone()
	for changed := true; changed; {
		changed = false
		for i := 0; i < len(cur.Events); i++ {
			cand := cur.Without(i)
			violates, candRes, err := oracle(s, cand)
			if err != nil {
				return nil, nil, err
			}
			if violates {
				cur, res = cand, candRes
				changed = true
				i--
				step("drop-event", cur.Len())
			}
		}
	}
	return cur, res, nil
}

// truncateSchedule finds the shortest execution prefix of s on which p
// still violates LC, and returns the induced (schedule, plan) with node
// ids remapped, plus the new-to-old node map.
func truncateSchedule(oracle oracleFunc, s *sched.Schedule, p *Plan, res *backer.Result, step func(string, int)) (*sched.Schedule, *Plan, *backer.Result, []dag.Node, error) {
	n := s.Comp.NumNodes()
	// The prefix must contain every node a plan event references, or
	// the event could never fire.
	kmin := 1
	pos := make([]int, n)
	for i, u := range s.Order {
		pos[u] = i
	}
	for _, e := range p.Events {
		switch e.Kind {
		case SkipReconcile, DelayReconcile:
			if pos[e.Src]+2 > kmin {
				kmin = pos[e.Src] + 2 // src and at least its successor
			}
			fallthrough
		case SkipFlush, CorruptRead:
			if pos[e.Dst]+1 > kmin {
				kmin = pos[e.Dst] + 1
			}
		}
	}
	for k := kmin; k <= n; k++ {
		ts, tp, nodeMap, err := truncateAt(s, p, k)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		violates, tres, err := oracle(ts, tp)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		if violates {
			if k < n {
				step("truncate", tp.Len())
			}
			return ts, tp, tres, nodeMap, nil
		}
	}
	// k = n is the untruncated triple (modulo id renaming), which
	// violates by precondition; reaching here means the oracle is not
	// deterministic.
	return nil, nil, nil, nil, fmt.Errorf("chaos: truncation lost the violation; non-deterministic oracle?")
}

// truncateAt builds the subschedule induced by the first k nodes of the
// execution order, remapping the computation, schedule arrays, and plan
// events onto fresh contiguous node ids.
func truncateAt(s *sched.Schedule, p *Plan, k int) (*sched.Schedule, *Plan, []dag.Node, error) {
	n := s.Comp.NumNodes()
	keep := bitset.New(n)
	for _, u := range s.Order[:k] {
		keep.Add(int(u))
	}
	// A prefix of the execution order is downward closed: every
	// predecessor executed earlier.
	sub, newToOld := s.Comp.Prefix(keep)
	oldToNew := make([]dag.Node, n)
	for i := range oldToNew {
		oldToNew[i] = dag.None
	}
	for nu, ou := range newToOld {
		oldToNew[ou] = dag.Node(nu)
	}

	ts := &sched.Schedule{
		Comp:   sub,
		P:      s.P,
		Proc:   make([]int, k),
		Start:  make([]sched.Tick, k),
		Finish: make([]sched.Tick, k),
		Order:  make([]dag.Node, 0, k),
		Steals: s.Steals,
	}
	for nu, ou := range newToOld {
		ts.Proc[nu] = s.Proc[ou]
		ts.Start[nu] = s.Start[ou]
		ts.Finish[nu] = s.Finish[ou]
		if ts.Finish[nu] > ts.Makespan {
			ts.Makespan = ts.Finish[nu]
		}
	}
	for _, u := range s.Order[:k] {
		ts.Order = append(ts.Order, oldToNew[u])
	}
	if err := ts.Validate(); err != nil {
		return nil, nil, nil, fmt.Errorf("chaos: truncated schedule invalid: %w", err)
	}

	tp := p.Clone()
	for i := range tp.Events {
		e := &tp.Events[i]
		switch e.Kind {
		case SkipReconcile, DelayReconcile:
			e.Src, e.Dst = oldToNew[e.Src], oldToNew[e.Dst]
		case SkipFlush, CorruptRead:
			e.Dst = oldToNew[e.Dst]
		}
	}
	return ts, tp, newToOld, nil
}
