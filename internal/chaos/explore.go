package chaos

import (
	"context"
	"fmt"

	"repro/internal/backer"
	"repro/internal/checker"
	"repro/internal/computation"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/search"
)

// Sites enumerates every single-fault event applicable to the schedule,
// in deterministic order (execution order; per node: crossing-edge
// events in predecessor order, then the node-keyed events, then the
// crash site at the node's start). kinds filters the result; nil means
// all kinds. The sites are the exploration alphabet: a depth-d sweep
// runs every plan made of up to d of them.
func Sites(s *sched.Schedule, kinds []Kind) []Event {
	want := make([]bool, numKinds)
	if len(kinds) == 0 {
		for k := range want {
			want[k] = true
		}
	}
	for _, k := range kinds {
		if int(k) < len(want) {
			want[k] = true
		}
	}
	var sites []Event
	c := s.Comp
	for _, u := range s.Order {
		crossed := false
		for _, v := range c.Dag().Preds(u) {
			if s.Proc[v] == s.Proc[u] {
				continue
			}
			crossed = true
			if want[SkipReconcile] {
				sites = append(sites, Event{Kind: SkipReconcile, Src: v, Dst: u})
			}
			if want[DelayReconcile] {
				sites = append(sites, Event{Kind: DelayReconcile, Src: v, Dst: u})
			}
		}
		if crossed && want[SkipFlush] {
			sites = append(sites, Event{Kind: SkipFlush, Dst: u})
		}
		if want[CorruptRead] && c.Op(u).Kind == computation.Read {
			sites = append(sites, Event{Kind: CorruptRead, Dst: u})
		}
		if want[CrashCache] {
			sites = append(sites, Event{Kind: CrashCache, Proc: s.Proc[u], Tick: s.Start[u]})
		}
	}
	return sites
}

// Options tunes an exploration sweep.
type Options struct {
	// Depth bounds the number of events per plan: 1 (default) explores
	// every single-fault plan, 2 additionally explores every unordered
	// pair of sites.
	Depth int
	// Kinds restricts the fault kinds explored; nil means all.
	Kinds []Kind
	// MaxPlans caps the number of plans run (0 = unlimited); hitting
	// the cap stops the sweep with Stop = StopBudget.
	MaxPlans int
	// StopAtFirst stops the sweep at the first violation found.
	StopAtFirst bool
	// Search configures the per-plan LC verification (workers, state
	// budget, memo cap); contexts and deadlines flow through Explore's
	// ctx argument.
	Search checker.SearchOptions
	// Recorder receives sweep-level events: a RunStart with live plan
	// gauges, one PlanDone per explored plan (its verdict stream), and a
	// RunEnd summary. Deliberately separate from Search.Recorder — a
	// sweep runs thousands of tiny engine searches, and mirroring each
	// one's full event stream would bury the per-plan signal.
	Recorder obs.Recorder
}

// Outcome is one explored plan together with the LC verdict of the run
// it produced.
type Outcome struct {
	Plan    *Plan
	Verdict checker.Verdict
	Result  *backer.Result
}

// Report summarizes an exploration sweep.
type Report struct {
	Sites    int // single-fault sites enumerated
	Planned  int // plans the sweep would run at this depth
	Explored int // plans actually run
	// Violations holds every plan whose run definitively violated LC.
	Violations []Outcome
	// Inconclusive holds plans whose verification was stopped by a
	// governor before deciding — typed, so sweeps distinguish "did not
	// check" from "checked and passed".
	Inconclusive []Outcome
	// Stop says why the sweep ended early (StopNone: it completed).
	Stop search.StopReason
}

// Explore systematically runs bounded fault plans against the schedule
// and verifies every resulting trace with the post-mortem LC checker.
// The sweep is cancellable: ctx is polled between plans, and a deadline
// or cancellation ends the sweep with a typed Stop reason and partial
// results rather than an error. Run errors (an invalid schedule, an
// internal protocol bug) abort the sweep.
func Explore(ctx context.Context, s *sched.Schedule, opts Options) (*Report, error) {
	if s == nil {
		return nil, fmt.Errorf("chaos: nil schedule")
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("chaos: invalid schedule: %w", err)
	}
	depth := opts.Depth
	if depth == 0 {
		depth = 1
	}
	if depth < 1 || depth > 2 {
		return nil, fmt.Errorf("chaos: exploration depth %d not in {1, 2}", depth)
	}
	sites := Sites(s, opts.Kinds)
	rep := &Report{Sites: len(sites), Planned: len(sites)}
	if depth == 2 {
		rep.Planned += len(sites) * (len(sites) - 1) / 2
	}
	rec := opts.Recorder
	var live *obs.Counters
	if rec != nil {
		live = &obs.Counters{}
		obs.Emit(rec, obs.Event{Kind: obs.RunStart, Total: rep.Planned, Live: live})
		defer func() {
			outcome := fmt.Sprintf("%d violations / %d plans", len(rep.Violations), rep.Explored)
			if rep.Stop != search.StopNone {
				outcome += " (stopped: " + rep.Stop.String() + ")"
			}
			obs.Emit(rec, obs.Event{Kind: obs.RunEnd, Str: outcome,
				Stats: &obs.Stats{States: int64(rep.Explored)}})
		}()
	}

	tryPlan := func(p *Plan) (done bool) {
		if err := ctx.Err(); err != nil {
			rep.Stop = search.ContextStopReason(err)
			return true
		}
		if opts.MaxPlans > 0 && rep.Explored >= opts.MaxPlans {
			rep.Stop = search.StopBudget
			return true
		}
		res, _, err := Run(s, p)
		if err != nil {
			panic(err) // sites come from the validated schedule; see Explore's recover
		}
		rep.Explored++
		verdict := checker.VerifyLC(ctx, res.Trace, opts.Search).Verdict
		if rec != nil {
			live.States.Add(1)
			live.Done.Add(1)
			obs.Emit(rec, obs.Event{Kind: obs.PlanDone,
				N: int64(rep.Explored - 1), Str: verdict.String(), Total: p.Len()})
		}
		switch {
		case verdict.Out():
			rep.Violations = append(rep.Violations, Outcome{Plan: p, Verdict: verdict, Result: res})
			if opts.StopAtFirst {
				return true
			}
		case verdict.Inconclusive():
			rep.Inconclusive = append(rep.Inconclusive, Outcome{Plan: p, Verdict: verdict, Result: res})
		}
		return false
	}

	err := func() (err error) {
		defer func() {
			if rec := recover(); rec != nil {
				err = fmt.Errorf("chaos: exploration failed: %v", rec)
			}
		}()
		for i, e := range sites {
			if tryPlan(NewPlan(e)) {
				return nil
			}
			if depth == 2 {
				for _, e2 := range sites[i+1:] {
					if tryPlan(NewPlan(e, e2)) {
						return nil
					}
				}
			}
		}
		return nil
	}()
	if err != nil {
		return nil, err
	}
	return rep, nil
}
