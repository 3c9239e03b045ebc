// Package checker implements post-mortem verification: given an
// executed trace (computation + values), decide whether some observer
// function in a memory model explains it. This is the computation-
// centric analogue of Gibbons & Korach's after-the-fact sequential-
// consistency verification ([GK94], cited in Sections 1 and 7).
//
// For the serialization-based models the checker does not enumerate
// observer functions: it runs the unified pruned backtracking engine
// of internal/search, constrained only at read nodes (whose candidate
// writer sets come from value equality), which scales to traces far
// beyond the exhaustive-enumeration experiments.
//
// There is one function per question, each taking a context, the trace
// and search options and returning one Result: VerifySC, VerifyLC and
// VerifyModel. Verify asks the question behind the verify CLI, POST
// /v1/verify and the final record of POST /v1/trace — is the trace
// explainable under LC, and under SC? — and its Verdicts carry the
// relaxed diagnosis, so the three frontends agree by construction.
package checker

import (
	"context"

	"repro/internal/computation"
	"repro/internal/dag"
	"repro/internal/memmodel"
	"repro/internal/obs"
	"repro/internal/observer"
	"repro/internal/search"
	"repro/internal/trace"
)

// SearchOptions tunes the engine behind the serialization checkers
// (workers for parallel root splitting, search-state budget). The zero
// value runs each search on one worker with no budget.
type SearchOptions = search.Options

// SearchStats reports the work a verification's searches did.
type SearchStats = search.Stats

// Verdict is the three-valued verification outcome (In / Out /
// Inconclusive with a machine-readable StopReason).
type Verdict = search.Verdict

// VerdictText renders a verification verdict in the spelling the
// verify CLI and the serving layer share: "explainable" for In,
// "VIOLATED" for Out, and the INCONCLUSIVE(reason) form otherwise.
// Keeping the spelling here means a trace checked over HTTP reports
// byte-identically to one checked at the command line.
func VerdictText(v Verdict) string {
	switch {
	case v.In():
		return "explainable"
	case v.Out():
		return "VIOLATED"
	default:
		return v.String()
	}
}

// Result is one verification outcome. Out means the exhaustive search
// excluded every explanation; a cancelled or expired context, or an
// exhausted opts.Budget, yields an inconclusive verdict with its stop
// reason.
type Result struct {
	Verdict Verdict
	// Observer is a full observer function explaining the trace, for
	// an In verdict: VerifyModel finds one directly, the serialization
	// checkers build it from their witness sorts.
	Observer *observer.Observer
	// Stats is the work the searches did.
	Stats SearchStats
}

// Verdicts is a trace's LC and SC results: the answer behind the
// verify CLI, POST /v1/verify and the final record of POST /v1/trace.
type Verdicts struct{ LC, SC Result }

// Relaxed reports the coherent-but-not-SC diagnosis: LC explains the
// trace and SC is violated.
func (v Verdicts) Relaxed() bool { return v.LC.Verdict.In() && v.SC.Verdict.Out() }

// Verify runs VerifyLC and then VerifySC, labelling their runs "LC" and
// "SC" under opts.Recorder.
func Verify(ctx context.Context, t *trace.Trace, opts SearchOptions) Verdicts {
	lcOpts, scOpts := opts, opts
	lcOpts.Recorder = obs.WithRun(opts.Recorder, "LC")
	scOpts.Recorder = obs.WithRun(opts.Recorder, "SC")
	return Verdicts{LC: VerifyLC(ctx, t, lcOpts), SC: VerifySC(ctx, t, scOpts)}
}

// constraints[l][u] is the allowed writer set for node u at location l,
// or nil when unconstrained. allowBottom is tracked via presence of
// observer.Bottom in the slice.
type constraints [][][]dag.Node

// buildConstraints reports false when no model explains t: t is
// malformed, or some read has no candidate writer.
func buildConstraints(t *trace.Trace) (constraints, bool) {
	if t.Validate() != nil {
		return nil, false
	}
	c := t.Comp
	cons := make(constraints, c.NumLocs())
	for l := range cons {
		cons[l] = make([][]dag.Node, c.NumNodes())
	}
	for u := 0; u < c.NumNodes(); u++ {
		op := c.Op(dag.Node(u))
		if op.Kind != computation.Read {
			continue
		}
		cands := t.Candidates(dag.Node(u))
		if len(cands) == 0 {
			return nil, false
		}
		cons[op.Loc][u] = cands
	}
	return cons, true
}

func allowed(cons constraints, l computation.Loc, u, w dag.Node) bool {
	set := cons[l][u]
	if set == nil {
		return true
	}
	for _, x := range set {
		if x == w {
			return true
		}
	}
	return false
}

// searchConstrained looks for a topological sort T of the trace's
// computation such that, for every location l in locs and every node u
// with a constraint, W_T(l, u) lies in the allowed set. Locations in
// locs with no constrained node are dropped from the engine's tracked
// state — their last writer cannot affect admissibility, and a smaller
// state key memoizes far better.
func searchConstrained(ctx context.Context, t *trace.Trace, cons constraints, locs []computation.Loc, opts SearchOptions) search.Result {
	c := t.Comp
	var tracked []computation.Loc
	for _, l := range locs {
		for u := range cons[l] {
			if cons[l][u] != nil {
				tracked = append(tracked, l)
				break
			}
		}
	}
	slot := make([]int, c.NumLocs())
	for l := range slot {
		slot[l] = -1
	}
	for i, l := range tracked {
		slot[l] = i
	}
	spec := search.Spec{
		Dag:      c.Dag(),
		Closure:  c.Closure(),
		NumSlots: len(tracked),
		WriteSlot: func(u dag.Node) int {
			if op := c.Op(u); op.Kind == computation.Write {
				return slot[op.Loc]
			}
			return -1
		},
		Allowed: func(s int, u dag.Node) ([]dag.Node, bool) {
			set := cons[tracked[s]][u]
			return set, set != nil
		},
	}
	return search.RunContext(ctx, spec, opts)
}

// VerifySC decides whether the trace is explainable under sequential
// consistency: some single topological sort's last-writer semantics
// produce exactly the observed read values. On success the witness
// observer is the last-writer observer of the sort. The decision is
// exact but worst-case exponential (the problem is NP-complete [GK94]),
// so large traces want opts.Budget or a deadline on ctx. The
// per-location serializability precheck (a polynomial-size relaxation
// of SC) shares the options; each constrained location costs at most
// one budget's worth of states, so the total work is bounded by
// (locations + 1) × Budget.
func VerifySC(ctx context.Context, t *trace.Trace, opts SearchOptions) Result {
	var r Result
	cons, ok := buildConstraints(t)
	if !ok {
		return Result{Verdict: search.VerdictOut()}
	}
	// Necessary condition: every location must be independently
	// serializable. Exact rejections here skip the joint search; a
	// budget-exhausted precheck is inconclusive and falls through, but a
	// context stop aborts the whole verification — later searches would
	// return immediately anyway.
	for l := computation.Loc(0); int(l) < t.Comp.NumLocs(); l++ {
		res := serializeLocChoices(ctx, t.Comp, l, cons[l], opts)
		r.Stats.Add(res.Stats)
		if !res.Found && res.Exhausted {
			r.Verdict = search.VerdictOut()
			return r
		}
		if stop := res.Stop; stop == search.StopDeadline || stop == search.StopCancel {
			r.Verdict = search.VerdictInconclusive(stop)
			return r
		}
	}
	locs := make([]computation.Loc, t.Comp.NumLocs())
	for l := range locs {
		locs[l] = computation.Loc(l)
	}
	res := searchConstrained(ctx, t, cons, locs, opts)
	r.Stats.Add(res.Stats)
	r.Verdict = res.Verdict()
	if res.Found {
		r.Observer = observer.FromLastWriter(t.Comp, res.Order)
	}
	return r
}

// OrderExplains reports whether a specific topological sort's
// last-writer semantics reproduce every read value of the trace — a
// constant witness check useful when the executing system can supply
// its own serialization candidate (e.g. a schedule's completion order).
func OrderExplains(t *trace.Trace, order []dag.Node) bool {
	if err := t.Validate(); err != nil || !t.Comp.Dag().IsTopoSort(order) {
		return false
	}
	for l := computation.Loc(0); int(l) < t.Comp.NumLocs(); l++ {
		row := observer.LastWriterForLoc(t.Comp, order, l)
		for u := 0; u < t.Comp.NumNodes(); u++ {
			if !t.Comp.Op(dag.Node(u)).IsReadOf(l) {
				continue
			}
			var v trace.Value
			if row[u] == observer.Bottom {
				v = trace.Undefined
			} else {
				v = t.WriteVal[row[u]]
			}
			if v != t.ReadVal[u] {
				return false
			}
		}
	}
	return true
}

// VerifyLC decides whether the trace is explainable under location
// consistency: each location independently admits a serialization
// matching the observed values. On success the witness observer is
// assembled from the per-location sorts. The verdict reads as
// VerifySC's.
func VerifyLC(ctx context.Context, t *trace.Trace, opts SearchOptions) Result {
	var r Result
	cons, ok := buildConstraints(t)
	if !ok {
		return Result{Verdict: search.VerdictOut()}
	}
	sorts := make([][]dag.Node, t.Comp.NumLocs())
	for l := computation.Loc(0); int(l) < t.Comp.NumLocs(); l++ {
		res := serializeLocChoices(ctx, t.Comp, l, cons[l], opts)
		r.Stats.Add(res.Stats)
		if !res.Found {
			r.Verdict = res.Verdict()
			return r
		}
		sorts[l] = res.Order
	}
	r.Verdict = search.VerdictIn()
	if t.Comp.NumLocs() == 0 {
		r.Observer = observer.New(t.Comp)
	} else {
		r.Observer = observer.FromPerLocationSorts(t.Comp, sorts)
	}
	return r
}

// serializeLocChoices finds a serialization of location l compatible
// with per-node candidate sets (nil = unconstrained): a single-slot
// engine search whose candidate sets are exactly the per-read choices.
// The engine's static closure filtering resolves the unambiguous reads
// and its backtracking covers the ambiguous ones, replacing the
// choice-enumeration loop the checker used to run around
// memmodel.SerializeLoc.
func serializeLocChoices(ctx context.Context, c *computation.Computation, l computation.Loc, cands [][]dag.Node, opts SearchOptions) search.Result {
	spec := search.Spec{
		Dag:      c.Dag(),
		Closure:  c.Closure(),
		NumSlots: 1,
		WriteSlot: func(u dag.Node) int {
			if c.Op(u).IsWriteTo(l) {
				return 0
			}
			return -1
		},
		Allowed: func(_ int, u dag.Node) ([]dag.Node, bool) {
			return cands[u], cands[u] != nil
		},
	}
	return search.RunContext(ctx, spec, opts)
}

// VerifyModel decides explainability under an arbitrary model by
// enumerating observer functions compatible with the trace (reads are
// pinned to their value-derived candidates; all other entries range
// over the full candidate sets) via search.Assignments. Exponential in
// the number of unconstrained entries — intended for the dag-consistent
// models on moderate computations. opts.Budget caps the candidates
// tried, which Stats.States counts; ctx is polled between them.
// Hitting the cap, or a stopped ctx, yields an inconclusive verdict.
func VerifyModel(ctx context.Context, m memmodel.Model, t *trace.Trace, opts SearchOptions) Result {
	cons, ok := buildConstraints(t)
	if !ok {
		return Result{Verdict: search.VerdictOut()}
	}
	c := t.Comp
	cands := observer.Candidates(c)
	// Intersect read rows with trace candidates.
	for l := range cands {
		for u := range cands[l] {
			if cons[l][u] == nil {
				continue
			}
			var narrowed []dag.Node
			for _, v := range cands[l][u] {
				if allowed(cons, computation.Loc(l), dag.Node(u), v) {
					narrowed = append(narrowed, v)
				}
			}
			cands[l][u] = narrowed
		}
	}

	o := observer.New(c)
	n := c.NumNodes()
	domains := make([][]dag.Node, 0, c.NumLocs()*n)
	for l := 0; l < c.NumLocs(); l++ {
		domains = append(domains, cands[l]...)
	}
	var r Result
	stop := search.StopNone
	search.Assignments(domains, func(assign []dag.Node) bool {
		if err := ctx.Err(); err != nil {
			stop = search.ContextStopReason(err)
			return false
		}
		for i, v := range assign {
			o.Set(computation.Loc(i/n), dag.Node(i%n), v)
		}
		r.Stats.States++
		if m.Contains(c, o) {
			r.Observer = o.Clone()
			return false
		}
		if opts.Budget > 0 && r.Stats.States >= opts.Budget {
			stop = search.StopBudget
			return false
		}
		return true
	})
	switch {
	case r.Observer != nil:
		r.Verdict = search.VerdictIn()
	case stop != search.StopNone:
		r.Verdict = search.VerdictInconclusive(stop)
	default:
		r.Verdict = search.VerdictOut()
	}
	return r
}
