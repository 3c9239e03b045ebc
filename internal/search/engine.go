package search

import (
	"context"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/bitset"
	"repro/internal/dag"
	"repro/internal/obs"
)

// Below the engine and the root loop every run walks. One engine owns
// one mutable search state (placed set, last-writer vector, in-degrees,
// partial order) and one failed-state memo table; a run's workers share
// only the compiled problem, the root counter, the state budget and the
// lowest-successful-root register.

// rec outcomes, and their names on RootFinished events.
const (
	stFail  int8 = iota // subtree exhausted, no witness
	stFound             // witness completed in e.order
	stAbort             // budget ran out or a lower root won
	stOpen              // enter only: the state's children must be explored
)

var outcomeNames = [...]string{stFail: "exhausted", stFound: "found", stAbort: "aborted"}

// budget batching: workers draw states in chunks to keep the shared
// atomic cold. Serial runs draw one at a time so the cap is exact.
const budgetChunk = 64

// cancellation poll interval (states) — a power of two minus checks.
const cancelMask = 63

type shared struct {
	limited  bool
	budget   atomic.Int64
	bestRoot atomic.Int64
	chunk    int64
	// done is the run context's cancellation channel (nil when the
	// context can never be cancelled); ctx recovers the reason.
	done <-chan struct{}
	ctx  context.Context
	// stop records the first governor that halted the run (a StopReason;
	// 0 = still running). Sticky: later governors never overwrite it.
	stop atomic.Uint32
	// rec receives run/root/governor events; nil disables all event
	// work. live holds the run's gauges (allocated only with a recorder)
	// that workers publish into in cancellation-poll batches.
	rec  obs.Recorder
	live *obs.Counters
	// The root loop's work: the frontier slice the run explores, the
	// global frontier index of roots[0], the counter workers claim
	// indices into roots from, and whether claims emit root events
	// (parallel and sharded runs only).
	roots      []dag.Node
	rootOff    int
	next       atomic.Int64
	rootEvents bool
}

// reset readies sh for a run under ctx with the given state budget
// (0 = unlimited), budget batch size and recorder.
func (sh *shared) reset(ctx context.Context, budget int64, chunk int64, rec obs.Recorder) {
	sh.limited, sh.chunk = budget > 0, chunk
	sh.ctx, sh.done, sh.rec = ctx, ctx.Done(), rec
	sh.live = nil
	if rec != nil {
		sh.live = &obs.Counters{}
	}
	sh.budget.Store(budget)
	sh.bestRoot.Store(math.MaxInt64)
	sh.stop.Store(0)
	sh.next.Store(0)
}

// setStop records reason as the run's stop cause if none is set yet.
// The first setter (and only it) reports the governor firing.
func (sh *shared) setStop(reason StopReason) {
	if sh.stop.CompareAndSwap(0, uint32(reason)) && sh.rec != nil {
		obs.Emit(sh.rec, obs.Event{Kind: obs.GovernorFired, Str: reason.String()})
	}
}

// stopReason returns the recorded stop cause (StopNone while running).
func (sh *shared) stopReason() StopReason { return StopReason(sh.stop.Load()) }

// halted polls the governors: a recorded stop, then context
// cancellation (recording its reason on first observation).
func (sh *shared) halted() bool {
	if sh.stop.Load() != 0 {
		return true
	}
	if sh.done != nil {
		select {
		case <-sh.done:
			sh.setStop(ctxStopReason(sh.ctx.Err()))
			return true
		default:
		}
	}
	return false
}

// casMinRoot lowers bestRoot to r if r is smaller.
func (sh *shared) casMinRoot(r int64) {
	for {
		cur := sh.bestRoot.Load()
		if cur <= r || sh.bestRoot.CompareAndSwap(cur, r) {
			return
		}
	}
}

type engine struct {
	p      *problem
	sh     *shared
	placed bitset.Set
	last   []dag.Node
	indeg  []int32
	order  []dag.Node
	memo   stateSet
	keyBuf []uint64
	// myRoot is the index into sh.roots of the root being explored, and
	// once the engine has found a witness, of the root holding it.
	myRoot int64
	grant  int64
	tick   uint32
	stats  Stats
	// sleep is a depth-indexed slab of placed-set-width rows: row d is
	// the sleep set in force at depth d (bit u set = placing u from here
	// is known redundant). A parent writes row d+1 before descending.
	sleep   []uint64
	noSleep bool
	// Observability bookkeeping, all dead weight unless sh.rec is set:
	// worker id for events, the already-published slices of the private
	// counters, and whether this worker's memo freeze was reported.
	worker    int
	pubStates int64
	pubMemo   int64
	pubSlept  int64
	frozeSeen bool
}

// bind sizes e's buffers for p, over their old backing arrays where
// those are large enough, and restores the empty search state.
func (e *engine) bind(p *problem) {
	e.p = p
	e.placed.Reset(p.n)
	e.last = reuse(e.last, p.numSlots)
	e.indeg = reuse(e.indeg, p.n)
	e.order = reuse(e.order, p.n)[:0]
	e.keyBuf = reuse(e.keyBuf, p.keyWords)
	e.sleep = reuse(e.sleep, (p.n+1)*p.placedWords)
	for i := range e.last {
		e.last[i] = dag.None
	}
	copy(e.indeg, p.indeg0)
}

// start readies a bound engine for a run under sh: the memo table is
// emptied to the size a new one starts at and every counter and
// register is zeroed, so the run counts exactly what a new engine's
// would.
func (e *engine) start(sh *shared, opts Options, memoCap int64) {
	e.memo.reset(e.p.keyWords, memoCap)
	*e = engine{
		p:       e.p,
		sh:      sh,
		placed:  e.placed,
		last:    e.last,
		indeg:   e.indeg,
		order:   e.order,
		memo:    e.memo,
		keyBuf:  e.keyBuf,
		myRoot:  math.MaxInt64,
		sleep:   e.sleep,
		noSleep: opts.DisableSleep || e.p.gate != nil,
	}
}

// takeState charges one state against the shared budget, batching
// grants by sh.chunk. Reports false on exhaustion.
func (e *engine) takeState() bool {
	if !e.sh.limited {
		return true
	}
	if e.grant > 0 {
		e.grant--
		return true
	}
	chunk := e.sh.chunk
	rem := e.sh.budget.Add(-chunk)
	if rem <= -chunk {
		e.sh.budget.Add(chunk)
		e.sh.setStop(StopBudget)
		return false
	}
	e.grant = chunk - 1
	return true
}

// cancelled polls, every cancelMask+1 states, whether a governor
// (budget elsewhere, context deadline/cancel) halted the run or a
// lower root already produced a witness. The same tick publishes the
// live gauge deltas when a recorder is attached — one batch per
// cancelMask+1 states, keeping per-state work recorder-free.
func (e *engine) cancelled() bool {
	e.tick++
	if e.tick&cancelMask != 0 {
		return false
	}
	if e.sh.live != nil {
		e.publishLive()
	}
	if e.sh.halted() {
		return true
	}
	return e.sh.bestRoot.Load() < e.myRoot
}

// publishLive pushes the not-yet-published slice of this worker's
// private counters into the shared gauges and reports a memo freeze
// the first time it is observed. Only called with a recorder attached.
func (e *engine) publishLive() {
	live := e.sh.live
	live.States.Add(e.stats.States - e.pubStates)
	e.pubStates = e.stats.States
	if slept := e.stats.SleepSetPruned; slept != e.pubSlept {
		live.Slept.Add(slept - e.pubSlept)
		e.pubSlept = slept
	}
	if mb := e.memo.bytes(); mb != e.pubMemo {
		live.MemoBytes.Add(mb - e.pubMemo)
		e.pubMemo = mb
	}
	if e.memo.frozen && !e.frozeSeen {
		e.frozeSeen = true
		obs.Emit(e.sh.rec, obs.Event{Kind: obs.MemoFreeze, Worker: e.worker, N: e.memo.bytes()})
	}
}

// obsStats converts the engine's counter block to the event form.
func obsStats(s Stats) *obs.Stats {
	return &obs.Stats{
		States:         s.States,
		MemoHits:       s.MemoHits,
		Pruned:         s.Pruned,
		Memoized:       s.Memoized,
		MemoBytes:      s.MemoBytes,
		MemoSpilled:    s.MemoSpilled,
		SleepSetPruned: s.SleepSetPruned,
		Roots:          s.Roots,
		Workers:        s.Workers,
	}
}

func (e *engine) encodeKey() []uint64 {
	return encodeKey(e.keyBuf, e.placed.Words(), e.last)
}

// admissible reports whether placing u next satisfies every constraint
// u carries (its own-slot write constraint was compiled away), plus the
// spec's dynamic gate when one is present.
func (e *engine) admissible(u dag.Node) bool {
	for _, con := range e.p.nodeCons[u] {
		have := e.last[con.slot]
		if con.set[0] != have && !containsNode(con.set, have) {
			return false
		}
	}
	if e.p.gate != nil && !e.p.gate(u, e.last, &e.placed) {
		return false
	}
	return true
}

// place appends u to the partial order and returns the last-writer
// value it displaced (meaningful only when u writes a slot).
func (e *engine) place(u dag.Node) dag.Node {
	e.placed.Add(int(u))
	e.order = append(e.order, u)
	for _, v := range e.p.succs[u] {
		e.indeg[v]--
	}
	var prev dag.Node
	if s := e.p.writeSlot[u]; s >= 0 {
		prev = e.last[s]
		e.last[s] = u
	}
	return prev
}

func (e *engine) unplace(u dag.Node, prev dag.Node) {
	if s := e.p.writeSlot[u]; s >= 0 {
		e.last[s] = prev
	}
	for _, v := range e.p.succs[u] {
		e.indeg[v]++
	}
	e.order = e.order[:len(e.order)-1]
	e.placed.Remove(int(u))
}

// infeasible is the closure prune: some unplaced constrained node has
// no live candidate left. A candidate w is dead when it is already
// placed and either was overwritten (w ≠ current last writer) or will
// be before the node arrives (a closure-forced predecessor writer of
// the node is still unplaced and must land after w, overwriting it).
// ⊥ is dead once any writer is placed. Unplaced candidates stay alive:
// static filtering already removed the ones a sort can never realize.
func (e *engine) infeasible() bool {
	n := e.p.n
	for s := 0; s < e.p.numSlots; s++ {
		lastS := e.last[s]
		for _, u := range e.p.consNodes[s] {
			if e.placed.Contains(int(u)) {
				continue
			}
			alive := false
			for _, w := range e.p.cands[s*n+int(u)] {
				if w == dag.None {
					if lastS == dag.None {
						alive = true
						break
					}
					continue
				}
				if !e.placed.Contains(int(w)) {
					alive = true
					break
				}
				if w == lastS && e.predWPlaced(s*n+int(u)) {
					alive = true
					break
				}
			}
			if !alive {
				return true
			}
		}
	}
	return false
}

// predWPlaced reports whether every closure-forced predecessor writer
// of the constraint at idx has been placed.
func (e *engine) predWPlaced(idx int) bool {
	off := int(e.p.predWOff[idx])
	pw := e.p.predW[off : off+e.p.placedWords]
	placed := e.placed.Words()
	for i, w := range pw {
		if w&^placed[i] != 0 {
			return false
		}
	}
	return true
}

// rec explores the subtree below the current state: enter's prologue,
// a step for every ready node, and refute's epilogue. The root loop
// (claim) runs the same three parts on the empty state.
func (e *engine) rec(remaining int) int8 {
	if remaining == 0 {
		return stFound
	}
	if st := e.enter(); st != stOpen {
		return st
	}
	depth := e.p.n - remaining
	for u := 0; u < e.p.n; u++ {
		if e.indeg[u] != 0 || e.placed.Contains(u) {
			continue
		}
		if st := e.step(u, depth); st != stFail {
			return st
		}
	}
	e.refute()
	return stFail
}

// enter is the per-state prologue: it charges the state to the
// governors and counts it, then settles it without expansion when the
// memo already refutes it or the closure prune does (stFail), or
// reports stOpen for a state whose children must be explored.
func (e *engine) enter() int8 {
	if !e.takeState() || e.cancelled() {
		return stAbort
	}
	e.stats.States++
	if e.memo.contains(e.encodeKey()) {
		e.stats.MemoHits++
		return stFail
	}
	if e.infeasible() {
		e.stats.Pruned++
		e.refute()
		return stFail
	}
	return stOpen
}

// step is the per-child step: it explores the subtree of placing ready
// node u at depth, unless u is asleep in the depth's sleep row or not
// admissible (stFail either way). The child row is the depth's row
// woken by u's conflicts; a refuted subtree puts u to sleep for the
// later siblings. A stFound leaves the witness placed in e.order.
func (e *engine) step(u, depth int) int8 {
	pw := e.p.placedWords
	cur := e.sleep[depth*pw : (depth+1)*pw]
	if !e.noSleep && cur[u>>6]&(1<<(uint(u)&63)) != 0 {
		// Asleep: this subtree is witness-free (see the package
		// comment's soundness argument).
		e.stats.SleepSetPruned++
		return stFail
	}
	node := dag.Node(u)
	if !e.admissible(node) {
		return stFail
	}
	if !e.noSleep {
		child := e.sleep[(depth+1)*pw : (depth+2)*pw]
		crow := e.p.conflict[u*pw : (u+1)*pw]
		for i, w := range cur {
			child[i] = w &^ crow[i]
		}
	}
	prev := e.place(node)
	st := e.rec(e.p.n - depth - 1)
	if st == stFound {
		return stFound
	}
	e.unplace(node, prev)
	if st == stFail && !e.noSleep {
		// u's subtree is exhausted and empty: later siblings may skip
		// placing u while their placements commute with it.
		cur[u>>6] |= 1 << (uint(u) & 63)
	}
	return st
}

// refute is the per-state epilogue: it memoizes the current state as
// refuted. The children overwrote keyBuf, so the key is re-encoded.
func (e *engine) refute() {
	if e.memo.insert(e.encodeKey()) {
		e.stats.Memoized++
	}
}

// claim is the root loop, run by every worker of a run on the empty
// state: it claims indices into sh.roots from the shared counter, in
// order, and explores each root as a step at depth 0, with the same
// memo, closure prune and sleep row as rec's children, until the roots
// run out or a governor stops the run. A witness it finds stays in
// e.order, with its root's index in e.myRoot and sh.bestRoot.
func (e *engine) claim() {
	sh := e.sh
	for {
		r := sh.next.Add(1) - 1
		if r >= int64(len(sh.roots)) {
			return
		}
		root := sh.rootOff + int(r)
		if sh.bestRoot.Load() < r {
			// A lower root, perhaps this worker's own, holds a witness:
			// this root cannot win.
			if sh.rootEvents {
				obs.Emit(sh.rec, obs.Event{Kind: obs.RootSkipped, Worker: e.worker, Root: root})
				sh.live.Done.Add(1)
			}
			continue
		}
		if sh.halted() {
			return
		}
		if sh.rootEvents {
			obs.Emit(sh.rec, obs.Event{Kind: obs.RootClaimed, Worker: e.worker, Root: root})
		}
		e.myRoot = r
		st := e.step(int(sh.roots[r]), 0)
		if sh.rootEvents {
			obs.Emit(sh.rec, obs.Event{Kind: obs.RootFinished, Worker: e.worker, Root: root, Str: outcomeNames[st]})
			sh.live.Done.Add(1)
		}
		switch st {
		case stFound:
			sh.casMinRoot(r)
		case stAbort:
			return
		}
	}
}

// Run solves the Spec. The answer (Found, and Order when Found) is
// deterministic for any Workers setting under an unlimited budget; see
// the package comment for why parallel splitting preserves it.
func Run(spec Spec, opts Options) Result {
	return RunContext(context.Background(), spec, opts)
}

// Runner runs searches on storage it keeps between runs: the compiled
// problem's tables, the serial engine's placed set, last-writer vector,
// in-degrees, order, key buffer and sleep slab, the memo table, the
// governor block and the root frontier. Callers that decide many small
// instances in a row (the bulk sweeps' pattern decider) keep one Runner
// and stop paying per-run setup; RunContext is a run on a new Runner,
// so every engine decision takes the same path. A Runner holds on to
// the storage of the largest instance it has run (its memo table until
// a later run outgrows it), so a long-lived one suits streams of small
// instances. The zero value is ready to use; the caller owns the
// Runner, which is not safe for concurrent use.
type Runner struct {
	p     problem
	e     engine
	sh    shared
	roots []dag.Node
}

// plan compiles spec into r and computes its admissible root frontier
// into r.roots. done reports a question resolved without search
// (static unsat filtering, the empty problem, an empty frontier), with
// res the answer.
func (r *Runner) plan(spec Spec) (res Result, done bool) {
	p := &r.p
	p.compile(spec)
	if p.unsat {
		// Static filtering emptied some candidate set: no sort exists.
		return Result{Exhausted: true, WitnessRoot: -1}, true
	}
	if p.n == 0 {
		return Result{Order: []dag.Node{}, Found: true, Exhausted: true, WitnessRoot: -1}, true
	}
	r.e.bind(p)
	r.roots = frontier(p, r.roots[:0], r.e.last, &r.e.placed)
	if len(r.roots) == 0 {
		return Result{Exhausted: true, WitnessRoot: -1, Stats: Stats{States: 1}}, true
	}
	return Result{}, false
}

// frontier appends the admissible first-choice roots of a compiled
// problem to roots, in node order. At the root every slot's last writer
// is ⊥, so a node is admissible iff all of its constraint sets contain
// ⊥ and the gate (when present) admits it from the empty state, which
// emptyLast and emptyPlaced describe. The order is deterministic, which
// is what makes frontier indices a meaningful shard coordinate across
// processes: every replica that compiles the same Spec sees the same
// frontier.
func frontier(p *problem, roots []dag.Node, emptyLast []dag.Node, emptyPlaced *bitset.Set) []dag.Node {
	for u := 0; u < p.n; u++ {
		if p.indeg0[u] != 0 {
			continue
		}
		ok := true
		for _, con := range p.nodeCons[u] {
			if !containsNode(con.set, dag.None) {
				ok = false
				break
			}
		}
		if ok && p.gate != nil && !p.gate(dag.Node(u), emptyLast, emptyPlaced) {
			ok = false
		}
		if ok {
			roots = append(roots, dag.Node(u))
		}
	}
	return roots
}

// Frontier is the exported shard plan: it compiles spec and returns
// the size of its admissible root frontier — the roots a run's workers
// claim, and the unit a fleet coordinator
// partitions into RootLo/RootHi shards. When the question resolves
// statically without any search (static unsat filtering, the empty
// problem, an empty frontier), Frontier returns 0 and the non-nil
// Result a full Run would return, so planners can short-circuit
// instead of dispatching shards of nothing.
func Frontier(spec Spec) (int, *Result) {
	var r Runner
	if res, done := r.plan(spec); done {
		return 0, &res
	}
	return len(r.roots), nil
}

// RunContext is Run under a context: cancellation and deadline expiry
// stop the search promptly (workers poll on the cancelMask tick) and
// surface as an inconclusive result — Exhausted false, Stop recording
// which governor fired. A witness found before the stop is kept: Found
// results are definitive even under a cancelled context. RunContext
// never leaks goroutines; it returns only after every worker has
// stopped. It is a run on a new Runner.
func RunContext(ctx context.Context, spec Spec, opts Options) Result {
	return new(Runner).Run(ctx, spec, opts)
}

// Run is RunContext on r's storage. Every table, buffer and counter is
// reset per run, and the memo table to the size a new one starts at
// (64 slots, or what Options.MaxMemoBytes shrinks that to), so the
// Result equals a new Runner's field for field, Stats included (on more
// than one worker the counters depend on the schedule either way); a
// found Order is a copy the Runner does not retain. Worker 0 is r's
// engine, on the calling goroutine; further workers get engines of
// their own for the run.
func (r *Runner) Run(ctx context.Context, spec Spec, opts Options) Result {
	if err := ctx.Err(); err != nil {
		// Already cancelled: don't even compile.
		return Result{Stop: ctxStopReason(err), WitnessRoot: -1}
	}
	rec := opts.Recorder
	if res, done := r.plan(spec); done {
		return trivialResult(rec, res)
	}
	total := len(r.roots)

	// Shard restriction: clamp [RootLo, RootHi) onto the frontier. An
	// empty slice is a vacuously exhausted shard — no roots explored, no
	// witness, definitively Out *within the shard*.
	lo, hi := max(opts.RootLo, 0), opts.RootHi
	if hi <= 0 || hi > total {
		hi = total
	}
	if lo >= hi {
		return trivialResult(rec, Result{Exhausted: true, WitnessRoot: -1, Stats: Stats{Roots: total}})
	}

	workers := max(min(opts.Workers, hi-lo), 1)
	chunk := int64(budgetChunk)
	// The memo cap is per run; each worker's table gets an equal share.
	memoCap := opts.MaxMemoBytes
	if workers == 1 {
		chunk = 1
	} else if memoCap > 0 {
		memoCap = max(memoCap/int64(workers), 1)
	}
	sh := &r.sh
	sh.reset(ctx, opts.Budget, chunk, rec)
	sh.roots, sh.rootOff = r.roots[lo:hi], lo
	sh.rootEvents = rec != nil && (workers > 1 || hi-lo < total)
	if rec != nil {
		obs.Emit(rec, obs.Event{Kind: obs.RunStart, Total: hi - lo, N: opts.Budget, Live: sh.live})
	}
	e := &r.e
	e.start(sh, opts, memoCap)
	// The empty state is the root loop's parent: its prologue runs once
	// per run, on worker 0, and so does its epilogue once the run has
	// refuted it.
	var others []engine
	st := e.enter()
	if st == stOpen {
		others = r.claimRoots(opts, workers, memoCap)
	}

	// The lowest root with a witness wins, whichever governors fired
	// elsewhere. A worker stops early only for a governor or a lower
	// root's witness, so without a witness the run is exhaustive exactly
	// when no governor fired, and its empty state is then refuted.
	res := Result{WitnessRoot: -1}
	best := sh.bestRoot.Load()
	switch {
	case best < math.MaxInt64:
		res.Found, res.Exhausted, res.WitnessRoot = true, true, lo+int(best)
	case sh.stopReason() != StopNone:
		res.Stop = sh.stopReason()
	default:
		res.Exhausted = true
		if st == stOpen {
			e.refute()
		}
	}
	for i := -1; i < len(others); i++ {
		w := e
		if i >= 0 {
			w = &others[i]
		}
		if res.Found && w.myRoot == best {
			res.Order = append([]dag.Node(nil), w.order...)
		}
		if sh.live != nil {
			w.publishLive()
		}
		w.stats.MemoBytes = w.memo.bytes()
		w.stats.MemoSpilled = w.memo.spilled
		res.Stats.Add(w.stats)
	}
	res.Stats.Roots = total
	res.Stats.Workers = workers
	if rec != nil {
		obs.Emit(rec, obs.Event{Kind: obs.RunEnd, Str: res.Verdict().String(), Stats: obsStats(res.Stats)})
	}
	return res
}

// claimRoots runs the root loop on workers engines: worker 0 is r's
// engine, on the calling goroutine, and every further worker gets an
// engine of its own on a goroutine. It returns those engines once every
// worker has stopped.
func (r *Runner) claimRoots(opts Options, workers int, memoCap int64) []engine {
	if workers == 1 {
		r.e.claim()
		return nil
	}
	others := make([]engine, workers-1)
	var wg sync.WaitGroup
	for i := range others {
		w := &others[i]
		w.bind(&r.p)
		w.start(&r.sh, opts, memoCap)
		w.worker = i + 1
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.claim()
		}()
	}
	r.e.claim()
	wg.Wait()
	return others
}

// trivialResult reports a search that resolved before the engine
// started (statically unsat, empty problem, empty first-choice
// frontier) so recorded sessions still see one run per decision.
func trivialResult(rec obs.Recorder, res Result) Result {
	if rec != nil {
		obs.Emit(rec, obs.Event{Kind: obs.RunStart})
		obs.Emit(rec, obs.Event{Kind: obs.RunEnd, Str: res.Verdict().String(), Stats: obsStats(res.Stats)})
	}
	return res
}
