package search

import (
	"context"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/bitset"
	"repro/internal/dag"
	"repro/internal/obs"
)

// Below the serial engine and the parallel root splitter. One engine
// owns one mutable search state (placed set, last-writer vector,
// in-degrees, partial order) and one failed-state memo table; the
// parallel path gives each worker its own engine and shares only the
// compiled problem, the state budget, and the lowest-successful-root
// register. A Runner owns the compiled problem, the serial engine and
// the governor block, and keeps their storage from one run to the next.

// rec outcomes.
const (
	stFail  int8 = iota // subtree exhausted, no witness
	stFound             // witness completed in e.order
	stAbort             // budget ran out or a lower root won
)

// budget batching: workers draw states in chunks to keep the shared
// atomic cold. Serial runs draw one at a time so the cap is exact.
const budgetChunk = 64

// With auto worker selection (Options.Workers == 0), problems smaller
// than this run serially: goroutine fan-out costs more than the search.
const parallelMinNodes = 24

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
	e.reset()
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

// reset restores the empty search state; the memo table survives
// (failed states are state-functions, valid across roots).
func (e *engine) reset() {
	e.placed.Clear()
	for i := range e.last {
		e.last[i] = dag.None
	}
	copy(e.indeg, e.p.indeg0)
	e.order = e.order[:0]
	clear(e.sleep)
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

// flushObs publishes the final gauge deltas and emits this worker's
// WorkerDone with its complete private counters. No-op without a
// recorder.
func (e *engine) flushObs() {
	if e.sh.rec == nil {
		return
	}
	e.publishLive()
	st := e.stats
	st.MemoBytes = e.memo.bytes()
	st.MemoSpilled = e.memo.spilled
	obs.Emit(e.sh.rec, obs.Event{Kind: obs.WorkerDone, Worker: e.worker, Stats: obsStats(st)})
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

// rec explores the subtree below the current state.
func (e *engine) rec(remaining int) int8 {
	if remaining == 0 {
		return stFound
	}
	if !e.takeState() {
		return stAbort
	}
	if e.cancelled() {
		return stAbort
	}
	e.stats.States++
	if e.memo.contains(e.encodeKey()) {
		e.stats.MemoHits++
		return stFail
	}
	if e.infeasible() {
		e.stats.Pruned++
		if e.memo.insert(e.encodeKey()) {
			e.stats.Memoized++
		}
		return stFail
	}
	pw := e.p.placedWords
	depth := e.p.n - remaining
	cur := e.sleep[depth*pw : (depth+1)*pw]
	child := e.sleep[(depth+1)*pw : (depth+2)*pw]
	for u := 0; u < e.p.n; u++ {
		if e.indeg[u] != 0 || e.placed.Contains(u) {
			continue
		}
		if !e.noSleep && cur[u>>6]&(1<<(uint(u)&63)) != 0 {
			// Asleep: this subtree is witness-free (see the package
			// comment's soundness argument).
			e.stats.SleepSetPruned++
			continue
		}
		node := dag.Node(u)
		if !e.admissible(node) {
			continue
		}
		if !e.noSleep {
			// The child wakes every placement that conflicts with u.
			crow := e.p.conflict[u*pw : (u+1)*pw]
			for i, w := range cur {
				child[i] = w &^ crow[i]
			}
		}
		prev := e.place(node)
		st := e.rec(remaining - 1)
		if st == stFound {
			return stFound
		}
		e.unplace(node, prev)
		if st == stAbort {
			return stAbort
		}
		// u's subtree is exhausted and empty: later siblings may skip
		// placing u while their placements commute with it.
		if !e.noSleep {
			cur[u>>6] |= 1 << (uint(u) & 63)
		}
	}
	// keyBuf was overwritten by the children; re-encode before storing.
	if e.memo.insert(e.encodeKey()) {
		e.stats.Memoized++
	}
	return stFail
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
// the size of its admissible root frontier — the same split the
// parallel engine fans workers over, and the unit a fleet coordinator
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
// Result equals a new Runner's field for field, Stats included (under
// parallel splitting the counters depend on the schedule either way);
// a found Order is a copy the Runner does not retain. The parallel
// root splitter still gives each worker an engine of its own.
func (r *Runner) Run(ctx context.Context, spec Spec, opts Options) Result {
	if err := ctx.Err(); err != nil {
		// Already cancelled: don't even compile.
		return Result{Stop: ctxStopReason(err), WitnessRoot: -1}
	}
	rec := opts.Recorder
	if res, done := r.plan(spec); done {
		return trivialResult(rec, res)
	}
	p := &r.p
	roots := r.roots
	total := len(roots)

	// Shard restriction: clamp [RootLo, RootHi) onto the frontier. An
	// empty slice is a vacuously exhausted shard — no roots explored, no
	// witness, definitively Out *within the shard*.
	lo, hi := opts.RootLo, opts.RootHi
	if lo < 0 {
		lo = 0
	}
	if hi <= 0 || hi > total {
		hi = total
	}
	sharded := lo > 0 || hi < total
	if lo >= hi {
		return trivialResult(rec, Result{Exhausted: true, WitnessRoot: -1, Stats: Stats{Roots: total}})
	}
	roots = roots[lo:hi]

	workers := opts.Workers
	auto := workers == 0
	if auto {
		workers = runtime.GOMAXPROCS(0)
		if p.n < parallelMinNodes {
			workers = 1
		}
	}
	if workers > len(roots) {
		workers = len(roots)
	}
	if workers < 1 {
		workers = 1
	}
	chunk := int64(budgetChunk)
	if workers <= 1 {
		chunk = 1
	}
	sh := &r.sh
	sh.reset(ctx, opts.Budget, chunk, rec)
	if rec != nil {
		obs.Emit(rec, obs.Event{Kind: obs.RunStart, Total: len(roots), N: opts.Budget, Live: sh.live})
	}
	var res Result
	if workers <= 1 && !sharded {
		res = r.runSerial(opts, len(roots))
	} else {
		// A sharded run always takes the per-root path, even with one
		// worker: the serial whole-tree engine cannot skip frontier
		// branches, and per-root exploration is exactly what the
		// parallel determinism argument covers — so a shard's witness
		// for root r matches the unsharded run's witness for root r.
		res = runParallel(p, sh, opts, roots, workers, lo)
	}
	res.Stats.Roots = total
	res.WitnessRoot = -1
	if res.Found && len(res.Order) > 0 {
		// Order[0] is the chosen root; report its global frontier index.
		for i, root := range roots {
			if root == res.Order[0] {
				res.WitnessRoot = lo + i
				break
			}
		}
	}
	if rec != nil {
		obs.Emit(rec, obs.Event{Kind: obs.RunEnd, Str: res.Verdict().String(), Stats: obsStats(res.Stats)})
	}
	return res
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

// runSerial explores the whole tree on r's engine, which plan bound.
func (r *Runner) runSerial(opts Options, numRoots int) Result {
	e := &r.e
	e.start(&r.sh, opts, opts.MaxMemoBytes)
	st := e.rec(r.p.n)
	e.flushObs()
	e.stats.Roots = numRoots
	e.stats.Workers = 1
	e.stats.MemoBytes = e.memo.bytes()
	e.stats.MemoSpilled = e.memo.spilled
	res := Result{Stats: e.stats, Exhausted: st != stAbort}
	if st == stFound {
		res.Found = true
		res.Exhausted = true
		res.Order = append([]dag.Node(nil), e.order...)
	}
	if !res.Exhausted {
		res.Stop = r.sh.stopReason()
	}
	return res
}

type rootOutcome struct {
	order []dag.Node
	found bool
	// done marks a root whose subtree was exhausted without a witness.
	// A root neither found nor done was aborted or never claimed; the
	// run is then exhaustive only if some other root holds a witness.
	done bool
}

// runParallel explores roots with per-root engines. rootOff is the
// global frontier index of roots[0], so shard runs report root events
// in frontier coordinates.
func runParallel(p *problem, sh *shared, opts Options, roots []dag.Node, workers int, rootOff int) Result {
	// The memo cap is per run; each worker's private table gets an
	// equal share so the sum respects Options.MaxMemoBytes.
	memoCap := opts.MaxMemoBytes
	if memoCap > 0 {
		memoCap /= int64(workers)
		if memoCap < 1 {
			memoCap = 1
		}
	}
	outcomes := make([]rootOutcome, len(roots))
	engines := make([]*engine, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			e := &engine{}
			e.bind(p)
			e.start(sh, opts, memoCap)
			e.worker = w
			engines[w] = e
			defer e.flushObs()
			for {
				r := next.Add(1) - 1
				if r >= int64(len(roots)) || sh.halted() {
					return
				}
				// A strictly lower root already holds a witness: this
				// root's outcome cannot win, skip it.
				if sh.bestRoot.Load() < r {
					if sh.rec != nil {
						obs.Emit(sh.rec, obs.Event{Kind: obs.RootSkipped, Worker: w, Root: rootOff + int(r)})
						sh.live.Done.Add(1)
					}
					continue
				}
				if sh.rec != nil {
					obs.Emit(sh.rec, obs.Event{Kind: obs.RootClaimed, Worker: w, Root: rootOff + int(r)})
				}
				e.reset()
				e.myRoot = r
				e.stats.States++ // the root state itself
				e.place(roots[r])
				st := e.rec(p.n - 1)
				switch st {
				case stFound:
					sh.casMinRoot(r)
					outcomes[r] = rootOutcome{
						order: append([]dag.Node(nil), e.order...),
						found: true,
					}
				case stFail:
					outcomes[r] = rootOutcome{done: true}
				}
				if sh.rec != nil {
					outcome := "aborted"
					switch st {
					case stFound:
						outcome = "found"
					case stFail:
						outcome = "exhausted"
					}
					obs.Emit(sh.rec, obs.Event{Kind: obs.RootFinished, Worker: w, Root: rootOff + int(r), Str: outcome})
					sh.live.Done.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()

	var res Result
	for _, e := range engines {
		if e != nil {
			e.stats.MemoBytes = e.memo.bytes()
			e.stats.MemoSpilled = e.memo.spilled
			res.Stats.Add(e.stats)
		}
	}
	res.Stats.Roots = len(roots)
	res.Stats.Workers = workers
	// The lowest found root wins: its witness is the deterministic
	// answer regardless of which governors fired elsewhere.
	for r := range outcomes {
		if outcomes[r].found {
			res.Found = true
			res.Order = outcomes[r].order
			res.Exhausted = true
			return res
		}
	}
	// No witness: the answer is definitive only if every root subtree
	// was exhausted. Roots aborted (budget, deadline, cancel) or never
	// claimed after a governor fired leave the instance undecided.
	res.Exhausted = true
	for r := range outcomes {
		if !outcomes[r].done {
			res.Exhausted = false
			res.Stop = sh.stopReason()
			break
		}
	}
	return res
}
