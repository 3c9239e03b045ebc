// Package obs is the observability layer of the decision stack: a
// zero-dependency (stdlib-only) event model that the search engine,
// the enumeration sweeps, the BACKER simulator, and the chaos harness
// report into, plus built-in recorders — Totals, the one counter fold
// that both ccmd's /statsz and the run report render, a periodic
// progress reporter, a machine-readable JSON run-report writer, and a
// span collector with a Chrome trace_event exporter.
//
// The design keeps the hot paths honest:
//
//   - The Recorder is nil by default and every producer checks that
//     before building an event, so the no-recorder configuration adds
//     no allocations and no calls to the per-state profile.
//   - Events are emitted at run/root/plan granularity, never per state.
//     Per-state work is visible only through Counters — live gauges the
//     workers publish into in batches (piggybacked on the cancellation
//     poll tick, one atomic add per few dozen states), and through the
//     per-worker Stats flushed once at worker exit.
//   - Recorders must tolerate concurrent Record calls: parallel root
//     splitting and sharded sweeps emit from every worker.
package obs

import (
	"sync/atomic"
	"time"
)

// Kind enumerates the event taxonomy.
type Kind uint8

const (
	// RunStart opens a named unit of decision work (one engine search,
	// one sweep, one exploration). Fields: Run, Total (roots/plans/edges
	// ahead, 0 = unknown), N (state budget, 0 = unlimited), Live (the
	// run's live gauges, nil when the producer publishes none).
	RunStart Kind = iota
	// RunEnd closes a run. Fields: Run, Str (outcome: a verdict spelling
	// like "IN"/"OUT"/"INCONCLUSIVE(budget)" or a producer-specific
	// summary), Stats (final counters, nil when the producer keeps none).
	RunEnd
	// PhaseStart marks a phase transition inside a run (a lattice edge,
	// a shrink stage). Fields: Run, Str (phase name).
	PhaseStart
	// RootClaimed: a parallel-splitting worker claimed a root branch.
	// Fields: Run, Worker, Root.
	RootClaimed
	// RootSkipped: a root was abandoned unexplored because a strictly
	// lower root already holds a witness. Fields: Run, Worker, Root.
	RootSkipped
	// RootFinished: a claimed root's subtree was resolved. Fields: Run,
	// Worker, Root, Str ("found", "exhausted", or "aborted").
	RootFinished
	// GovernorFired: a resource governor halted the run. Emitted once
	// per run (the stop reason is sticky). Fields: Run, Str (reason
	// spelling: "budget", "deadline", "cancelled", "memory").
	GovernorFired
	// MemoFreeze: a worker's failed-state memo table hit its byte cap
	// and froze. Fields: Run, Worker, N (table bytes at freeze).
	MemoFreeze
	// FaultInjected: the BACKER protocol skipped/delayed/corrupted an
	// action at an injector decision point. Fields: Run, Str (the chaos
	// codec kind, e.g. "skip-reconcile"), Src, Dst (nodes, -1 when not
	// applicable), Worker (processor), N (tick).
	FaultInjected
	// ShrinkStep: one accepted shrink iteration. Fields: Run, Str
	// (stage: "drop-event" or "truncate"), N (oracle runs so far),
	// Total (current plan length).
	ShrinkStep
	// PlanDone: one chaos exploration plan ran and was verified.
	// Fields: Run, N (plan index), Str (verdict spelling), Total
	// (events in the plan).
	PlanDone
	// PanicRecovered: a serving-stack recovery middleware caught a
	// handler panic and completed the exchange with a 500. Fields: Run
	// (endpoint and request ID), Str (the panic value followed by the
	// goroutine stack).
	PanicRecovered
	// ShardSent: the fleet coordinator dispatched a shard batch to a
	// replica. Fields: Run, Worker (replica index), Root (first shard
	// index in the batch), Total (shards in the batch), N (attempt,
	// 1-based).
	ShardSent
	// ShardRetry: a shard batch attempt failed and was requeued for
	// backoff. Fields: Run, Worker (replica index), Root, N (the failed
	// attempt, 1-based), Str (cause).
	ShardRetry
	// ShardHedge: a straggling shard batch was re-dispatched to a second
	// replica while the first attempt was still in flight. Fields: Run,
	// Worker (hedge replica index), Root.
	ShardHedge
	// ShardDone: a shard batch resolved. Fields: Run, Worker (replica
	// that answered, -1 when none did), Root, Str ("ok" or "lost" —
	// lost shards degrade the merged verdict to INCONCLUSIVE(fleet)).
	ShardDone
	// BreakerFlip: a replica's circuit breaker changed state. Fields:
	// Run, Worker (replica index), Str ("open", "half-open", "closed").
	BreakerFlip
	// StreamViolation: the online trace checker proved a stable
	// violation mid-stream. Fields: Run, Str (models and rule, e.g.
	// "LC,SC taint"), N (1-based node-event index).
	StreamViolation
	// StreamOverrun: a streaming ingest outran its bounded buffer and
	// the overflow policy began shedding events. Emitted once per
	// stream. Fields: Run, N (events ingested before the overrun).
	StreamOverrun
	// StreamDone: a trace stream finished (end event, disconnect, or
	// governance cutoff). Fields: Run, N (node events ingested), Total
	// (events shed), Str (final verdict summary, "LC=… SC=…").
	StreamDone

	numKinds
)

var kindNames = [numKinds]string{
	RunStart:        "run-start",
	RunEnd:          "run-end",
	PhaseStart:      "phase",
	RootClaimed:     "root-claimed",
	RootSkipped:     "root-skipped",
	RootFinished:    "root-finished",
	GovernorFired:   "governor",
	MemoFreeze:      "memo-freeze",
	FaultInjected:   "fault",
	ShrinkStep:      "shrink-step",
	PlanDone:        "plan-done",
	PanicRecovered:  "panic-recovered",
	ShardSent:       "shard-sent",
	ShardRetry:      "shard-retry",
	ShardHedge:      "shard-hedge",
	ShardDone:       "shard-done",
	BreakerFlip:     "breaker-flip",
	StreamViolation: "stream-violation",
	StreamOverrun:   "stream-overrun",
	StreamDone:      "stream-done",
}

// String returns the stable spelling of the kind (used in trace
// exports and reports).
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Counters is the set of live gauges a running search or sweep
// publishes. Workers add in batches; readers (the progress reporter)
// load concurrently. All fields are monotone within one run.
type Counters struct {
	// States counts search states expanded (for the engine) or pairs /
	// plans visited (for sweeps).
	States atomic.Int64
	// MemoBytes is the memo-table footprint summed over workers.
	MemoBytes atomic.Int64
	// Done counts completed work units: roots (engine), shards (sweeps),
	// plans (exploration).
	Done atomic.Int64
	// Slept counts engine children skipped by sleep-set pruning.
	Slept atomic.Int64
	// Skipped counts universe computations a reduced sweep covered by
	// orbit weighting instead of materializing them.
	Skipped atomic.Int64
}

// Stats is the final counter block attached to RunEnd events. It
// mirrors the engine's stats; sweep producers fill only the
// fields that apply (States = pairs or plans).
type Stats struct {
	States      int64 `json:"states"`
	MemoHits    int64 `json:"memo_hits"`
	Pruned      int64 `json:"pruned"`
	Memoized    int64 `json:"memoized"`
	MemoBytes   int64 `json:"memo_bytes"`
	MemoSpilled int64 `json:"memo_spilled"`
	// SleepSetPruned counts engine children skipped by sleep-set
	// pruning; SymmetrySkipped counts computations a reduced sweep
	// skipped as non-canonical; Orbits is the total class weight a
	// reduced sweep credited to its representatives.
	SleepSetPruned  int64 `json:"sleep_set_pruned"`
	SymmetrySkipped int64 `json:"symmetry_skipped"`
	Orbits          int64 `json:"orbits"`
	Roots           int   `json:"roots"`
	Workers         int   `json:"workers"`
}

// Event is one observation. Which fields are meaningful depends on
// Kind (see the Kind constants). Time is stamped by Emit when zero.
type Event struct {
	Kind   Kind
	Time   time.Time
	Run    string // run label (stamped by WithRun when empty)
	Worker int    // worker / processor id, 0 when not applicable
	Root   int    // root index, 0 when not applicable
	Total  int    // kind-specific cardinality (total roots, plan length…)
	N      int64  // kind-specific magnitude (budget, bytes, plan index…)
	Str    string // kind-specific detail (verdict, reason, fault kind…)
	// Src and Dst are fault-site node ids (-1 when not applicable).
	Src, Dst int
	Stats    *Stats    // RunEnd
	Live     *Counters // RunStart
}

// Recorder receives events. Implementations must be safe for
// concurrent use: parallel workers record without coordination.
// Producers treat a nil Recorder as "record nothing" — use Emit, which
// performs the nil check and timestamps the event.
type Recorder interface {
	Record(Event)
}

// Emit sends ev to rec, stamping Time if unset. It is safe on a nil
// recorder; producers call it unconditionally on cold paths.
func Emit(rec Recorder, ev Event) {
	if rec == nil {
		return
	}
	if ev.Time.IsZero() {
		ev.Time = time.Now()
	}
	rec.Record(ev)
}

// RecorderFunc adapts a function to the Recorder interface.
type RecorderFunc func(Event)

// Record calls f.
func (f RecorderFunc) Record(ev Event) { f(ev) }

// labeled stamps run labels: an unlabeled event takes run, and a
// labeled one gets prefix in front of its own label. Wrapping composes
// when it wraps (see WithRun and WithRunPrefix), so a stack of labels
// is one wrapper and an unlabeled event, which is every engine event,
// takes its label without building a string.
type labeled struct {
	rec    Recorder
	prefix string
	run    string
}

func (l labeled) Record(ev Event) {
	if ev.Run == "" {
		ev.Run = l.run
	} else if l.prefix != "" {
		ev.Run = l.prefix + ev.Run
	}
	l.rec.Record(ev)
}

// WithRun returns a recorder that labels unlabeled events with run
// before forwarding to rec. A nil rec stays nil, so producers keep
// their fast path, and an empty run returns rec unchanged. Over a
// recorder from WithRun or WithRunPrefix the label is composed once,
// here: WithRun(WithRunPrefix(rec, p), run) labels unlabeled events
// p+run.
func WithRun(rec Recorder, run string) Recorder {
	if rec == nil || run == "" {
		return rec
	}
	if l, ok := rec.(labeled); ok {
		return labeled{rec: l.rec, prefix: l.prefix, run: l.prefix + run}
	}
	return labeled{rec: rec, run: run}
}

// WithRunPrefix returns a recorder that prefixes every event's run
// label (empty or not) with prefix before forwarding to rec. A nil
// rec stays nil, and an empty prefix returns rec unchanged. The
// serving stack uses it to thread request IDs into the decision events
// its handlers produce.
func WithRunPrefix(rec Recorder, prefix string) Recorder {
	if rec == nil || prefix == "" {
		return rec
	}
	if l, ok := rec.(labeled); ok {
		prefix = l.prefix + prefix
		rec = l.rec
	}
	return labeled{rec: rec, prefix: prefix, run: prefix}
}

// multi fans events out to several recorders.
type multi []Recorder

func (m multi) Record(ev Event) {
	for _, r := range m {
		r.Record(ev)
	}
}

// Multi combines recorders. Nil entries are dropped; zero live
// recorders yield nil (the no-op), one yields it unwrapped.
func Multi(recs ...Recorder) Recorder {
	var live multi
	for _, r := range recs {
		if r != nil {
			live = append(live, r)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return live
}
