package obs

import "sync"

// RunTotals sums the Stats of every RunEnd, counting runs; ccmd's
// /statsz serves it as the engine block.
type RunTotals struct {
	Runs            int64 `json:"runs"`
	States          int64 `json:"states"`
	MemoHits        int64 `json:"memo_hits"`
	Pruned          int64 `json:"pruned"`
	SleepSetPruned  int64 `json:"sleep_set_pruned"`
	SymmetrySkipped int64 `json:"symmetry_skipped"`
	Orbits          int64 `json:"orbits"`
}

// Tally is a snapshot of Totals. Events.Decisions stays nil: counting
// by run label is the renderer's business. StreamShed sums
// StreamDone.Total, the events the streaming overflow policy shed.
type Tally struct {
	Runs       RunTotals
	Events     EventCounts
	StreamShed int64
}

// Totals is the one fold of the event stream: ReportCollector renders
// a report's events block from it and ccmd's /statsz its engine, panic
// and stream counters. Record does not allocate, because a serving
// process feeds it every run of every decision.
type Totals struct {
	mu sync.Mutex
	t  Tally
}

// Record folds one event.
func (t *Totals) Record(ev Event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e := &t.t.Events
	switch ev.Kind {
	case RunEnd:
		r := &t.t.Runs
		r.Runs++
		if st := ev.Stats; st != nil {
			r.States += st.States
			r.MemoHits += st.MemoHits
			r.Pruned += st.Pruned
			r.SleepSetPruned += st.SleepSetPruned
			r.SymmetrySkipped += st.SymmetrySkipped
			r.Orbits += st.Orbits
		}
	case GovernorFired:
		e.GovernorsFired++
	case MemoFreeze:
		e.MemoFreezes++
	case RootSkipped:
		e.RootsSkipped++
	case FaultInjected:
		e.FaultsInjected++
	case ShrinkStep:
		e.ShrinkSteps++
	case PlanDone:
		e.PlansDone++
		if ev.Str == "VIOLATED" || ev.Str == "OUT" {
			e.PlanViolations++
		}
	case PanicRecovered:
		e.PanicsRecovered++
	case ShardRetry:
		e.ShardRetries++
	case ShardHedge:
		e.ShardHedges++
	case ShardDone:
		if ev.Str == "lost" {
			e.ShardsLost++
		}
	case BreakerFlip:
		e.BreakerFlips++
	case StreamViolation:
		e.StreamViolations++
	case StreamOverrun:
		e.StreamOverruns++
	case StreamDone:
		e.StreamsDone++
		e.TraceEventsIngested += ev.N
		t.t.StreamShed += int64(ev.Total)
	}
}

// Snapshot returns the totals folded so far.
func (t *Totals) Snapshot() Tally {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.t
}
