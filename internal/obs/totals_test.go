package obs

import (
	"sync"
	"testing"
)

// TestTotalsFold: RunEnd stats sum (a RunEnd without stats still
// counts as a run), StreamDone feeds the ingest and shed sums, and the
// conditional kinds count only their failing outcomes.
func TestTotalsFold(t *testing.T) {
	var tot Totals
	tot.Record(Event{Kind: RunStart, Run: "SC"})
	tot.Record(Event{Kind: RunEnd, Run: "SC", Stats: &Stats{States: 5, MemoHits: 1, Pruned: 2, SleepSetPruned: 3, SymmetrySkipped: 4, Orbits: 6}})
	tot.Record(Event{Kind: RunEnd, Run: "stream"})
	tot.Record(Event{Kind: StreamDone, N: 40, Total: 7})
	tot.Record(Event{Kind: ShardDone, Str: "ok"})
	tot.Record(Event{Kind: ShardDone, Str: "lost"})
	tot.Record(Event{Kind: PlanDone, Str: "OUT"})
	tot.Record(Event{Kind: PlanDone, Str: "OK"})
	got := tot.Snapshot()
	want := RunTotals{Runs: 2, States: 5, MemoHits: 1, Pruned: 2, SleepSetPruned: 3, SymmetrySkipped: 4, Orbits: 6}
	if got.Runs != want {
		t.Errorf("runs = %+v, want %+v", got.Runs, want)
	}
	e := got.Events
	if e.StreamsDone != 1 || e.TraceEventsIngested != 40 || got.StreamShed != 7 ||
		e.ShardsLost != 1 || e.PlansDone != 2 || e.PlanViolations != 1 || e.Decisions != nil {
		t.Errorf("tally = %+v", got)
	}
}

// TestTotalsRecordAllocs: a serving process records every run of
// every decision, so the fold must not allocate.
func TestTotalsRecordAllocs(t *testing.T) {
	var tot Totals
	ev := Event{Kind: RunEnd, Run: "SC", Stats: &Stats{States: 3}}
	if n := testing.AllocsPerRun(100, func() { tot.Record(ev) }); n != 0 {
		t.Errorf("Record allocates %.1f times per event, want 0", n)
	}
}

// TestTotalsConcurrent: Record from several goroutines while others
// snapshot; every snapshot is internally consistent (the fold applies
// each event atomically) and the final one holds every event. Run
// under -race in CI.
func TestTotalsConcurrent(t *testing.T) {
	const writers, perWriter = 4, 500
	var tot Totals
	var wg sync.WaitGroup
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := tot.Snapshot()
			if s.Runs.States != 2*s.Runs.Runs || s.StreamShed != s.Events.StreamsDone {
				t.Errorf("torn snapshot: %+v", s)
				return
			}
		}
	}()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				tot.Record(Event{Kind: RunEnd, Stats: &Stats{States: 2}})
				tot.Record(Event{Kind: StreamDone, N: 3, Total: 1})
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-readerDone
	s := tot.Snapshot()
	const n = writers * perWriter
	if s.Runs.Runs != n || s.Runs.States != 2*n || s.Events.StreamsDone != n ||
		s.Events.TraceEventsIngested != 3*n || s.StreamShed != n {
		t.Errorf("final tally = %+v, want %d of each event", s, n)
	}
}
