package search_test

import (
	"sync"
	"testing"

	"repro/internal/dag"
	"repro/internal/obs"
	"repro/internal/search"
)

// The engine's event stream contract: one RunStart/RunEnd pair per
// decision whose stats equal the result's, root lifecycle events on
// parallel and sharded runs, and a GovernorFired exactly once when a
// budget stops the run.

type eventLog struct {
	mu  sync.Mutex
	evs []obs.Event
}

func (l *eventLog) Record(ev obs.Event) {
	l.mu.Lock()
	l.evs = append(l.evs, ev)
	l.mu.Unlock()
}

func (l *eventLog) byKind(k obs.Kind) []obs.Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []obs.Event
	for _, ev := range l.evs {
		if ev.Kind == k {
			out = append(out, ev)
		}
	}
	return out
}

func TestRunEmitsRunEvents(t *testing.T) {
	for _, w := range workersSweep() {
		log := &eventLog{}
		g := dag.Grid(3, 3)
		res := search.Run(unconstrainedSpec(g), search.Options{Workers: w, Recorder: log})
		if !res.Found {
			t.Fatalf("workers=%d: %+v", w, res)
		}
		starts := log.byKind(obs.RunStart)
		ends := log.byKind(obs.RunEnd)
		if len(starts) != 1 || len(ends) != 1 {
			t.Fatalf("workers=%d: %d starts, %d ends", w, len(starts), len(ends))
		}
		if starts[0].Total != res.Stats.Roots || starts[0].Live == nil {
			t.Errorf("workers=%d: RunStart %+v", w, starts[0])
		}
		if ends[0].Str != "IN" || ends[0].Stats == nil {
			t.Fatalf("workers=%d: RunEnd %+v", w, ends[0])
		}
		if ends[0].Stats.States != res.Stats.States || ends[0].Stats.Workers != res.Stats.Workers {
			t.Errorf("workers=%d: RunEnd stats %+v vs result %+v", w, *ends[0].Stats, res.Stats)
		}
	}
}

func TestRunParallelEmitsRootEvents(t *testing.T) {
	log := &eventLog{}
	// 30 isolated nodes: every node is a root, so the parallel splitter
	// engages with plenty of roots to claim and (after the lowest root
	// wins instantly) to skip.
	g := dag.New(30)
	res := search.Run(unconstrainedSpec(g), search.Options{Workers: 4, Recorder: log})
	if !res.Found {
		t.Fatalf("%+v", res)
	}
	claimed := log.byKind(obs.RootClaimed)
	finished := log.byKind(obs.RootFinished)
	skipped := log.byKind(obs.RootSkipped)
	if len(claimed) == 0 || len(claimed) != len(finished) {
		t.Fatalf("%d claimed, %d finished", len(claimed), len(finished))
	}
	if len(claimed)+len(skipped) > res.Stats.Roots {
		t.Fatalf("claimed %d + skipped %d exceeds %d roots", len(claimed), len(skipped), res.Stats.Roots)
	}
	var found int
	for _, ev := range finished {
		switch ev.Str {
		case "found":
			found++
		case "exhausted", "aborted":
		default:
			t.Fatalf("RootFinished outcome %q", ev.Str)
		}
	}
	if found == 0 {
		t.Fatal("witness found but no RootFinished(found) event")
	}
}

// TestRootEventsOnParallelAndShardedRuns: root lifecycle events come
// from runs on more than one worker or over a slice of the frontier; a
// serial run of the whole frontier walks the same root loop silently.
func TestRootEventsOnParallelAndShardedRuns(t *testing.T) {
	spec := unconstrainedSpec(dag.New(6))
	for _, tc := range []struct {
		opts   search.Options
		events bool
	}{
		{search.Options{Workers: 1}, false},
		{search.Options{Workers: 1, RootLo: 0, RootHi: 6}, false},
		{search.Options{Workers: 1, RootLo: 2}, true},
		{search.Options{Workers: 1, RootHi: 3}, true},
		{search.Options{Workers: 2}, true},
	} {
		log := &eventLog{}
		tc.opts.Recorder = log
		res := search.Run(spec, tc.opts)
		claimed, skipped := log.byKind(obs.RootClaimed), log.byKind(obs.RootSkipped)
		if got := len(claimed)+len(skipped) > 0; got != tc.events {
			t.Fatalf("%+v: %d claimed, %d skipped", tc.opts, len(claimed), len(skipped))
		}
		if !res.Found || res.WitnessRoot != tc.opts.RootLo {
			t.Fatalf("%+v: %+v", tc.opts, res)
		}
		// Every root of the slice is either claimed or skipped.
		hi := tc.opts.RootHi
		if hi == 0 {
			hi = 6
		}
		if tc.events && len(claimed)+len(skipped) != hi-tc.opts.RootLo {
			t.Fatalf("%+v: %d claimed + %d skipped", tc.opts, len(claimed), len(skipped))
		}
	}
}

func TestBudgetEmitsGovernorOnce(t *testing.T) {
	for _, w := range []int{1, 4} {
		log := &eventLog{}
		// The unsat instance needs ~33k states to exhaust; a budget of
		// 100 (plus bounded parallel overdraw) stops it first.
		res := search.Run(unsatTwoReaderSpec(12), search.Options{Workers: w, Budget: 100, Recorder: log})
		if res.Found || res.Exhausted {
			t.Fatalf("workers=%d: budget 100 did not stop the run: %+v", w, res)
		}
		governors := log.byKind(obs.GovernorFired)
		if len(governors) != 1 {
			t.Fatalf("workers=%d: %d GovernorFired events", w, len(governors))
		}
		if governors[0].Str != "budget" {
			t.Fatalf("workers=%d: governor %q", w, governors[0].Str)
		}
		ends := log.byKind(obs.RunEnd)
		if len(ends) != 1 || ends[0].Str != "INCONCLUSIVE(budget)" {
			t.Fatalf("workers=%d: RunEnd %+v", w, ends)
		}
	}
}

func TestTrivialRunsStillEmit(t *testing.T) {
	// Statically unsat: the engine never starts, but a recorded session
	// still gets its RunStart/RunEnd pair.
	g := dag.New(2)
	g.MustAddEdge(0, 1)
	spec := search.Spec{
		Dag:      g,
		NumSlots: 1,
		WriteSlot: func(u dag.Node) int {
			if u == 0 {
				return 0
			}
			return -1
		},
		Allowed: func(_ int, u dag.Node) ([]dag.Node, bool) {
			if u == 1 {
				return []dag.Node{dag.None}, true
			}
			return nil, false
		},
	}
	log := &eventLog{}
	res := search.Run(spec, search.Options{Recorder: log})
	if res.Found || !res.Exhausted {
		t.Fatalf("%+v", res)
	}
	starts, ends := log.byKind(obs.RunStart), log.byKind(obs.RunEnd)
	if len(starts) != 1 || len(ends) != 1 {
		t.Fatalf("%d starts, %d ends", len(starts), len(ends))
	}
	if ends[0].Str != "OUT" {
		t.Fatalf("RunEnd %+v", ends[0])
	}
}

func TestMemoFreezeEvent(t *testing.T) {
	log := &eventLog{}
	// Exhausting the unsat instance wants ~270 KiB of memo; a 4 KiB cap
	// must freeze the table and report it exactly once per worker.
	res := search.Run(unsatTwoReaderSpec(12), search.Options{Workers: 1, MaxMemoBytes: 4096, Recorder: log})
	if res.Stats.MemoSpilled == 0 {
		t.Fatalf("memo never spilled under a 4 KiB cap: %+v", res.Stats)
	}
	if got := len(log.byKind(obs.MemoFreeze)); got != 1 {
		t.Fatalf("%d MemoFreeze events for one worker", got)
	}
}

// unsatTwoReaderSpec builds k parallel writers to one slot feeding two
// chained readers that demand different last writers with no write in
// between: unsatisfiable, but only an exhaustive sweep over the writer
// interleavings proves it (~33k states at k=12), so small budgets and
// memo caps trip governors deterministically.
func unsatTwoReaderSpec(k int) search.Spec {
	g := dag.New(k + 2)
	r1, r2 := dag.Node(k), dag.Node(k+1)
	for w := 0; w < k; w++ {
		g.MustAddEdge(dag.Node(w), r1)
	}
	g.MustAddEdge(r1, r2)
	return search.Spec{
		Dag:      g,
		NumSlots: 1,
		WriteSlot: func(u dag.Node) int {
			if int(u) < k {
				return 0
			}
			return -1
		},
		Allowed: func(_ int, u dag.Node) ([]dag.Node, bool) {
			switch u {
			case r1:
				return []dag.Node{0}, true
			case r2:
				return []dag.Node{1}, true
			}
			return nil, false
		},
	}
}
