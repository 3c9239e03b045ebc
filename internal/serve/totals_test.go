package serve

import (
	"net/http"
	"sync/atomic"
	"testing"

	"repro/internal/memmodel"
	"repro/internal/obs"
)

// panicWhenArmed panics on the first RunStart after it is armed, so a
// test can pick which decision blows up.
type panicWhenArmed struct{ armed atomic.Bool }

func (p *panicWhenArmed) Record(ev obs.Event) {
	if ev.Kind == obs.RunStart && p.armed.CompareAndSwap(true, false) {
		panic("injected decision panic")
	}
}

// TestStatszAgreesWithReport: /statsz and a -report collector on the
// same server render the same fold, so after mixed traffic they agree
// field for field. Every counter is read right after the response that
// implies it, which also pins publish-before-respond.
func TestStatszAgreesWithReport(t *testing.T) {
	report := obs.NewReportCollector("ccmd", nil)
	panicker := &panicWhenArmed{}
	_, ts := testServer(t, Config{
		CacheBytes: 1 << 20,
		Recorder:   obs.Multi(report, panicker),
		Limits:     Limits{MaxEnumNodes: 2},
		// corr_violation has 3 node events and mp_stale 4, so only the
		// second overruns.
		Stream: StreamConfig{CheckEvery: 1, MaxEvents: 3},
	})
	ok := func(path string, req any) {
		t.Helper()
		if resp, data := postJSON(t, ts.URL+path, req); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s = %d: %s", path, resp.StatusCode, data)
		}
	}
	ok("/v1/check", CheckRequest{Pair: readTestdata(t, "figure2.ccm")})
	ok("/v1/check", CheckRequest{Pair: readTestdata(t, "dekker.ccm")})
	ok("/v1/check", CheckRequest{Pair: readTestdata(t, "figure2.ccm")}) // cached
	var items []BatchItem
	for _, m := range memmodel.ModelNames() {
		items = append(items, BatchItem{Pair: readTestdata(t, "litmus/iriw.ccm"), Model: m})
	}
	ok("/v1/batch", BatchRequest{Items: items})
	ok("/v1/enumerate", EnumerateRequest{MaxNodes: 2})
	for _, name := range []string{"corr_violation.trace", "mp_stale.trace"} {
		conn := openStream(t, ts.URL)
		conn.send(t, corpusEvents(t, name)...)
		conn.collectUntilFinal(t)
	}
	panicker.armed.Store(true)
	if resp, data := postJSON(t, ts.URL+"/v1/check", CheckRequest{Pair: readTestdata(t, "litmus/mp.ccm")}); resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("armed check = %d, want 500: %s", resp.StatusCode, data)
	}

	st := statsz(t, ts.URL)
	rep := report.Finish(0)
	var sum EngineTotals
	for _, r := range rep.Runs {
		sum.States += r.States
		sum.MemoHits += r.MemoHits
		sum.Pruned += r.Pruned
		sum.SleepSetPruned += r.SleepSetPruned
		sum.SymmetrySkipped += r.SymmetrySkipped
		sum.Orbits += r.Orbits
	}
	ev := rep.Events
	for _, c := range []struct {
		name           string
		statsz, report int64
	}{
		{"engine.runs", st.Engine.Runs, int64(len(rep.Runs))},
		{"engine.states", st.Engine.States, sum.States},
		{"engine.memo_hits", st.Engine.MemoHits, sum.MemoHits},
		{"engine.pruned", st.Engine.Pruned, sum.Pruned},
		{"engine.sleep_set_pruned", st.Engine.SleepSetPruned, sum.SleepSetPruned},
		{"engine.symmetry_skipped", st.Engine.SymmetrySkipped, sum.SymmetrySkipped},
		{"engine.orbits", st.Engine.Orbits, sum.Orbits},
		{"panics_recovered", st.PanicsRecovered, ev.PanicsRecovered},
		{"stream.done", st.Stream.Done, ev.StreamsDone},
		{"stream.events_ingested", st.Stream.EventsIngested, ev.TraceEventsIngested},
		{"stream.violations", st.Stream.Violations, ev.StreamViolations},
		{"stream.overruns", st.Stream.Overruns, ev.StreamOverruns},
	} {
		if c.statsz != c.report {
			t.Errorf("%s: statsz %d, report %d", c.name, c.statsz, c.report)
		}
	}
	// The traffic reached every counter compared above.
	if st.Engine.States == 0 || st.Engine.Orbits == 0 || st.PanicsRecovered != 1 ||
		st.Stream.Done != 2 || st.Stream.Violations == 0 || st.Stream.Overruns != 1 || st.Stream.Shed == 0 {
		t.Errorf("traffic missed a counter: %+v, panics %d", st, st.PanicsRecovered)
	}
}
