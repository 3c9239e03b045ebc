package stream

import (
	"bytes"
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/checker"
	"repro/internal/dag"
	"repro/internal/search"
	"repro/internal/trace"
)

func loadCorpus(t testing.TB) map[string]*trace.NamedTrace {
	t.Helper()
	paths, _ := filepath.Glob(filepath.Join("..", "..", "testdata", "*.trace"))
	if len(paths) == 0 {
		t.Fatal("no trace corpus found")
	}
	out := make(map[string]*trace.NamedTrace, len(paths))
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		nt, err := trace.ParseTraceString(string(b))
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		out[filepath.Base(p)] = nt
	}
	return out
}

// randTopo returns a random topological sort of d (Kahn with random
// tie-breaks), so the differential tests cover many delivery orders.
func randTopo(d *dag.Dag, rng *rand.Rand) []dag.Node {
	n := d.NumNodes()
	indeg := make([]int, n)
	var ready []dag.Node
	for u := 0; u < n; u++ {
		indeg[u] = d.InDegree(dag.Node(u))
		if indeg[u] == 0 {
			ready = append(ready, dag.Node(u))
		}
	}
	order := make([]dag.Node, 0, n)
	for len(ready) > 0 {
		i := rng.Intn(len(ready))
		u := ready[i]
		ready[i] = ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		order = append(order, u)
		for _, s := range d.Succs(u) {
			indeg[s]--
			if indeg[s] == 0 {
				ready = append(ready, s)
			}
		}
	}
	return order
}

// stream feeds events into a fresh checker and returns it along with
// the violations surfaced during ingest (in order).
func streamEvents(t testing.TB, opts Options, events []Event) (*Checker, []Violation) {
	t.Helper()
	c := New(opts)
	var found []Violation
	for i, ev := range events {
		v, err := c.Ingest(ev)
		if err != nil {
			t.Fatalf("event %d (%+v): %v", i, ev, err)
		}
		if v != nil {
			found = append(found, *v)
		}
	}
	return c, found
}

// TestStreamDifferentialCorpus is the tentpole contract: for every
// corpus trace and several delivery orders, the streaming checker's
// final verdict text is byte-identical to the post-mortem checker on
// the completed trace, and any mid-stream violation is sound (the
// post-mortem verdict for that model is VIOLATED).
func TestStreamDifferentialCorpus(t *testing.T) {
	ctx := context.Background()
	for name, nt := range loadCorpus(t) {
		t.Run(name, func(t *testing.T) {
			lcWant := checker.VerifyLC(ctx, nt.Trace, checker.SearchOptions{}).Verdict
			scWant := checker.VerifySC(ctx, nt.Trace, checker.SearchOptions{}).Verdict

			rng := rand.New(rand.NewSource(11))
			for trial := 0; trial < 8; trial++ {
				var order []dag.Node
				var err error
				if trial == 0 {
					order, err = nt.Named.Comp.Dag().TopoSort()
					if err != nil {
						t.Fatal(err)
					}
				} else {
					order = randTopo(nt.Named.Comp.Dag(), rng)
				}
				events, err := EventsFromTraceOrder(nt, order)
				if err != nil {
					t.Fatal(err)
				}
				// Cadence 1 makes the cycle check run after every event:
				// maximum opportunity for an unsound early verdict.
				c, online := streamEvents(t, Options{CheckEvery: 1}, events)
				if !c.Ended() {
					t.Fatal("stream did not end")
				}
				f := c.Finish(ctx, checker.SearchOptions{}, search.StopNone)
				if got, want := checker.VerdictText(f.LC.Verdict), checker.VerdictText(lcWant); got != want {
					t.Fatalf("trial %d: LC %q, post-mortem %q", trial, got, want)
				}
				if got, want := checker.VerdictText(f.SC.Verdict), checker.VerdictText(scWant); got != want {
					t.Fatalf("trial %d: SC %q, post-mortem %q", trial, got, want)
				}
				for _, v := range online {
					for _, m := range v.Models {
						if m == "LC" && !lcWant.Out() {
							t.Fatalf("trial %d: online LC violation %+v but post-mortem says %s", trial, v, lcWant)
						}
						if m == "SC" && !scWant.Out() {
							t.Fatalf("trial %d: online SC violation %+v but post-mortem says %s", trial, v, scWant)
						}
					}
				}
			}
		})
	}
}

// TestTaintInstant: the read-read coherence violation is observable
// the moment the second read arrives — two events before end-of-stream.
func TestTaintInstant(t *testing.T) {
	nt := loadCorpus(t)["corr_violation.trace"]
	events, err := EventsFromTrace(nt)
	if err != nil {
		t.Fatal(err)
	}
	c := New(Options{})
	var got *Violation
	var at int
	for i, ev := range events {
		v, err := c.Ingest(ev)
		if err != nil {
			t.Fatal(err)
		}
		if v != nil && got == nil {
			got, at = v, i
		}
	}
	if got == nil {
		t.Fatal("no mid-stream violation on corr_violation")
	}
	if got.Kind != "taint" {
		t.Fatalf("kind = %q, want taint", got.Kind)
	}
	if len(got.Models) != 2 {
		t.Fatalf("models = %v, want LC and SC", got.Models)
	}
	if got.Node != "R2" || got.Loc != "x" {
		t.Fatalf("violation anchors %s/%s, want R2/x", got.Node, got.Loc)
	}
	// The violating read is the last node event, index len-2; the point
	// is that the verdict lands before the end event (index len-1).
	if at >= len(events)-1 {
		t.Fatalf("violation at event %d, not before end (%d events)", at, len(events))
	}
}

// TestMpStaleOnlyAtEnd: mid-stream, the message-passing trace is not
// violated — a completion with a concurrent flag write would explain
// it under SC — so the SC violation must appear only in the final
// post-mortem verdict. Guards against over-eager prefix verdicts.
func TestMpStaleOnlyAtEnd(t *testing.T) {
	nt := loadCorpus(t)["mp_stale.trace"]
	events, err := EventsFromTrace(nt)
	if err != nil {
		t.Fatal(err)
	}
	c, online := streamEvents(t, Options{CheckEvery: 1}, events)
	if len(online) != 0 {
		t.Fatalf("mid-stream violations %+v on a joker-explainable prefix", online)
	}
	f := c.Finish(context.Background(), checker.SearchOptions{}, search.StopNone)
	if got := checker.VerdictText(f.LC.Verdict); got != "explainable" {
		t.Fatalf("LC = %q", got)
	}
	if got := checker.VerdictText(f.SC.Verdict); got != "VIOLATED" {
		t.Fatalf("SC = %q", got)
	}
}

// TestDekkerBottomCycle: no single location is tainted, so only the
// cross-location cycle check can flag the interlocked ⊥-read
// obligations — and it must, before end-of-stream.
func TestDekkerBottomCycle(t *testing.T) {
	nt := loadCorpus(t)["dekker_bottom.trace"]
	events, err := EventsFromTrace(nt)
	if err != nil {
		t.Fatal(err)
	}
	c, online := streamEvents(t, Options{CheckEvery: 1}, events)
	if len(online) != 1 {
		t.Fatalf("violations = %+v, want exactly one", online)
	}
	v := online[0]
	if v.Kind != "cycle" {
		t.Fatalf("kind = %q, want cycle", v.Kind)
	}
	if len(v.Models) != 1 || v.Models[0] != "SC" {
		t.Fatalf("models = %v, want [SC] (the trace is LC-explainable)", v.Models)
	}
	f := c.Finish(context.Background(), checker.SearchOptions{}, search.StopNone)
	if got := checker.VerdictText(f.LC.Verdict); got != "explainable" {
		t.Fatalf("LC = %q", got)
	}
	if got := checker.VerdictText(f.SC.Verdict); got != "VIOLATED" {
		t.Fatalf("SC = %q", got)
	}
}

// TestOverrunPolicy: an overrun sheds events and degrades undecided
// models to the typed INCONCLUSIVE(overrun); violations found before
// the overrun stay definitive.
func TestOverrunPolicy(t *testing.T) {
	t.Run("undecided", func(t *testing.T) {
		nt := loadCorpus(t)["mp_stale.trace"]
		events, err := EventsFromTrace(nt)
		if err != nil {
			t.Fatal(err)
		}
		c, _ := streamEvents(t, Options{MaxEvents: 2}, events)
		if !c.Overrun() {
			t.Fatal("overrun not marked")
		}
		st := c.Stats()
		if st.Events != 2 || st.Shed != 2 {
			t.Fatalf("events=%d shed=%d, want 2/2", st.Events, st.Shed)
		}
		f := c.Finish(context.Background(), checker.SearchOptions{}, search.StopNone)
		for _, got := range []string{checker.VerdictText(f.LC.Verdict), checker.VerdictText(f.SC.Verdict)} {
			if got != "INCONCLUSIVE(overrun)" {
				t.Fatalf("verdict = %q, want INCONCLUSIVE(overrun)", got)
			}
		}
	})
	t.Run("violated-before-overrun", func(t *testing.T) {
		nt := loadCorpus(t)["corr_violation.trace"]
		events, err := EventsFromTrace(nt)
		if err != nil {
			t.Fatal(err)
		}
		// All three nodes fit; a fourth event trips the cap.
		extra := Event{Ev: EvNode, Name: "X", Op: "N"}
		events = append(events[:len(events)-1], extra, Event{Ev: EvEnd})
		c, online := streamEvents(t, Options{MaxEvents: 3}, events)
		if !c.Overrun() || len(online) != 1 {
			t.Fatalf("overrun=%v online=%+v", c.Overrun(), online)
		}
		f := c.Finish(context.Background(), checker.SearchOptions{}, search.StopNone)
		for _, got := range []string{checker.VerdictText(f.LC.Verdict), checker.VerdictText(f.SC.Verdict)} {
			if got != "VIOLATED" {
				t.Fatalf("verdict = %q, want VIOLATED (found before overrun)", got)
			}
		}
	})
}

// TestFinishCut: a stream cut short is never searched, since an
// incomplete trace can look explainable. Online-violated models report
// VIOLATED and the rest the cut's INCONCLUSIVE, unless the stream
// overran first.
func TestFinishCut(t *testing.T) {
	nt := loadCorpus(t)["dekker_bottom.trace"]
	events, err := EventsFromTrace(nt)
	if err != nil {
		t.Fatal(err)
	}
	events = events[:len(events)-1] // no end event
	for _, tc := range []struct {
		opts   Options
		lc, sc string
	}{
		{Options{CheckEvery: 1}, "INCONCLUSIVE(deadline)", "VIOLATED"},
		{Options{CheckEvery: 1, MaxEvents: 2}, "INCONCLUSIVE(overrun)", "INCONCLUSIVE(overrun)"},
	} {
		c, _ := streamEvents(t, tc.opts, events)
		f := c.Finish(context.Background(), checker.SearchOptions{}, search.StopDeadline)
		if got := checker.VerdictText(f.LC.Verdict); got != tc.lc {
			t.Errorf("%+v: LC = %q, want %q", tc.opts, got, tc.lc)
		}
		if got := checker.VerdictText(f.SC.Verdict); got != tc.sc {
			t.Errorf("%+v: SC = %q, want %q", tc.opts, got, tc.sc)
		}
		if f.LC.Stats.States+f.SC.Stats.States != 0 {
			t.Errorf("%+v: a cut stream was searched", tc.opts)
		}
	}
}

// TestProtocolErrors: malformed streams fail with a clear error at the
// offending event, never a panic or silent misparse.
func TestProtocolErrors(t *testing.T) {
	v1 := int64(1)
	locs := Event{Ev: EvLocs, Locs: []string{"x"}}
	w := Event{Ev: EvNode, Name: "W", Op: "W(x)", Val: &v1}
	for _, tc := range []struct {
		name string
		evs  []Event
		want string
	}{
		{"duplicate node", []Event{locs, w, w}, "duplicate node"},
		{"unknown pred", []Event{locs, {Ev: EvNode, Name: "R", Op: "R(x)", Val: &v1, Pred: []string{"nope"}}}, "undelivered node"},
		{"unknown loc", []Event{locs, {Ev: EvNode, Name: "A", Op: "W(y)", Val: &v1}}, "unknown location"},
		{"write without value", []Event{locs, {Ev: EvNode, Name: "A", Op: "W(x)"}}, "without a value"},
		{"read without value", []Event{locs, {Ev: EvNode, Name: "A", Op: "R(x)"}}, "needs val or bottom"},
		{"noop with value", []Event{locs, {Ev: EvNode, Name: "A", Op: "N", Val: &v1}}, "cannot carry a value"},
		{"write bottom", []Event{locs, {Ev: EvNode, Name: "A", Op: "W(x)", Bottom: true}}, "without a value"},
		{"second locs", []Event{locs, locs}, "must be first"},
		{"late locs", []Event{{Ev: EvNode, Name: "A", Op: "N"}, locs}, "must be first"},
		{"duplicate locations", []Event{{Ev: EvLocs, Locs: []string{"x", "x"}}}, "duplicate location"},
		{"event after end", []Event{locs, {Ev: EvEnd}, w}, "after end"},
		{"malformed op", []Event{locs, {Ev: EvNode, Name: "A", Op: "Q(x)"}}, "unknown op kind"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := New(Options{})
			var err error
			for _, ev := range tc.evs {
				if _, err = c.Ingest(ev); err != nil {
					break
				}
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error = %v, want substring %q", err, tc.want)
			}
		})
	}
}

// TestParseEventRejections: wire-level validation, including the
// in-band Undefined sentinel (satellite regression: ⊥ must be spelled
// {"bottom":true}, never the sentinel's numeric value).
func TestParseEventRejections(t *testing.T) {
	for _, tc := range []struct{ name, line, want string }{
		{"sentinel value", `{"ev":"node","name":"R","op":"R(x)","val":-9223372036854775808}`, "reserved for the Undefined sentinel"},
		{"val and bottom", `{"ev":"node","name":"R","op":"R(x)","val":1,"bottom":true}`, "both val and bottom"},
		{"unknown field", `{"ev":"node","name":"R","op":"R(x)","vall":1}`, "bad event"},
		{"no kind", `{"name":"R"}`, "without an \"ev\" kind"},
		{"unknown kind", `{"ev":"nodez"}`, "unknown event kind"},
		{"locs with node fields", `{"ev":"locs","locs":["x"],"name":"A"}`, "carries node fields"},
		{"end with fields", `{"ev":"end","name":"A"}`, "carries fields"},
		{"nameless node", `{"ev":"node","op":"N"}`, "without a name"},
		{"opless node", `{"ev":"node","name":"A"}`, "without an op"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseEvent([]byte(tc.line))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error = %v, want substring %q", err, tc.want)
			}
		})
	}
	// The neighbouring value still parses.
	ev, err := ParseEvent([]byte(`{"ev":"node","name":"R","op":"R(x)","val":-9223372036854775807}`))
	if err != nil || ev.Val == nil {
		t.Fatalf("near-sentinel value rejected: %v", err)
	}
}

// TestNDJSONRoundTrip: ParseEvent, line by line as the daemon reads a
// /v1/trace body, inverts WriteNDJSON.
func TestNDJSONRoundTrip(t *testing.T) {
	nt := loadCorpus(t)["mp_stale.trace"]
	events, err := EventsFromTrace(nt)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteNDJSON(&buf, events); err != nil {
		t.Fatal(err)
	}
	var got []Event
	for _, line := range bytes.Split(bytes.TrimSuffix(buf.Bytes(), []byte("\n")), []byte("\n")) {
		ev, err := ParseEvent(line)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, ev)
	}
	if len(got) != len(events) {
		t.Fatalf("round trip %d events, want %d", len(got), len(events))
	}
	for i := range got {
		a, b := got[i], events[i]
		av, bv := a.Val, b.Val
		a.Val, b.Val = nil, nil
		if a.Ev != b.Ev || a.Name != b.Name || a.Op != b.Op || a.Bottom != b.Bottom ||
			(av == nil) != (bv == nil) || (av != nil && *av != *bv) {
			t.Fatalf("event %d: %+v != %+v", i, got[i], events[i])
		}
	}
}

// TestStatsGauges spot-checks the exported gauges on a known stream.
func TestStatsGauges(t *testing.T) {
	nt := loadCorpus(t)["mp_stale.trace"]
	events, err := EventsFromTrace(nt)
	if err != nil {
		t.Fatal(err)
	}
	c, _ := streamEvents(t, Options{CheckEvery: 1000}, events[:len(events)-1])
	st := c.Stats()
	if st.Events != 4 || st.Nodes != 4 || st.Locs != 2 {
		t.Fatalf("events/nodes/locs = %d/%d/%d, want 4/4/2", st.Events, st.Nodes, st.Locs)
	}
	// data has one ⊥-read (Rd) and one anchor (Wd): frontier 2. flag
	// has anchors but no ⊥-reads: contributes nothing.
	if st.Frontier != 2 {
		t.Fatalf("frontier = %d, want 2", st.Frontier)
	}
	if st.CheckpointAge != 4 {
		t.Fatalf("checkpoint age = %d, want 4 (cadence 1000, no check yet)", st.CheckpointAge)
	}
	if st.Ended || st.Overrun {
		t.Fatalf("ended/overrun = %v/%v", st.Ended, st.Overrun)
	}
	// The end event flushes the cadence, so a late cycle would be
	// reported online rather than left to the end-of-stream search.
	v, err := c.Ingest(events[len(events)-1])
	if err != nil {
		t.Fatal(err)
	}
	if v != nil {
		t.Fatal("end-flush cycle check violated an SC-joker-feasible prefix")
	}
	st = c.Stats()
	if !st.Ended {
		t.Fatal("not ended after the end event")
	}
	if st.CheckpointAge != 0 {
		t.Fatalf("checkpoint age after end = %d, want 0 (end flushes the cadence)", st.CheckpointAge)
	}
}
