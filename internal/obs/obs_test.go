package obs

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// collector is a trivial thread-safe recorder for tests.
type collector struct {
	mu  sync.Mutex
	evs []Event
}

func (c *collector) Record(ev Event) {
	c.mu.Lock()
	c.evs = append(c.evs, ev)
	c.mu.Unlock()
}

func (c *collector) events() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Event(nil), c.evs...)
}

func TestKindStrings(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		if k.String() == "" || k.String() == "unknown" {
			t.Errorf("kind %d has no name", k)
		}
	}
	if Kind(200).String() != "unknown" {
		t.Errorf("out-of-range kind: %q", Kind(200).String())
	}
}

func TestEmit(t *testing.T) {
	// nil recorder: must not panic.
	Emit(nil, Event{Kind: RunStart})

	c := &collector{}
	Emit(c, Event{Kind: RunStart})
	stamped := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	Emit(c, Event{Kind: RunEnd, Time: stamped})
	evs := c.events()
	if len(evs) != 2 {
		t.Fatalf("got %d events", len(evs))
	}
	if evs[0].Time.IsZero() {
		t.Error("Emit did not stamp a zero time")
	}
	if !evs[1].Time.Equal(stamped) {
		t.Error("Emit overwrote a pre-stamped time")
	}
}

// TestWithRun holds the composed label wrapper to the labels of one
// wrapper per call: WithRun stamps unlabeled events, WithRunPrefix
// prefixes every label, and the outer wrapper acts first.
func TestWithRun(t *testing.T) {
	for _, nilRec := range []Recorder{
		WithRun(nil, "x"),
		WithRunPrefix(nil, "id "),
		WithRun(WithRunPrefix(nil, "id "), "SC"),
	} {
		if nilRec != nil {
			t.Fatal("a nil recorder must stay nil to keep producer fast paths")
		}
	}
	for _, tc := range []struct {
		name             string
		wrap             func(Recorder) Recorder
		unlabeled, label string // the labels of "" and of "X"
	}{
		{"WithRun", func(r Recorder) Recorder { return WithRun(r, "SC") }, "SC", "X"},
		{"WithRunPrefix", func(r Recorder) Recorder { return WithRunPrefix(r, "id ") }, "id ", "id X"},
		{"WithRun over WithRunPrefix", func(r Recorder) Recorder { return WithRun(WithRunPrefix(r, "id "), "SC") }, "id SC", "id X"},
		{"WithRun over WithRun", func(r Recorder) Recorder { return WithRun(WithRun(r, "A"), "B") }, "B", "X"},
		{"WithRunPrefix over WithRun", func(r Recorder) Recorder { return WithRunPrefix(WithRun(r, "A"), "p ") }, "p ", "p X"},
		{"WithRunPrefix over WithRunPrefix", func(r Recorder) Recorder { return WithRunPrefix(WithRunPrefix(r, "a "), "b ") }, "a b ", "a b X"},
		{"WithRun over WithRunPrefix over WithRun", func(r Recorder) Recorder {
			return WithRun(WithRunPrefix(WithRun(r, "A"), "id "), "SC")
		}, "id SC", "id X"},
		{"empty prefix", func(r Recorder) Recorder { return WithRunPrefix(r, "") }, "", "X"},
		{"empty run", func(r Recorder) Recorder { return WithRun(r, "") }, "", "X"},
		{"empty run over WithRunPrefix", func(r Recorder) Recorder { return WithRun(WithRunPrefix(r, "id "), "") }, "id ", "id X"},
	} {
		c := &collector{}
		rec := tc.wrap(c)
		rec.Record(Event{Kind: RunStart})
		rec.Record(Event{Kind: RunEnd, Run: "X"})
		evs := c.events()
		if evs[0].Run != tc.unlabeled || evs[1].Run != tc.label {
			t.Errorf("%s: labels %q and %q, want %q and %q", tc.name, evs[0].Run, evs[1].Run, tc.unlabeled, tc.label)
		}
	}
}

// TestWithRunAllocs: the label of an unlabeled event through a request
// prefix and a model label was composed when the wrappers were built.
func TestWithRunAllocs(t *testing.T) {
	var last string
	rec := WithRun(WithRunPrefix(RecorderFunc(func(ev Event) { last = ev.Run }), "id "), "SC")
	if allocs := testing.AllocsPerRun(100, func() { rec.Record(Event{Kind: RunStart}) }); allocs != 0 {
		t.Fatalf("%v allocs per unlabeled event", allocs)
	}
	if last != "id SC" {
		t.Fatalf("label %q", last)
	}
}

func TestMulti(t *testing.T) {
	if Multi() != nil || Multi(nil, nil) != nil {
		t.Fatal("empty Multi must be nil")
	}
	c := &collector{}
	if got := Multi(nil, c, nil); got != Recorder(c) {
		t.Fatal("single-recorder Multi must unwrap")
	}
	c2 := &collector{}
	m := Multi(c, c2)
	m.Record(Event{Kind: GovernorFired})
	if len(c.events()) != 1 || len(c2.events()) != 1 {
		t.Fatal("Multi did not fan out")
	}
}

func TestProgressLine(t *testing.T) {
	var buf bytes.Buffer
	var mu sync.Mutex
	w := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(p)
	})
	p := NewProgress(w, 5*time.Millisecond)
	live := &Counters{}
	live.States.Store(12_345_000)
	live.MemoBytes.Store(3 << 20)
	live.Done.Store(2)
	live.Slept.Store(42_000)
	live.Skipped.Store(1_234_567)
	p.Record(Event{Kind: RunStart, Run: "SC", Live: live, Total: 8, N: 50_000_000, Time: time.Now()})

	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		s := buf.String()
		mu.Unlock()
		if strings.Contains(s, "SC:") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no progress line within 2s")
		}
		time.Sleep(time.Millisecond)
	}
	p.Record(Event{Kind: RunEnd, Run: "SC", Time: time.Now()})
	p.Close()

	mu.Lock()
	out := buf.String()
	mu.Unlock()
	for _, want := range []string{"SC:", "states", "memo 3.0 MiB", "slept 42k", "sym-skip 1235k", "done 2/8", "budget"} {
		if !strings.Contains(out, want) {
			t.Errorf("progress output missing %q in %q", want, out)
		}
	}
	// Runs without live counters must not report.
	if strings.Contains(out, "quiet") {
		t.Error("run without counters produced a line")
	}
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

func TestReportCollector(t *testing.T) {
	c := NewReportCollector("ccmc", []string{"-demo", "-report", "r.json"})
	base := time.Now()
	c.Record(Event{Kind: RunStart, Run: "SC", Time: base})
	c.Record(Event{Kind: GovernorFired, Str: "budget", Time: base})
	c.Record(Event{Kind: RootSkipped, Time: base})
	c.Record(Event{Kind: MemoFreeze, Time: base})
	c.Record(Event{Kind: FaultInjected, Str: "skip-flush", Time: base})
	c.Record(Event{Kind: ShrinkStep, Time: base})
	c.Record(Event{Kind: PlanDone, Str: "VIOLATED", Time: base})
	c.Record(Event{Kind: PlanDone, Str: "OK", Time: base})
	c.Record(Event{
		Kind: RunEnd, Run: "SC", Str: "INCONCLUSIVE(budget)", Time: base.Add(250 * time.Millisecond),
		Stats: &Stats{States: 1000, MemoHits: 10, Pruned: 5, Memoized: 900, MemoBytes: 4096,
			SleepSetPruned: 77, SymmetrySkipped: 88, Orbits: 99, Roots: 3, Workers: 2},
	})

	rep := c.Finish(3)
	if rep.Tool != "ccmc" || rep.ExitCode != 3 {
		t.Fatalf("header: %+v", rep)
	}
	if len(rep.Runs) != 1 {
		t.Fatalf("runs: %+v", rep.Runs)
	}
	rr := rep.Runs[0]
	if rr.Name != "SC" || rr.Outcome != "INCONCLUSIVE(budget)" || rr.States != 1000 || rr.Workers != 2 {
		t.Fatalf("run report: %+v", rr)
	}
	if rr.SleepSetPruned != 77 || rr.SymmetrySkipped != 88 || rr.Orbits != 99 {
		t.Fatalf("symmetry gauges lost: %+v", rr)
	}
	if rr.WallMS < 249 || rr.WallMS > 260 {
		t.Errorf("run wall time %v", rr.WallMS)
	}
	ec := rep.Events
	if ec.GovernorsFired != 1 || ec.RootsSkipped != 1 || ec.MemoFreezes != 1 ||
		ec.FaultsInjected != 1 || ec.ShrinkSteps != 1 || ec.PlansDone != 2 || ec.PlanViolations != 1 {
		t.Fatalf("event counts: %+v", ec)
	}

	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
}

const testSchema = `{
  "required": {
    "tool": "string",
    "args": "array",
    "start": "string",
    "wall_ms": "number",
    "cpu_ms": "number",
    "exit_code": "number",
    "runs": "array",
    "events": "object",
    "events.governors_fired": "number",
    "events.plans_done": "number"
  },
  "runs_item": {
    "name": "string",
    "outcome": "string",
    "states": "number",
    "workers": "number"
  }
}`

func TestValidateReportRoundTrip(t *testing.T) {
	c := NewReportCollector("verify", []string{"-trace", "x"})
	c.Record(Event{Kind: RunStart, Run: "r", Time: time.Now()})
	c.Record(Event{Kind: RunEnd, Run: "r", Str: "IN", Stats: &Stats{States: 7}, Time: time.Now()})
	var buf bytes.Buffer
	if err := c.Finish(0).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ValidateReport(buf.Bytes(), []byte(testSchema)); err != nil {
		t.Fatalf("real report fails schema: %v", err)
	}
}

// The checked-in schema CI validates real CLI reports against must
// itself accept a freshly collected report, or scripts/report-check.sh
// would reject every build.
func TestCheckedInSchemaAcceptsRealReport(t *testing.T) {
	schema, err := os.ReadFile(filepath.Join("..", "..", "testdata", "report.schema.json"))
	if err != nil {
		t.Fatal(err)
	}
	c := NewReportCollector("ccmc", []string{"testdata/figure2.ccm"})
	c.Record(Event{Kind: RunStart, Run: "SC", Time: time.Now()})
	c.Record(Event{Kind: RunEnd, Run: "SC", Str: "OUT", Stats: &Stats{States: 4, Workers: 1}, Time: time.Now()})
	var buf bytes.Buffer
	if err := c.Finish(0).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ValidateReport(buf.Bytes(), schema); err != nil {
		t.Fatalf("checked-in schema rejects a real report: %v", err)
	}
}

func TestValidateReportViolations(t *testing.T) {
	bad := `{"tool": 7, "runs": [{"name": "x"}, "oops"]}`
	err := ValidateReport([]byte(bad), []byte(testSchema))
	if err == nil {
		t.Fatal("bad report passed validation")
	}
	msg := err.Error()
	for _, want := range []string{
		"tool: number, want string",
		"wall_ms: missing",
		"runs[0].outcome: missing",
		"runs[1]: not an object",
	} {
		if !strings.Contains(msg, want) {
			t.Errorf("violations missing %q:\n%s", want, msg)
		}
	}
	if err := ValidateReport([]byte("{"), []byte(testSchema)); err == nil {
		t.Error("malformed report JSON passed")
	}
	if err := ValidateReport([]byte("{}"), []byte("{")); err == nil {
		t.Error("malformed schema JSON passed")
	}
}

func TestSpanCollector(t *testing.T) {
	s := NewSpanCollector()
	base := time.Now()
	s.Record(Event{Kind: RunStart, Run: "SC", Time: base})
	s.Record(Event{Kind: RootClaimed, Run: "SC", Worker: 1, Root: 4, Time: base.Add(time.Millisecond)})
	s.Record(Event{Kind: GovernorFired, Run: "SC", Str: "budget", Time: base.Add(2 * time.Millisecond)})
	s.Record(Event{Kind: RootFinished, Run: "SC", Worker: 1, Root: 4, Str: "found", Time: base.Add(3 * time.Millisecond)})
	s.Record(Event{Kind: RunEnd, Run: "SC", Str: "IN", Time: base.Add(4 * time.Millisecond)})
	if s.Len() != 3 {
		t.Fatalf("want 3 closed spans/instants, got %d", s.Len())
	}

	var buf bytes.Buffer
	if err := s.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("trace is not a JSON array: %v", err)
	}
	var phX, phI int
	names := map[string]bool{}
	for _, ev := range events {
		names[ev["name"].(string)] = true
		switch ev["ph"] {
		case "X":
			phX++
			if ev["dur"].(float64) <= 0 {
				t.Errorf("X event with no duration: %v", ev)
			}
		case "i":
			phI++
		}
	}
	if phX != 2 || phI != 1 {
		t.Fatalf("want 2 X + 1 i events, got %d X %d i", phX, phI)
	}
	if !names["SC"] || !names["root 4"] || !names["governor"] {
		t.Fatalf("trace names: %v", names)
	}
}

func TestSpanCollectorClosesOpenSpans(t *testing.T) {
	s := NewSpanCollector()
	s.Record(Event{Kind: RunStart, Run: "stuck", Time: time.Now().Add(-time.Second)})
	var buf bytes.Buffer
	if err := s.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0]["name"] != "stuck" {
		t.Fatalf("open span not exported: %v", events)
	}
	if args, ok := events[0]["args"].(map[string]any); !ok || args["detail"] != "unfinished" {
		t.Fatalf("open span not marked unfinished: %v", events[0])
	}
}
