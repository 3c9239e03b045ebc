package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/computation"
	"repro/internal/dag"
	"repro/internal/memmodel"
	"repro/internal/obs"
	"repro/internal/trace"
)

// ---- helpers -------------------------------------------------------

func testServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url string, req any) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func readTestdata(t *testing.T, name string) string {
	t.Helper()
	data, err := os.ReadFile("../../testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func checkVerdicts(t *testing.T, data []byte) map[string]ModelResult {
	t.Helper()
	var resp CheckResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		t.Fatalf("bad check response %s: %v", data, err)
	}
	out := make(map[string]ModelResult, len(resp.Results))
	for _, r := range resp.Results {
		out[r.Model] = r
	}
	return out
}

func statsz(t *testing.T, base string) Statsz {
	t.Helper()
	resp, err := http.Get(base + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc Statsz
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// govTrace mirrors the engine governance tests' randomized checker
// instances; seed 11 is pinned there as undecided after minutes of
// work — the slow request the load-shed and drain tests lean on.
func govTrace(seed int64, layers, width int, p float64, locs, vals, wprob int) *trace.Trace {
	rng := rand.New(rand.NewSource(seed))
	g := dag.RandomLayered(rng, layers, width, p)
	n := g.NumNodes()
	ops := make([]computation.Op, n)
	for i := range ops {
		l := computation.Loc(rng.Intn(locs))
		if rng.Intn(wprob) == 0 {
			ops[i] = computation.W(l)
		} else {
			ops[i] = computation.R(l)
		}
	}
	c := computation.MustFrom(g, ops, locs)
	tr := trace.New(c)
	for u := 0; u < n; u++ {
		switch c.Op(dag.Node(u)).Kind {
		case computation.Write:
			tr.WriteVal[u] = trace.Value(rng.Intn(vals) + 1)
		case computation.Read:
			tr.ReadVal[u] = trace.Value(rng.Intn(vals) + 1)
		}
	}
	return tr
}

// renderTraceText writes tr in the verify text format.
func renderTraceText(tr *trace.Trace) string {
	c := tr.Comp
	var b strings.Builder
	b.WriteString("locs")
	for l := 0; l < c.NumLocs(); l++ {
		fmt.Fprintf(&b, " l%d", l)
	}
	b.WriteByte('\n')
	for u := 0; u < c.NumNodes(); u++ {
		op := c.Op(dag.Node(u))
		switch op.Kind {
		case computation.Write:
			fmt.Fprintf(&b, "node n%d W(l%d) = %d\n", u, op.Loc, tr.WriteVal[u])
		case computation.Read:
			fmt.Fprintf(&b, "node n%d R(l%d) = %d\n", u, op.Loc, tr.ReadVal[u])
		}
	}
	for u := 0; u < c.NumNodes(); u++ {
		for _, v := range c.Dag().Succs(dag.Node(u)) {
			fmt.Fprintf(&b, "edge n%d n%d\n", u, v)
		}
	}
	return b.String()
}

func slowTraceText() string {
	return renderTraceText(govTrace(11, 30, 8, 0.08, 2, 3, 3))
}

// ---- functional endpoint tests -------------------------------------

// TestCheckFigure2 pins the service's verdicts for the paper's
// Figure 2 pair against the published classification: in WW and NW,
// outside WN and NN (and outside SC and LC).
func TestCheckFigure2(t *testing.T) {
	_, ts := testServer(t, Config{CacheBytes: 1 << 20})
	resp, data := postJSON(t, ts.URL+"/v1/check", CheckRequest{Pair: readTestdata(t, "figure2.ccm")})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	got := checkVerdicts(t, data)
	want := map[string]string{"SC": "OUT", "LC": "OUT", "NN": "OUT", "NW": "IN", "WN": "OUT", "WW": "IN"}
	for model, verdict := range want {
		if got[model].Verdict.String() != verdict {
			t.Errorf("%s = %s, want %s", model, got[model].Verdict, verdict)
		}
	}
	if got["SC"].Stats == nil {
		t.Error("SC result missing engine stats")
	}
	for _, model := range []string{"NN", "WN"} {
		if got[model].Violation == "" {
			t.Errorf("%s is OUT but has no violating triple", model)
		}
	}
}

// TestCheckDekkerWitnessAndCacheHit: Dekker is the separator (in LC,
// not SC); its LC witnesses must come back rendered with the file's
// node names, and an identical repeated query must be served from the
// verdict cache, byte for byte.
func TestCheckDekkerWitnessAndCacheHit(t *testing.T) {
	_, ts := testServer(t, Config{CacheBytes: 1 << 20})
	req := CheckRequest{Pair: readTestdata(t, "dekker.ccm")}

	resp1, data1 := postJSON(t, ts.URL+"/v1/check", req)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp1.StatusCode, data1)
	}
	if src := resp1.Header.Get("X-Ccmd-Cache"); src != "miss" {
		t.Errorf("first query cache source %q, want miss", src)
	}
	got := checkVerdicts(t, data1)
	if !got["LC"].Verdict.In() || got["SC"].Verdict.String() != "OUT" {
		t.Fatalf("dekker verdicts: LC %s, SC %s; want IN, OUT", got["LC"].Verdict, got["SC"].Verdict)
	}
	if len(got["LC"].LocWitnesses) != 2 {
		t.Fatalf("LC witnesses = %v, want one per location", got["LC"].LocWitnesses)
	}
	for _, w := range got["LC"].LocWitnesses {
		for _, name := range []string{"W1", "R1", "W2", "R2"} {
			if !strings.Contains(w, name) {
				t.Errorf("witness %q missing node %s", w, name)
			}
		}
	}

	resp2, data2 := postJSON(t, ts.URL+"/v1/check", req)
	if src := resp2.Header.Get("X-Ccmd-Cache"); src != "hit" {
		t.Errorf("repeated query cache source %q, want hit", src)
	}
	if !bytes.Equal(data1, data2) {
		t.Error("cached response differs from computed response")
	}
	st := statsz(t, ts.URL)
	if st.Cache.Hits != 1 || st.Cache.Misses != 1 {
		t.Errorf("cache stats = %+v, want 1 hit / 1 miss", st.Cache)
	}
}

// TestCheckCanonicalKey: cosmetically different spellings of the same
// pair (comments, blank lines) hit the same cache entry.
func TestCheckCanonicalKey(t *testing.T) {
	_, ts := testServer(t, Config{CacheBytes: 1 << 20})
	postJSON(t, ts.URL+"/v1/check", CheckRequest{Pair: readTestdata(t, "dekker.ccm")})
	// Same computation, comments stripped and spacing changed.
	variant := "locs x y\nnode W1 W(x)\nnode R1 R(y)\nnode W2 W(y)\nnode R2 R(x)\n" +
		"edge W1 R1\nedge W2 R2\nobserve R1 x W1\nobserve R2 y W2\n"
	resp, data := postJSON(t, ts.URL+"/v1/check", CheckRequest{Pair: variant})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	if src := resp.Header.Get("X-Ccmd-Cache"); src != "hit" {
		t.Errorf("canonically equal pair was a cache %q, want hit", src)
	}
}

func TestCheckBadRequests(t *testing.T) {
	_, ts := testServer(t, Config{})
	cases := []struct {
		name string
		body string
	}{
		{"invalid json", `{`},
		{"unknown field", `{"pair":"locs x\nnode A W(x)","modles":["SC"]}`},
		{"unknown model", `{"pair":"locs x\nnode A W(x)","models":["PSO"]}`},
		{"bad pair text", `{"pair":"locs x\nnode A FLY(x)"}`},
		{"empty pair", `{"pair":""}`},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/v1/check", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", tc.name, resp.StatusCode, data)
		}
		var e ErrorResponse
		if err := json.Unmarshal(data, &e); err != nil || e.Error == "" {
			t.Errorf("%s: error body %s not an ErrorResponse", tc.name, data)
		}
	}
	if resp, err := http.Get(ts.URL + "/v1/check"); err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET /v1/check: status %d, want 405", resp.StatusCode)
		}
	}
}

// TestDecodeRejectsTrailingData: a request body is exactly one JSON
// value. Data after it — a second value or junk — is a 400, not
// silently dropped; trailing whitespace is accepted.
func TestDecodeRejectsTrailingData(t *testing.T) {
	_, ts := testServer(t, Config{})
	pair := readTestdata(t, "figure2.ccm")
	check, err := json.Marshal(CheckRequest{Pair: pair, Models: []string{"LC"}})
	if err != nil {
		t.Fatal(err)
	}
	batch, err := json.Marshal(BatchRequest{Items: []BatchItem{{Pair: pair, Model: "LC"}}})
	if err != nil {
		t.Fatal(err)
	}
	bodies := map[string][]byte{"/v1/check": check, "/v1/batch": batch}
	tails := []struct {
		name, tail string
		want       int
	}{
		{"nothing", "", http.StatusOK},
		{"whitespace", " \n\t\r\n", http.StatusOK},
		{"a second value", `{"options":{"max_states":10}}`, http.StatusBadRequest},
		{"junk", "junk", http.StatusBadRequest},
	}
	for path, body := range bodies {
		for _, tc := range tails {
			resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(string(body)+tc.tail))
			if err != nil {
				t.Fatal(err)
			}
			data, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Errorf("%s followed by %s: status %d (%s), want %d", path, tc.name, resp.StatusCode, data, tc.want)
			}
		}
	}
}

// TestCheckInconclusiveNotCached: a budget-starved query yields a
// typed INCONCLUSIVE(budget) verdict over the wire and must NOT be
// cached — a retry with the same key may have a larger server budget
// someday, and a cached inconclusive would pin the failure.
func TestCheckInconclusiveNotCached(t *testing.T) {
	_, ts := testServer(t, Config{CacheBytes: 1 << 20})
	req := CheckRequest{
		Pair:    readTestdata(t, "dekker.ccm"),
		Models:  []string{"SC"},
		Options: Options{MaxStates: 1},
	}
	resp, data := postJSON(t, ts.URL+"/v1/check", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	got := checkVerdicts(t, data)
	if got["SC"].Verdict.String() != "INCONCLUSIVE(budget)" {
		t.Fatalf("SC = %s, want INCONCLUSIVE(budget)", got["SC"].Verdict)
	}
	resp2, _ := postJSON(t, ts.URL+"/v1/check", req)
	if src := resp2.Header.Get("X-Ccmd-Cache"); src != "miss" {
		t.Errorf("inconclusive response was cached (%q)", src)
	}
}

func TestVerifyMessagePassing(t *testing.T) {
	_, ts := testServer(t, Config{CacheBytes: 1 << 20})
	resp, data := postJSON(t, ts.URL+"/v1/verify", VerifyRequest{Trace: readTestdata(t, "mp_stale.trace")})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var vr VerifyResponse
	if err := json.Unmarshal(data, &vr); err != nil {
		t.Fatal(err)
	}
	if !vr.Explainable || vr.LC == nil || vr.SC == nil {
		t.Fatalf("response %s missing checks", data)
	}
	if vr.LC.Text != "explainable" || vr.SC.Text != "VIOLATED" || !vr.Relaxed {
		t.Errorf("mp_stale: LC %q SC %q relaxed %v; want explainable/VIOLATED/true", vr.LC.Text, vr.SC.Text, vr.Relaxed)
	}
	if vr.LC.Witness == "" {
		t.Error("explainable LC check returned no witness observer")
	}
	if vr.SC.Witness != "" {
		t.Error("violated SC check returned a witness")
	}
}

func TestVerifyCoherenceViolation(t *testing.T) {
	_, ts := testServer(t, Config{CacheBytes: 1 << 20})
	_, data := postJSON(t, ts.URL+"/v1/verify", VerifyRequest{Trace: readTestdata(t, "corr_violation.trace")})
	var vr VerifyResponse
	if err := json.Unmarshal(data, &vr); err != nil {
		t.Fatal(err)
	}
	if !vr.Explainable {
		t.Fatal("corr_violation is value-explainable; searches should have run")
	}
	if vr.LC.Text != "VIOLATED" || vr.SC.Text != "VIOLATED" || vr.Relaxed {
		t.Errorf("corr_violation: LC %q SC %q relaxed %v; want VIOLATED/VIOLATED/false", vr.LC.Text, vr.SC.Text, vr.Relaxed)
	}
}

func TestEnumerateClampedAndCached(t *testing.T) {
	_, ts := testServer(t, Config{CacheBytes: 1 << 20, Limits: Limits{MaxEnumNodes: 3}})
	resp, data := postJSON(t, ts.URL+"/v1/enumerate", EnumerateRequest{MaxNodes: 99, Workers: 2})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var er EnumerateResponse
	if err := json.Unmarshal(data, &er); err != nil {
		t.Fatal(err)
	}
	if er.MaxNodes != 3 || er.Locs != 1 {
		t.Errorf("bounds = (%d, %d), want clamped (3, 1)", er.MaxNodes, er.Locs)
	}
	want, err := os.ReadFile("../../cmd/enumerate/testdata/census-n3.txt")
	if err != nil {
		t.Fatal(err)
	}
	if er.Census != string(want) {
		t.Errorf("census differs from the enumerate CLI's recorded table:\n%q\n%q", er.Census, want)
	}
	resp2, _ := postJSON(t, ts.URL+"/v1/enumerate", EnumerateRequest{MaxNodes: 3})
	if src := resp2.Header.Get("X-Ccmd-Cache"); src != "hit" {
		t.Errorf("repeated census was a cache %q, want hit", src)
	}
}

// TestEnumerateBoundsDerived: a census request can ask for no more
// locations than its computations have nodes, and no more workers than
// the daemon runs goroutines at once or its MaxWorkers ceiling allows.
// The response names the effective bounds, and the census is the table
// `enumerate -n 2 -locs 2` prints.
func TestEnumerateBoundsDerived(t *testing.T) {
	const census = `membership census over ≤2 nodes, 2 location(s): 82 pairs total
  SC         70
  TSO        72
  RA         72
  CAUSAL       72
  LC         74
  NN         74
  NW         74
  WN         82
  WW         82
`
	for _, tc := range []struct {
		maxWorkers, want int
	}{
		{0, runtime.GOMAXPROCS(0)},
		{1, 1},
	} {
		var mu sync.Mutex
		var started []int // the worker count of each census RunStart
		rec := obs.RecorderFunc(func(ev obs.Event) {
			if ev.Kind == obs.RunStart && strings.HasSuffix(ev.Run, "census") {
				mu.Lock()
				started = append(started, ev.Total)
				mu.Unlock()
			}
		})
		_, ts := testServer(t, Config{Recorder: rec, Limits: Limits{MaxWorkers: tc.maxWorkers}})
		resp, data := postJSON(t, ts.URL+"/v1/enumerate", EnumerateRequest{MaxNodes: 2, Locs: 3, Workers: 64})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, data)
		}
		var er EnumerateResponse
		if err := json.Unmarshal(data, &er); err != nil {
			t.Fatal(err)
		}
		if er.MaxNodes != 2 || er.Locs != 2 || er.Census != census {
			t.Errorf("MaxWorkers %d: bounds (%d, %d), census:\n%s\nwant (2, 2) and:\n%s", tc.maxWorkers, er.MaxNodes, er.Locs, er.Census, census)
		}
		mu.Lock()
		if len(started) != 1 || started[0] > tc.want {
			t.Errorf("MaxWorkers %d: census RunStart worker counts %v, want one of at most %d", tc.maxWorkers, started, tc.want)
		}
		mu.Unlock()
	}
}

// TestEnumerateDeadlineMidSweep: a census whose decision deadline
// expires after its sweep has decided some pairs answers 503, and the
// cache keeps nothing of it. The recorder holds the census at its
// RunStart until well past the deadline, and the sweep polls its
// context only every 256 pairs, so on any machine the sweep decides
// some pairs and then stops.
func TestEnumerateDeadlineMidSweep(t *testing.T) {
	const deadline = 20 * time.Millisecond
	var live atomic.Pointer[obs.Counters]
	rec := obs.RecorderFunc(func(ev obs.Event) {
		if ev.Kind == obs.RunStart && ev.Live != nil {
			live.Store(ev.Live)
			time.Sleep(5 * deadline)
		}
	})
	_, ts := testServer(t, Config{CacheBytes: 1 << 20, Recorder: rec,
		Limits: Limits{MaxEnumNodes: 4, DefaultTimeout: deadline}})
	resp, data := postJSON(t, ts.URL+"/v1/enumerate", EnumerateRequest{MaxNodes: 4, Workers: 2})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", resp.StatusCode, data)
	}
	if l := live.Load(); l == nil || l.States.Load() == 0 {
		t.Fatal("the deadline expired before the sweep decided a pair")
	}
	if c := statsz(t, ts.URL).Cache; c.Entries != 0 || c.Bytes != 0 || c.Misses != 1 {
		t.Fatalf("cache after a timed-out census: %+v, want empty after one miss", c)
	}
}

func TestHealthzAndStatsz(t *testing.T) {
	_, ts := testServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || strings.TrimSpace(string(body)) != "ok" {
		t.Fatalf("healthz = %d %q, want 200 ok", resp.StatusCode, body)
	}
	st := statsz(t, ts.URL)
	if st.Endpoints["healthz"].Requests != 1 {
		t.Errorf("healthz requests = %d, want 1", st.Endpoints["healthz"].Requests)
	}
	if st.Admission.Slots <= 0 || st.Admission.Queue <= 0 {
		t.Errorf("admission defaults not applied: %+v", st.Admission)
	}
}

// ---- acceptance: load shed + drain under -race ---------------------

// TestLoadShedBurst drives the admission path end to end: with the
// single decision slot pinned by a minutes-long verification and the
// queue full, a burst of further queries must be shed with 503 +
// Retry-After while cache hits keep flowing; shutdown then cancels the
// pinned search promptly and nothing leaks.
func TestLoadShedBurst(t *testing.T) {
	base := runtime.NumGoroutine()
	s, ts := testServer(t, Config{Slots: 1, Queue: 1, CacheBytes: 1 << 20})

	// Pin the slot with the slow verification.
	slowDone := make(chan *http.Response, 1)
	go func() {
		resp, data := postJSON(t, ts.URL+"/v1/verify", VerifyRequest{Trace: slowTraceText()})
		_ = data
		slowDone <- resp
	}()
	waitFor(t, func() bool { return s.adm.stats().Running == 1 })

	// Fill the queue with a (fast, but stuck-behind-the-slot) check.
	queuedDone := make(chan []byte, 1)
	go func() {
		resp, data := postJSON(t, ts.URL+"/v1/check", CheckRequest{Pair: readTestdata(t, "dekker.ccm")})
		if resp.StatusCode != http.StatusOK {
			t.Errorf("queued request: status %d: %s", resp.StatusCode, data)
		}
		queuedDone <- data
	}()
	waitFor(t, func() bool { return s.adm.stats().Waiting == 1 })

	// The burst beyond the queue bound is shed.
	for i := 0; i < 3; i++ {
		resp, data := postJSON(t, ts.URL+"/v1/check", CheckRequest{Pair: readTestdata(t, "figure2.ccm")})
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("burst %d: status %d, want 503; body %s", i, resp.StatusCode, data)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Error("503 without Retry-After")
		}
	}
	if st := statsz(t, ts.URL); st.Admission.Shed < 3 || st.Endpoints["check"].Shed < 3 {
		t.Errorf("shed not counted: %+v / %+v", st.Admission, st.Endpoints["check"])
	}

	// Shutdown with a short grace: the pinned search is cancelled
	// through the engine and both in-flight requests complete.
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); err != context.DeadlineExceeded {
		t.Errorf("forced shutdown err = %v, want DeadlineExceeded", err)
	}
	slow := <-slowDone
	if slow.StatusCode != http.StatusOK {
		t.Errorf("cancelled verification: status %d, want 200 with inconclusive verdicts", slow.StatusCode)
	}
	<-queuedDone
	ts.Close() // waits for handler goroutines
	waitGoroutines(t, base)
}

// TestGracefulDrain is the SIGTERM contract: draining stops admission
// (healthz flips, new work gets 503 draining) while admitted work —
// including work still waiting in the queue — runs to completion, and
// the drained server leaks nothing.
func TestGracefulDrain(t *testing.T) {
	base := runtime.NumGoroutine()
	s, ts := testServer(t, Config{Slots: 1, Queue: 2, CacheBytes: 1 << 20})

	// Hold the only slot directly, then queue a real request behind it.
	release, err := s.adm.admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	queued := make(chan map[string]ModelResult, 1)
	go func() {
		resp, data := postJSON(t, ts.URL+"/v1/check", CheckRequest{Pair: readTestdata(t, "dekker.ccm")})
		if resp.StatusCode != http.StatusOK {
			t.Errorf("queued request: status %d: %s", resp.StatusCode, data)
			queued <- nil
			return
		}
		queued <- checkVerdicts(t, data)
	}()
	waitFor(t, func() bool { return s.adm.stats().Waiting == 1 })

	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- s.Shutdown(context.Background()) }()
	waitFor(t, func() bool { return s.adm.stats().Draining })

	// Admission is closed: healthz 503, new decisions 503.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz during drain = %d, want 503", resp.StatusCode)
	}
	r2, data := postJSON(t, ts.URL+"/v1/check", CheckRequest{Pair: readTestdata(t, "figure2.ccm")})
	if r2.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(data), "draining") {
		t.Errorf("new work during drain = %d %s, want 503 draining", r2.StatusCode, data)
	}
	select {
	case <-shutdownDone:
		t.Fatal("shutdown returned while a request was still queued")
	default:
	}

	// Free the slot: the queued request runs to completion and the
	// drain finishes cleanly.
	release()
	got := <-queued
	if got == nil {
		t.Fatal("queued request failed during drain")
	}
	if !got["LC"].Verdict.In() {
		t.Errorf("drained request returned wrong verdict: LC %s", got["LC"].Verdict)
	}
	if err := <-shutdownDone; err != nil {
		t.Errorf("clean drain returned %v", err)
	}
	ts.Close()
	waitGoroutines(t, base)
}

// TestStatszEngineTotals: decisions accumulate into the cumulative
// /statsz engine block — an enumerate sweep feeds the symmetry gauges
// (orbit totals, skipped computations) and every run bumps the count.
func TestStatszEngineTotals(t *testing.T) {
	_, ts := testServer(t, Config{Limits: Limits{MaxEnumNodes: 3}})
	if st := statsz(t, ts.URL); st.Engine.Runs != 0 {
		t.Fatalf("fresh server has %d engine runs, want 0", st.Engine.Runs)
	}
	resp, data := postJSON(t, ts.URL+"/v1/enumerate", EnumerateRequest{MaxNodes: 3})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("enumerate status %d: %s", resp.StatusCode, data)
	}
	st := statsz(t, ts.URL)
	if st.Engine.Runs == 0 {
		t.Error("engine.runs still 0 after an enumerate sweep")
	}
	// ≤3 nodes, 1 location: 238 computations, of which only the
	// canonical representatives were materialized.
	if st.Engine.Orbits != 238 {
		t.Errorf("engine.orbits = %d, want 238 universe computations", st.Engine.Orbits)
	}
	if st.Engine.SymmetrySkipped <= 0 || st.Engine.SymmetrySkipped >= st.Engine.Orbits {
		t.Errorf("engine.symmetry_skipped = %d, want in (0, %d)", st.Engine.SymmetrySkipped, st.Engine.Orbits)
	}
	if st.Engine.States <= 0 {
		t.Errorf("engine.states = %d, want > 0", st.Engine.States)
	}
}

// TestStatszDecisionCounters: /statsz exposes one decision counter per
// registered model — TSO, RA, and CAUSAL included — pre-seeded to 0 so
// a reader can tell "never asked" apart from "model unknown", ticked on
// cache misses only.
func TestStatszDecisionCounters(t *testing.T) {
	_, ts := testServer(t, Config{CacheBytes: 1 << 20})
	st := statsz(t, ts.URL)
	for _, m := range memmodel.ModelNames() {
		if n, ok := st.Decisions[m]; !ok || n != 0 {
			t.Errorf("fresh decisions[%s] = %d, %v; want 0, present", m, n, ok)
		}
	}
	req := CheckRequest{Pair: readTestdata(t, "figure2.ccm")}
	if resp, data := postJSON(t, ts.URL+"/v1/check", req); resp.StatusCode != http.StatusOK {
		t.Fatalf("check status %d: %s", resp.StatusCode, data)
	}
	st = statsz(t, ts.URL)
	for _, m := range memmodel.ModelNames() {
		if st.Decisions[m] != 1 {
			t.Errorf("decisions[%s] = %d after one full check, want 1", m, st.Decisions[m])
		}
	}
	// A cached repeat answers without deciding anything again.
	if resp, data := postJSON(t, ts.URL+"/v1/check", req); resp.StatusCode != http.StatusOK {
		t.Fatalf("repeat check status %d: %s", resp.StatusCode, data)
	}
	st = statsz(t, ts.URL)
	for _, m := range memmodel.ModelNames() {
		if st.Decisions[m] != 1 {
			t.Errorf("decisions[%s] = %d after cached repeat, want still 1", m, st.Decisions[m])
		}
	}
}

// ---- middleware armor ----------------------------------------------

// TestRetryAfterRounding: sub-second RetryAfter hints must round UP to
// a whole second — a "Retry-After: 0" tells clients to hammer a server
// that just shed them.
func TestRetryAfterRounding(t *testing.T) {
	cases := []struct {
		hint time.Duration
		want string
	}{
		{300 * time.Millisecond, "1"},
		{time.Second, "1"},
		{1500 * time.Millisecond, "2"},
		{0, "1"}, // config default
	}
	for _, tc := range cases {
		s := New(Config{RetryAfter: tc.hint})
		w := httptest.NewRecorder()
		r := httptest.NewRequest(http.MethodPost, "/v1/check", nil)
		s.writeUnavailable(w, r, ErrOverloaded)
		if got := w.Header().Get("Retry-After"); got != tc.want {
			t.Errorf("RetryAfter %v rendered %q, want %q", tc.hint, got, tc.want)
		}
		if got := w.Header().Get("Retry-After"); got == "0" {
			t.Errorf("RetryAfter %v rendered the poisonous 0", tc.hint)
		}
	}
}

// panicOnceRecorder panics on the first RunStart it sees — injected
// through Config.Recorder it makes the first decision blow up inside
// the handler, on the request goroutine, like a real decision-path bug
// would.
type panicOnceRecorder struct{ fired atomic.Bool }

func (p *panicOnceRecorder) Record(ev obs.Event) {
	if ev.Kind == obs.RunStart && p.fired.CompareAndSwap(false, true) {
		panic("injected decision panic")
	}
}

// TestPanicRecoveryKeepsServing is the regression for the naked-panic
// failure mode: a panicking decision must come back as a 500 carrying
// a request ID (header and body), count in /statsz, and leave the
// server fully serving — the same query succeeds on retry because the
// panic-failed flight was cleaned up.
func TestPanicRecoveryKeepsServing(t *testing.T) {
	rec := &panicOnceRecorder{}
	s, ts := testServer(t, Config{CacheBytes: 1 << 20, Recorder: rec})
	req := CheckRequest{Pair: readTestdata(t, "figure2.ccm")}

	resp, data := postJSON(t, ts.URL+"/v1/check", req)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking decision returned %d, want 500; body %s", resp.StatusCode, data)
	}
	id := resp.Header.Get("X-Request-Id")
	if id == "" {
		t.Fatal("500 response carries no X-Request-Id")
	}
	if !strings.Contains(string(data), id) {
		t.Errorf("500 body %s does not echo the request id %s", data, id)
	}

	// The server keeps serving: the identical query now succeeds (the
	// panicked flight did not wedge the key) and the panic is counted.
	resp2, data2 := postJSON(t, ts.URL+"/v1/check", req)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("retry after panic returned %d: %s", resp2.StatusCode, data2)
	}
	got := checkVerdicts(t, data2)
	if got["SC"].Verdict.String() != "OUT" {
		t.Errorf("retry verdict SC = %s, want OUT", got["SC"].Verdict)
	}
	st := statsz(t, ts.URL)
	if st.PanicsRecovered != 1 {
		t.Errorf("statsz panics_recovered = %d, want 1", st.PanicsRecovered)
	}
	if st.Endpoints["check"].InFlight != 0 {
		t.Errorf("in_flight stuck at %d after a recovered panic", st.Endpoints["check"].InFlight)
	}
	if st.Endpoints["check"].Errors != 1 {
		t.Errorf("recovered panic not counted as exactly one endpoint error: %+v", st.Endpoints["check"])
	}
	_ = s
}

// TestRequestIDOnEveryResponse: every response — success, client
// error, health probe — carries a request ID, inbound ids are
// propagated, and error bodies echo them.
func TestRequestIDOnEveryResponse(t *testing.T) {
	_, ts := testServer(t, Config{CacheBytes: 1 << 20})

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.Header.Get("X-Request-Id") == "" {
		t.Error("healthz response carries no request id")
	}

	resp, data := postJSON(t, ts.URL+"/v1/check", CheckRequest{Pair: readTestdata(t, "figure2.ccm")})
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Request-Id") == "" {
		t.Errorf("check response (%d) carries no request id", resp.StatusCode)
	}
	_ = data

	// Inbound id propagated, echoed in the error body.
	reqBody := strings.NewReader(`{"pair":"locs x\nnode A FLY(x)"}`)
	hr, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/check", reqBody)
	if err != nil {
		t.Fatal(err)
	}
	hr.Header.Set("X-Request-Id", "caller-supplied-42")
	resp, err = http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	data, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad pair = %d, want 400", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-Id"); got != "caller-supplied-42" {
		t.Errorf("inbound id not propagated: header %q", got)
	}
	var e ErrorResponse
	if err := json.Unmarshal(data, &e); err != nil || e.RequestID != "caller-supplied-42" {
		t.Errorf("error body %s does not echo the inbound request id", data)
	}
}

// TestStatszRuntime: the process-health block the soak harness samples
// for watermarks is populated.
func TestStatszRuntime(t *testing.T) {
	_, ts := testServer(t, Config{})
	st := statsz(t, ts.URL)
	if st.Runtime.Goroutines <= 0 {
		t.Errorf("runtime.goroutines = %d, want > 0", st.Runtime.Goroutines)
	}
	if st.Runtime.HeapAllocBytes <= 0 || st.Runtime.HeapSysBytes <= 0 {
		t.Errorf("runtime heap gauges empty: %+v", st.Runtime)
	}
}

// TestStatszGC: the runtime block counts the collector's cycles and
// their pauses, and a forced cycle moves neither count back.
func TestStatszGC(t *testing.T) {
	_, ts := testServer(t, Config{})
	read := func() (cycles, pauseNS int64) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/statsz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var doc struct {
			Runtime map[string]json.RawMessage `json:"runtime"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			t.Fatal(err)
		}
		for field, v := range map[string]*int64{"gc_cycles": &cycles, "gc_pause_total_ns": &pauseNS} {
			if err := json.Unmarshal(doc.Runtime[field], v); err != nil {
				t.Fatalf("runtime.%s: %v", field, err)
			}
		}
		return cycles, pauseNS
	}
	runtime.GC()
	cycles, pauseNS := read()
	if cycles < 1 {
		t.Errorf("runtime.gc_cycles = %d after a forced cycle, want >= 1", cycles)
	}
	runtime.GC()
	if cycles2, pauseNS2 := read(); cycles2 <= cycles || pauseNS2 < pauseNS {
		t.Errorf("across a forced cycle gc_cycles went %d -> %d and gc_pause_total_ns %d -> %d", cycles, cycles2, pauseNS, pauseNS2)
	}
}

// TestAccessLogWired: with Config.AccessLog set, each exchange logs
// one structured line carrying its request id and status.
func TestAccessLogWired(t *testing.T) {
	var buf syncLogBuffer
	_, ts := testServer(t, Config{AccessLog: &buf})
	resp, _ := postJSON(t, ts.URL+"/v1/check", CheckRequest{Pair: readTestdata(t, "figure2.ccm")})
	id := resp.Header.Get("X-Request-Id")
	log := buf.String()
	if !strings.Contains(log, "path=/v1/check") || !strings.Contains(log, "status=200") {
		t.Errorf("access log %q missing exchange fields", log)
	}
	if id == "" || !strings.Contains(log, "id="+id) {
		t.Errorf("access log %q does not carry the request id %q", log, id)
	}
}

// syncLogBuffer is a concurrency-safe strings.Builder for access-log
// assertions.
type syncLogBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncLogBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncLogBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}
