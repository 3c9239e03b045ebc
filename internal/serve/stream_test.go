package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/checker"
	"repro/internal/obs"
	"repro/internal/stream"
	"repro/internal/trace"
)

// ---- helpers -------------------------------------------------------

// streamConn is one open /v1/trace exchange: write NDJSON events into
// Events, read NDJSON records off Records.
type streamConn struct {
	Events  *io.PipeWriter
	Records *bufio.Scanner
	resp    *http.Response
}

func (c *streamConn) close() {
	c.Events.Close()
	c.resp.Body.Close()
}

// openStream dials /v1/trace with a pipe-fed body so the test can
// trickle events while reading response records.
func openStream(t *testing.T, base string) *streamConn {
	t.Helper()
	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, base+"/v1/trace", pr)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("POST /v1/trace = %d: %s", resp.StatusCode, body)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	conn := &streamConn{Events: pw, Records: sc, resp: resp}
	t.Cleanup(conn.close)
	return conn
}

func (c *streamConn) send(t *testing.T, evs ...stream.Event) {
	t.Helper()
	if err := stream.WriteNDJSON(c.Events, evs); err != nil {
		t.Fatalf("send: %v", err)
	}
}

// next reads one response record, failing the test on EOF.
func (c *streamConn) next(t *testing.T) StreamRecord {
	t.Helper()
	for c.Records.Scan() {
		line := strings.TrimSpace(c.Records.Text())
		if line == "" {
			continue
		}
		var rec StreamRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad record %q: %v", line, err)
		}
		return rec
	}
	t.Fatalf("response stream ended early: %v", c.Records.Err())
	return StreamRecord{}
}

// collectUntilFinal reads records until the final one, returning all.
func (c *streamConn) collectUntilFinal(t *testing.T) []StreamRecord {
	t.Helper()
	var recs []StreamRecord
	for {
		rec := c.next(t)
		recs = append(recs, rec)
		if rec.Type == "final" {
			return recs
		}
	}
}

func corpusEvents(t *testing.T, name string) []stream.Event {
	t.Helper()
	nt, err := trace.ParseTraceString(readTestdata(t, name))
	if err != nil {
		t.Fatal(err)
	}
	evs, err := stream.EventsFromTrace(nt)
	if err != nil {
		t.Fatal(err)
	}
	return evs
}

// ---- tests ---------------------------------------------------------

// TestTraceStreamViolationBeforeEnd pins the tentpole property: a
// violating trace's verdict reaches the client before the end event is
// even sent.
func TestTraceStreamViolationBeforeEnd(t *testing.T) {
	_, ts := testServer(t, Config{Stream: StreamConfig{CheckEvery: 1}})
	conn := openStream(t, ts.URL)

	evs := corpusEvents(t, "corr_violation.trace")
	conn.send(t, evs[:len(evs)-1]...) // everything but the end event
	rec := conn.next(t)
	if rec.Type != "violation" || rec.Violation == nil {
		t.Fatalf("first record = %+v, want a violation", rec)
	}
	if got := rec.Violation.Kind; got != "taint" {
		t.Fatalf("violation kind = %q, want taint", got)
	}
	if len(rec.Violation.Models) != 2 {
		t.Fatalf("taint should exclude both models, got %v", rec.Violation.Models)
	}

	conn.send(t, evs[len(evs)-1]) // now the end event
	recs := conn.collectUntilFinal(t)
	final := recs[len(recs)-1]
	if final.LC == nil || final.SC == nil {
		t.Fatalf("final record missing verdicts: %+v", final)
	}
	if final.LC.Text != "VIOLATED" || final.SC.Text != "VIOLATED" {
		t.Fatalf("final = LC:%s SC:%s, want VIOLATED/VIOLATED", final.LC.Text, final.SC.Text)
	}
	if final.Stats == nil || !final.Stats.Ended {
		t.Fatalf("final stats should mark the stream ended: %+v", final.Stats)
	}
}

// TestTraceStreamSlowWriter is the transport-timeout bugfix test: the
// daemon's http.Server read/write/idle timeouts are set far below the
// stream's life, the exchange Timeout middleware is armed, and a slow
// writer still completes — the per-route deadline overrides and the
// TimeoutExcept exemption keep the connection governed by streaming
// limits only. Run under -race in CI, which also exercises the
// reader/checker goroutine split.
func TestTraceStreamSlowWriter(t *testing.T) {
	s := New(Config{
		RequestTimeout: 200 * time.Millisecond, // would kill the stream if applied
		Stream: StreamConfig{
			CheckEvery:  1,
			IdleTimeout: 5 * time.Second,
			Heartbeat:   50 * time.Millisecond,
		},
	})
	ts := httptest.NewUnstartedServer(s.Handler())
	// The transport constants ccmd sets (scaled down): each alone is
	// shorter than the stream's total life.
	ts.Config.ReadTimeout = 150 * time.Millisecond
	ts.Config.WriteTimeout = 150 * time.Millisecond
	ts.Config.IdleTimeout = 150 * time.Millisecond
	ts.Start()
	t.Cleanup(ts.Close)

	conn := openStream(t, ts.URL)
	evs := corpusEvents(t, "dekker_bottom.trace")

	// Trickle every event slower than the transport timeouts; total
	// stream life ~> 4x ReadTimeout.
	violations := 0
	heartbeats := 0
	recDone := make(chan struct{})
	go func() {
		defer close(recDone)
		for {
			var rec StreamRecord
			line, err := readLine(conn.Records)
			if err != nil {
				return
			}
			if json.Unmarshal([]byte(line), &rec) != nil {
				return
			}
			switch rec.Type {
			case "violation":
				violations++
			case "heartbeat":
				heartbeats++
			case "final":
				if rec.SC == nil || rec.SC.Text != "VIOLATED" {
					t.Errorf("final SC = %+v, want VIOLATED", rec.SC)
				}
				if rec.LC == nil || rec.LC.Text != "explainable" {
					t.Errorf("final LC = %+v, want explainable", rec.LC)
				}
				return
			}
		}
	}()
	for _, ev := range evs {
		conn.send(t, ev)
		time.Sleep(100 * time.Millisecond)
	}
	select {
	case <-recDone:
	case <-time.After(10 * time.Second):
		t.Fatal("no final record after the end event")
	}
	if violations == 0 {
		t.Error("no mid-stream violation record (dekker_bottom is SC-violated by cycle)")
	}
	if heartbeats == 0 {
		t.Error("no heartbeat records during a ~700ms stream at 50ms cadence")
	}
}

// readLine is a scanner step that reports EOF as an error instead of
// calling t.Fatal from a non-test goroutine.
func readLine(sc *bufio.Scanner) (string, error) {
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			return line, nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", io.EOF
}

// TestTraceStreamConformance compares the streamed final verdicts
// against the post-mortem checker for every corpus trace — the service
// edition of the differential guarantee pinned in internal/stream.
func TestTraceStreamConformance(t *testing.T) {
	_, ts := testServer(t, Config{Stream: StreamConfig{CheckEvery: 1}})
	paths, err := filepath.Glob("../../testdata/*.trace")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no corpus traces: %v", err)
	}
	for _, p := range paths {
		name := filepath.Base(p)
		t.Run(name, func(t *testing.T) {
			nt, err := trace.ParseTraceString(readTestdata(t, name))
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			lcWant := checker.VerifyLC(ctx, nt.Trace, checker.SearchOptions{}).Verdict
			scWant := checker.VerifySC(ctx, nt.Trace, checker.SearchOptions{}).Verdict

			conn := openStream(t, ts.URL)
			conn.send(t, corpusEvents(t, name)...)
			recs := conn.collectUntilFinal(t)
			final := recs[len(recs)-1]
			if got, want := final.LC.Text, checker.VerdictText(lcWant); got != want {
				t.Errorf("LC: stream %q, post-mortem %q", got, want)
			}
			if got, want := final.SC.Text, checker.VerdictText(scWant); got != want {
				t.Errorf("SC: stream %q, post-mortem %q", got, want)
			}
			for _, rec := range recs[:len(recs)-1] {
				if rec.Type != "violation" {
					continue
				}
				for _, m := range rec.Violation.Models {
					if m == "LC" && !lcWant.Out() {
						t.Errorf("unsound online LC violation %+v", rec.Violation)
					}
					if m == "SC" && !scWant.Out() {
						t.Errorf("unsound online SC violation %+v", rec.Violation)
					}
				}
			}
		})
	}
}

// TestTraceStreamIdleCut: a client that stalls mid-stream is cut by
// the rolling idle deadline and still gets a well-formed early final.
func TestTraceStreamIdleCut(t *testing.T) {
	_, ts := testServer(t, Config{Stream: StreamConfig{
		IdleTimeout: 100 * time.Millisecond,
		Heartbeat:   time.Hour, // keep the response quiet
	}})
	conn := openStream(t, ts.URL)
	evs := corpusEvents(t, "mp_stale.trace")
	conn.send(t, evs[0], evs[1]) // locs + first node, then stall

	recs := conn.collectUntilFinal(t)
	final := recs[len(recs)-1]
	if final.LC.Text != "INCONCLUSIVE(deadline)" || final.SC.Text != "INCONCLUSIVE(deadline)" {
		t.Fatalf("idle-cut final = LC:%s SC:%s, want INCONCLUSIVE(deadline)", final.LC.Text, final.SC.Text)
	}
	var sawError bool
	for _, rec := range recs {
		sawError = sawError || rec.Type == "error"
	}
	if !sawError {
		t.Fatal("idle cut should surface an error record before the final")
	}
}

// TestTraceStreamOverrun: past MaxEvents the overflow policy sheds and
// both models degrade to the typed INCONCLUSIVE(overrun).
func TestTraceStreamOverrun(t *testing.T) {
	_, ts := testServer(t, Config{Stream: StreamConfig{MaxEvents: 2, CheckEvery: 1}})
	conn := openStream(t, ts.URL)
	conn.send(t, corpusEvents(t, "mp_stale.trace")...)

	recs := conn.collectUntilFinal(t)
	final := recs[len(recs)-1]
	if final.LC.Text != "INCONCLUSIVE(overrun)" || final.SC.Text != "INCONCLUSIVE(overrun)" {
		t.Fatalf("overrun final = LC:%s SC:%s, want INCONCLUSIVE(overrun)", final.LC.Text, final.SC.Text)
	}
	if final.Stats == nil || !final.Stats.Overrun || final.Stats.Shed == 0 {
		t.Fatalf("overrun stats = %+v, want Overrun with shed > 0", final.Stats)
	}
}

// TestTraceStreamProtocolError: a malformed event fails the stream
// in-band with an error record and an inconclusive final.
func TestTraceStreamProtocolError(t *testing.T) {
	_, ts := testServer(t, Config{})
	conn := openStream(t, ts.URL)
	evs := corpusEvents(t, "mp_stale.trace")
	conn.send(t, evs[0], evs[1], evs[1]) // duplicate node: protocol violation

	recs := conn.collectUntilFinal(t)
	if recs[0].Type != "error" || !strings.Contains(recs[0].Error, "duplicate") {
		t.Fatalf("first record = %+v, want a duplicate-node error", recs[0])
	}
	final := recs[len(recs)-1]
	if final.LC.Text != "INCONCLUSIVE(cancelled)" || final.SC.Text != "INCONCLUSIVE(cancelled)" {
		t.Fatalf("error final = LC:%s SC:%s, want INCONCLUSIVE(cancelled)", final.LC.Text, final.SC.Text)
	}
}

// TestTraceStreamStatsz: the stream gauges land in /statsz and the
// per-endpoint metrics row exists.
func TestTraceStreamStatsz(t *testing.T) {
	_, ts := testServer(t, Config{Stream: StreamConfig{CheckEvery: 1}})
	conn := openStream(t, ts.URL)
	conn.send(t, corpusEvents(t, "corr_violation.trace")...)
	conn.collectUntilFinal(t)

	doc := statsz(t, ts.URL)
	if doc.Stream.Done != 1 {
		t.Fatalf("stream.done = %d, want 1", doc.Stream.Done)
	}
	if doc.Stream.EventsIngested == 0 || doc.Stream.Violations == 0 {
		t.Fatalf("stream gauges empty: %+v", doc.Stream)
	}
	if _, ok := doc.Endpoints["trace"]; !ok {
		t.Fatal("no trace endpoint metrics row")
	}
}

// TestTraceStreamDrainRejects: a draining server sheds new streams
// with 503 like any other decision.
func TestTraceStreamDrainRejects(t *testing.T) {
	s, ts := testServer(t, Config{})
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/trace", "application/x-ndjson", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining POST /v1/trace = %d, want 503", resp.StatusCode)
	}
}

// TestPushWait: a send waits at most about PushWait for queue space
// before the reader gives up and sheds.
func TestPushWait(t *testing.T) {
	queue := make(chan stream.Event, 1)
	end := stream.Event{Ev: stream.EvEnd}
	if !pushWait(queue, end, time.Hour) {
		t.Fatal("send into an empty queue failed")
	}
	const wait = 20 * time.Millisecond
	start := time.Now()
	if pushWait(queue, end, wait) {
		t.Fatal("send into a full queue succeeded")
	}
	if elapsed := time.Since(start); elapsed < wait || elapsed > wait+time.Second {
		t.Fatalf("full-queue send gave up after %v, want about %v", elapsed, wait)
	}
}

// TestStreamReaderShedsOnFullQueue: with nobody receiving, the reader
// queues the first event and counts every later one, the end event
// included, as shed.
func TestStreamReaderShedsOnFullQueue(t *testing.T) {
	evs := corpusEvents(t, "mp_stale.trace")
	var body bytes.Buffer
	if err := stream.WriteNDJSON(&body, evs); err != nil {
		t.Fatal(err)
	}
	r := httptest.NewRequest(http.MethodPost, "/v1/trace", &body)
	rc := http.NewResponseController(httptest.NewRecorder())
	queue := make(chan stream.Event, 1)
	var shed atomic.Int64
	var stop atomic.Bool
	cfg := StreamConfig{PushWait: time.Millisecond}.withDefaults()
	if err := streamReader(r, rc, queue, &shed, cfg, time.Now().Add(time.Minute), &stop); err != nil {
		t.Fatal(err)
	}
	if got, want := shed.Load(), int64(len(evs)-1); got != want {
		t.Errorf("shed = %d, want %d", got, want)
	}
	if ev := <-queue; ev.Ev != stream.EvLocs {
		t.Errorf("queued event = %+v, want the locs event", ev)
	}
}

// stallOnViolation sleeps on the first stream violation it sees,
// stalling the checker goroutine that emits it.
type stallOnViolation struct {
	d    time.Duration
	done atomic.Bool
}

func (s *stallOnViolation) Record(ev obs.Event) {
	if ev.Kind == obs.StreamViolation && s.done.CompareAndSwap(false, true) {
		time.Sleep(s.d)
	}
}

// TestTraceStreamShedOverrun: a checker stalled behind a one-slot
// queue makes the reader shed, and the stream finishes overrun: LC,
// which no online rule decided, degrades to INCONCLUSIVE(overrun), and
// /statsz counts the same sheds the final record reports.
func TestTraceStreamShedOverrun(t *testing.T) {
	_, ts := testServer(t, Config{
		Recorder: &stallOnViolation{d: 500 * time.Millisecond},
		Stream:   StreamConfig{Buffer: 1, PushWait: 20 * time.Millisecond, CheckEvery: 1},
	})
	// dekker_bottom's SC cycle shows on its last node; padding no-ops
	// follow it, for the reader to shed while the checker stalls.
	evs := corpusEvents(t, "dekker_bottom.trace")
	end := evs[len(evs)-1]
	evs = evs[:len(evs)-1]
	for i := 0; i < 32; i++ {
		evs = append(evs, stream.Event{Ev: stream.EvNode, Name: fmt.Sprintf("pad%d", i), Op: "N"})
	}
	conn := openStream(t, ts.URL)
	conn.send(t, append(evs, end)...)

	recs := conn.collectUntilFinal(t)
	final := recs[len(recs)-1]
	if final.LC.Text != "INCONCLUSIVE(overrun)" {
		t.Errorf("final LC = %s, want INCONCLUSIVE(overrun)", final.LC.Text)
	}
	if final.Stats == nil || !final.Stats.Overrun || final.Stats.Shed == 0 {
		t.Fatalf("final stats = %+v, want Overrun with shed > 0", final.Stats)
	}
	if st := statsz(t, ts.URL); st.Stream.Shed != final.Stats.Shed || st.Stream.Overruns != 1 {
		t.Errorf("statsz stream = %+v, want shed %d and one overrun", st.Stream, final.Stats.Shed)
	}
}

// TestTraceStreamKeepAlive: a cleanly ended stream leaves its
// keep-alive connection usable. Its reader has exited before the
// handler joins it, so the join must not punch the read deadline: once
// the body reaches EOF net/http reads ahead on the connection, and a
// failed read-ahead cancels the connection's next request.
func TestTraceStreamKeepAlive(t *testing.T) {
	_, ts := testServer(t, Config{})
	client := ts.Client()
	var body bytes.Buffer
	if err := stream.WriteNDJSON(&body, corpusEvents(t, "mp_stale.trace")); err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(ts.URL+"/v1/trace", "application/x-ndjson", &body)
	if err != nil {
		t.Fatal(err)
	}
	records, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(records), `"type":"final"`) {
		t.Fatalf("stream response has no final record: %s", records)
	}

	reused := false
	ctx := httptrace.WithClientTrace(context.Background(), &httptrace.ClientTrace{
		GotConn: func(info httptrace.GotConnInfo) { reused = info.Reused },
	})
	check, err := json.Marshal(CheckRequest{Pair: readTestdata(t, "figure2.ccm")})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/check", bytes.NewReader(check))
	if err != nil {
		t.Fatal(err)
	}
	resp, err = client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("check after a stream = %d: %s", resp.StatusCode, data)
	}
	if !reused {
		t.Fatal("the check did not reuse the stream's connection")
	}
}
