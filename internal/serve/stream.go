package serve

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/checker"
	"repro/internal/mw"
	"repro/internal/obs"
	"repro/internal/search"
	"repro/internal/stream"
)

// POST /v1/trace: online trace verification. The client holds the
// connection open and writes trace events as NDJSON (the wire format
// of internal/stream: one locs event, then node events in delivery
// order, then an end event); the server verifies incrementally and
// writes NDJSON records back — a violation record the moment a stable
// violation becomes observable (it holds in every completion of the
// prefix, so it is definitive mid-stream), heartbeat records with the
// checker's gauges at a configured cadence, and one final record with
// the end-of-stream verdicts, byte-identical to POST /v1/verify's
// verdicts on the completed trace.
//
// The exchange deliberately bypasses the serving stack's two blanket
// deadlines, replacing them with streaming governance:
//
//   - The Timeout middleware exempts this path (mw.TimeoutExcept): the
//     exchange deadline is sized for one decision, not a long-lived
//     feed.
//   - The daemon's http.Server read deadline (ReadTimeout) is armed at
//     accept time for the whole request body — fatal to a stream that
//     trickles events for minutes. The handler overrides it through
//     http.ResponseController with its own discipline: an absolute
//     per-stream age cap plus a rolling idle window re-armed before
//     every read, both from StreamConfig. A stalled or immortal client
//     is cut off by governance, not by a transport constant.
//
// Ingest is decoupled from verification by the bounded SPSC ring in
// internal/stream: the connection reader parses and pushes, the
// checker goroutine pops and verifies, and when the checker cannot
// keep up the overflow policy sheds events, marks the stream overrun,
// and degrades undecided models to INCONCLUSIVE(overrun) rather than
// blocking the socket or buffering without bound.
//
// Streams are never cached: the resource is the connection, not the
// verdict, and each stream's event order is its own.

// StreamConfig governs the /v1/trace endpoint. The zero value gets
// conservative defaults from withDefaults.
type StreamConfig struct {
	// MaxAge is the absolute lifetime cap of one stream; at expiry the
	// stream finishes early with INCONCLUSIVE(deadline) for undecided
	// models (0 = 10m).
	MaxAge time.Duration
	// IdleTimeout is the rolling per-read deadline: the longest the
	// server waits for the next event line (0 = 1m).
	IdleTimeout time.Duration
	// Heartbeat is the cadence of gauge heartbeat records on an
	// otherwise quiet response (0 = 5s).
	Heartbeat time.Duration
	// Buffer is the event ring capacity, rounded up to a power of two
	// (0 = 1024).
	Buffer int
	// MaxEvents caps node events per stream; past it the overflow
	// policy treats the stream as overrun (0 = unlimited).
	MaxEvents int64
	// PushWait bounds how long the reader waits for ring space before
	// shedding (0 = 10ms).
	PushWait time.Duration
	// CheckEvery is the incremental checker's cycle-check cadence in
	// node events (0 = stream.DefaultCheckEvery).
	CheckEvery int
}

// withDefaults fills zero fields.
func (c StreamConfig) withDefaults() StreamConfig {
	if c.MaxAge <= 0 {
		c.MaxAge = 10 * time.Minute
	}
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = time.Minute
	}
	if c.Heartbeat <= 0 {
		c.Heartbeat = 5 * time.Second
	}
	if c.Buffer <= 0 {
		c.Buffer = 1024
	}
	if c.PushWait <= 0 {
		c.PushWait = 10 * time.Millisecond
	}
	return c
}

// StreamRecord is one NDJSON line of the /v1/trace response stream.
type StreamRecord struct {
	// Type discriminates the record: "violation", "heartbeat", "final",
	// or "error".
	Type string `json:"type"`
	// Violation carries a stable mid-stream violation (type
	// "violation"): it excludes the named models in every completion of
	// the stream, so the client may act on it before the stream ends.
	Violation *stream.Violation `json:"violation,omitempty"`
	// Stats carries the checker gauges (heartbeat and final records).
	Stats *stream.Stats `json:"stats,omitempty"`
	// LC/SC/Relaxed mirror VerifyResponse on the final record. When the
	// stream ended cleanly they match POST /v1/verify on the completed
	// trace; an early finish (idle cut, drain, client error) reports
	// VIOLATED for online-violated models and a typed INCONCLUSIVE for
	// the rest.
	LC      *VerifyResult `json:"lc,omitempty"`
	SC      *VerifyResult `json:"sc,omitempty"`
	Relaxed bool          `json:"relaxed,omitempty"`
	// Error explains a fatal stream error (type "error"; a final record
	// still follows it).
	Error string `json:"error,omitempty"`
	// RequestID correlates the stream with the access log (final and
	// error records).
	RequestID string `json:"request_id,omitempty"`
}

// StreamStats is the /statsz gauge block for /v1/trace.
type StreamStats struct {
	Active         int64 `json:"active"`
	Done           int64 `json:"done"`
	EventsIngested int64 `json:"events_ingested"`
	Violations     int64 `json:"violations"`
	Overruns       int64 `json:"overruns"`
	Shed           int64 `json:"shed"`
	// Frontier and CheckpointAge are the most recent per-stream gauge
	// samples (taken at heartbeat cadence) — a coarse health signal,
	// not a sum over concurrent streams.
	Frontier      int64 `json:"frontier"`
	CheckpointAge int64 `json:"checkpoint_age"`
}

// streamTotals is the server-side accumulator behind StreamStats.
type streamTotals struct {
	active, done, events, violations, overruns, shed atomic.Int64
	frontier, checkpointAge                          atomic.Int64
}

func (t *streamTotals) stats() StreamStats {
	return StreamStats{
		Active:         t.active.Load(),
		Done:           t.done.Load(),
		EventsIngested: t.events.Load(),
		Violations:     t.violations.Load(),
		Overruns:       t.overruns.Load(),
		Shed:           t.shed.Load(),
		Frontier:       t.frontier.Load(),
		CheckpointAge:  t.checkpointAge.Load(),
	}
}

// sample publishes one checker gauge snapshot to /statsz.
func (t *streamTotals) sample(st stream.Stats) {
	t.frontier.Store(int64(st.Frontier))
	t.checkpointAge.Store(st.CheckpointAge)
}

// handleTrace is the long-lived streaming exchange. One admission slot
// is held for the stream's whole life — a stream is a decision in
// progress, and draining must wait for (or cancel) it like any other.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	release, err := s.adm.admit(r.Context())
	if err != nil {
		s.writeAdmissionError(w, r, err)
		return
	}
	defer release()

	cfg := s.cfg.Stream
	rc := http.NewResponseController(w)
	// Full duplex: the handler reads events off the request body while
	// writing records to the response. Without this, HTTP/1.1's default
	// half-duplex discipline drains the body before flushing the
	// response headers — a deadlock against a client that streams
	// events only after seeing them. Best-effort: HTTP/2 is natively
	// full-duplex and has no switch to flip.
	rc.EnableFullDuplex()
	cutoff := time.Now().Add(cfg.MaxAge)
	// Override the daemon's blanket transport deadlines. Errors are
	// tolerated: a ResponseWriter that cannot set deadlines (some test
	// harnesses) simply keeps the server-wide ones.
	rc.SetWriteDeadline(cutoff)
	rc.SetReadDeadline(time.Now().Add(cfg.IdleTimeout))

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	rc.Flush()

	rec := s.requestRecorder(r)
	obs.Emit(rec, obs.Event{Kind: obs.RunStart, Run: "stream"})
	s.streams.active.Add(1)
	defer s.streams.active.Add(-1)

	ring := stream.NewRing(cfg.Buffer)
	var stopRead atomic.Bool
	var readerErr error
	readerDone := make(chan struct{})
	go func() {
		readerErr = s.streamReader(r, rc, ring, cfg, cutoff, &stopRead)
		ring.Close()
		close(readerDone)
	}()
	// joinReader stops the producer and waits it out. The reader may
	// sit blocked on the socket, so the read deadline is punched (and
	// re-punched, in case the reader re-armed it in the race window)
	// until the goroutine exits; net.Conn deadlines are safe to set
	// concurrently with a blocked Read.
	joinReader := func() {
		stopRead.Store(true)
		for {
			rc.SetReadDeadline(time.Now())
			select {
			case <-readerDone:
				return
			case <-time.After(5 * time.Millisecond):
			}
		}
	}

	chk := stream.New(stream.Options{CheckEvery: cfg.CheckEvery, MaxEvents: cfg.MaxEvents})
	enc := json.NewEncoder(w)
	heartbeat := time.NewTicker(cfg.Heartbeat)
	defer heartbeat.Stop()
	reqID := mw.RequestIDFrom(r.Context())

	writeRecord := func(sr StreamRecord) {
		enc.Encode(sr) // a dead client surfaces on the read side too
		rc.Flush()
	}

	// noteOverrun folds ring-policy sheds into the checker and flips
	// the stream into the overrun state exactly once, whether the
	// trigger was the ring (events shed by the reader) or the checker
	// itself (MaxEvents). It reports whether the stream is overrun.
	var foldedShed int64
	overrunSeen := false
	noteOverrun := func() bool {
		if shed := ring.Shed(); shed > foldedShed {
			chk.AddShed(shed - foldedShed)
			foldedShed = shed
			chk.MarkOverrun()
		}
		if chk.Overrun() && !overrunSeen {
			overrunSeen = true
			s.streams.overruns.Add(1)
			obs.Emit(rec, obs.Event{Kind: obs.StreamOverrun, Run: "stream", N: chk.Stats().Events})
		}
		return chk.Overrun()
	}

	// finish emits the closing records and the obs summary, joining
	// the reader first. earlyStop is StopNone when the stream may be
	// decided definitively (ended cleanly, or overrun — chk.Finish
	// short-circuits both); otherwise it types the INCONCLUSIVE of
	// every model not already online-violated.
	finish := func(earlyStop search.StopReason, streamErr error) {
		joinReader()
		noteOverrun()
		if streamErr != nil {
			writeRecord(StreamRecord{Type: "error", Error: streamErr.Error(), RequestID: reqID})
		}
		final := s.streamFinal(rec, chk, earlyStop)
		st := chk.Stats()
		final.Stats = &st
		final.RequestID = reqID
		// Count before writing: a client that reads the final record and
		// then GETs /statsz must see this stream as done.
		s.streams.done.Add(1)
		s.streams.events.Add(st.Events)
		s.streams.shed.Add(st.Shed)
		s.streams.sample(st)
		writeRecord(final)
		summary := fmt.Sprintf("LC=%s SC=%s", final.LC.Text, final.SC.Text)
		obs.Emit(rec, obs.Event{Kind: obs.StreamDone, Run: "stream", N: st.Events, Total: int(st.Shed), Str: summary})
		obs.Emit(rec, obs.Event{Kind: obs.RunEnd, Run: "stream", Str: summary})
	}

	for {
		ev, ok := ring.TryPop()
		if !ok {
			if ring.Drained() {
				break
			}
			select {
			case <-s.baseCtx.Done():
				finish(search.StopCancel, nil)
				return
			case <-heartbeat.C:
				st := chk.Stats()
				s.streams.sample(st)
				writeRecord(StreamRecord{Type: "heartbeat", Stats: &st})
			case <-time.After(time.Millisecond):
			}
			continue
		}
		v, err := chk.Ingest(ev)
		if err != nil {
			// Protocol violation (duplicate node, undelivered pred, …):
			// fatal to the stream, reported in-band.
			finish(search.StopCancel, err)
			return
		}
		if v != nil {
			s.streams.violations.Add(1)
			obs.Emit(rec, obs.Event{Kind: obs.StreamViolation, Run: "stream",
				Str: fmt.Sprintf("%s %s", joinModels(v.Models), v.Kind), N: v.Event})
			writeRecord(StreamRecord{Type: "violation", Violation: v})
		}
		if noteOverrun() {
			// Nothing past the overrun can change the outcome (the
			// checker sheds all further ingest), so finish now instead of
			// draining a degraded feed.
			finish(search.StopNone, nil)
			return
		}
	}
	// Ring drained: the reader finished (end event, clean EOF, or a
	// read/parse error).
	<-readerDone
	switch {
	case readerErr != nil:
		finish(stopReasonFor(readerErr), readerErr)
	case !chk.Ended():
		// Clean EOF without an end event: the client hung up early.
		finish(search.StopCancel, nil)
	default:
		finish(search.StopNone, nil)
	}
}

// stopReasonFor types a reader error: transport timeouts are the
// governance deadlines firing, everything else (parse errors, resets)
// is a cancellation.
func stopReasonFor(err error) search.StopReason {
	var nerr net.Error
	if errors.As(err, &nerr) && nerr.Timeout() {
		return search.StopDeadline
	}
	return search.StopCancel
}

// streamReader is the producer side: it scans NDJSON lines off the
// request body under the rolling idle deadline, parses them, and
// pushes into the ring, shedding under the overflow policy when the
// checker cannot keep up. It returns nil after the end event, on clean
// EOF, or when stopped; otherwise the fatal read/parse error.
func (s *Server) streamReader(r *http.Request, rc *http.ResponseController, ring *stream.Ring, cfg StreamConfig, cutoff time.Time, stop *atomic.Bool) error {
	sc := bufio.NewScanner(r.Body)
	sc.Buffer(make([]byte, 64<<10), maxBodyBytes)
	overrun := false
	for sc.Scan() {
		if stop.Load() {
			return nil
		}
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		ev, err := stream.ParseEvent(line)
		if err != nil {
			return err
		}
		if overrun && ev.Ev != stream.EvEnd {
			// Past the overflow point the stream is already degraded;
			// shed without waiting. (The consumer finishes the exchange
			// on its own; consuming here just keeps the socket moving
			// until it does.)
			ring.ShedOne()
			continue
		}
		if !tryPushWait(ring, ev, cfg.PushWait) {
			ring.ShedOne()
			overrun = true
			continue
		}
		if ev.Ev == stream.EvEnd {
			return nil
		}
		// Re-arm the rolling idle window, clipped to the absolute age
		// cap — whichever governance bound is nearer wins.
		if stop.Load() {
			return nil
		}
		next := time.Now().Add(cfg.IdleTimeout)
		if next.After(cutoff) {
			next = cutoff
		}
		rc.SetReadDeadline(next)
	}
	if stop.Load() {
		return nil
	}
	return sc.Err() // nil on clean EOF without an end event
}

// tryPushWait pushes with a bounded wait for ring space: brief
// backpressure absorbs checker scheduling jitter, and only a
// persistently full ring triggers the shed policy.
func tryPushWait(ring *stream.Ring, ev stream.Event, wait time.Duration) bool {
	deadline := time.Now().Add(wait)
	for !ring.TryPush(ev) {
		if time.Now().After(deadline) {
			return false
		}
		runtime.Gosched()
	}
	return true
}

// streamFinal computes the final record's verdict block. A cleanly
// ended (or overrun — Finish short-circuits it without a search)
// stream goes through stream.Checker.Finish, the same post-mortem code
// path and wire shape as POST /v1/verify; an early cut of an intact
// stream must not run the post-mortem pass — an incomplete trace can
// look explainable — so online-violated models report VIOLATED and the
// rest the typed INCONCLUSIVE of the cut.
func (s *Server) streamFinal(rec obs.Recorder, chk *stream.Checker, earlyStop search.StopReason) StreamRecord {
	out := StreamRecord{Type: "final"}
	if earlyStop == search.StopNone {
		opts, timeout := s.cfg.Limits.searchOptions(Options{})
		ctx, cancel := s.decisionContext(timeout)
		defer cancel()
		opts.Recorder = obs.WithRun(rec, "stream-final")
		fin := chk.Finish(ctx, opts)
		out.LC = &VerifyResult{Verdict: fin.LC, Text: checker.VerdictText(fin.LC), States: fin.LCStats.States}
		if fin.LC.In() {
			out.LC.Witness = fmt.Sprintf("%v", fin.LCResult.Observer)
		}
		out.SC = &VerifyResult{Verdict: fin.SC, Text: checker.VerdictText(fin.SC), States: fin.SCStats.States}
		if fin.SC.In() {
			out.SC.Witness = fmt.Sprintf("%v", fin.SCResult.Observer)
		}
		out.Relaxed = fin.LC.In() && fin.SC.Out()
		return out
	}
	if chk.Overrun() {
		earlyStop = search.StopOverrun // data was shed: overrun outranks the cut's reason
	}
	lcViolated, scViolated := false, false
	for _, v := range chk.Violations() {
		for _, m := range v.Models {
			lcViolated = lcViolated || m == "LC"
			scViolated = scViolated || m == "SC"
		}
	}
	early := func(violated bool) *VerifyResult {
		v := search.VerdictInconclusive(earlyStop)
		if violated {
			v = search.VerdictOut()
		}
		return &VerifyResult{Verdict: v, Text: checker.VerdictText(v)}
	}
	out.LC = early(lcViolated)
	out.SC = early(scViolated)
	return out
}

// joinModels renders a violation's model list for the obs label.
func joinModels(models []string) string {
	switch len(models) {
	case 0:
		return ""
	case 1:
		return models[0]
	}
	out := models[0]
	for _, m := range models[1:] {
		out += "," + m
	}
	return out
}
