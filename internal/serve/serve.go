// Package serve is the service layer of the decision stack: a
// long-running HTTP/JSON daemon (cmd/ccmd) that turns the SC/LC and
// quantified-dag deciders, the post-mortem trace checker, and the
// enumeration census into queryable endpoints:
//
//	POST /v1/check      (computation, observer) pair -> per-model verdicts
//	POST /v1/batch      many (pair, model, frontier shard) items -> per-item verdicts
//	POST /v1/verify     executed trace -> LC/SC explainability + witnesses
//	POST /v1/trace      NDJSON event stream -> incremental online verification
//	POST /v1/enumerate  universe bounds -> membership census
//	GET  /healthz       liveness ("ok" / 503 "draining")
//	GET  /statsz        queue, cache, and per-endpoint gauges as JSON
//
// Three serving-stack behaviors wrap the deciders:
//
//   - Admission control: decisions run on a fixed slot pool behind a
//     bounded wait queue; a full queue sheds load with 503 +
//     Retry-After instead of letting NP-hard searches pile up. Every
//     admitted request is governed by the server's Limits (deadline,
//     state budget, memo bytes) mapped onto search.Options.
//   - A content-addressed verdict cache: responses are keyed by the
//     canonical re-rendering of the parsed input plus the model list
//     and the governance fingerprint, with singleflight collapsing of
//     duplicate in-flight queries and LRU eviction under a byte
//     budget. Only definitive (fully decided) responses are cached.
//   - Graceful drain: Shutdown stops admission, lets in-flight
//     decisions finish, and — past a grace context — cancels them
//     through the engine's context plumbing, so the daemon exits
//     leak-free with typed INCONCLUSIVE(cancelled) verdicts instead of
//     half-written responses.
//
// The decisions themselves are the same code paths the CLIs use
// (memmodel.DecideByName, checker.Verify*Ctx, expt census), so a
// verdict or witness obtained over HTTP is byte-identical to the CLI's
// — the property the conformance suite in cmd/ccmc and cmd/verify
// pins.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/netip"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/checker"
	"repro/internal/expt"
	"repro/internal/memmodel"
	"repro/internal/mw"
	"repro/internal/obs"
	"repro/internal/observer"
	"repro/internal/trace"
)

// maxBodyBytes bounds request bodies; computations worth checking are
// tiny, and an unbounded decode is a trivial memory DoS.
const maxBodyBytes = 1 << 20

// Config assembles a Server.
type Config struct {
	// Slots is the number of concurrently running decisions
	// (0 = GOMAXPROCS).
	Slots int
	// Queue is the bounded wait-queue depth behind the slots
	// (0 = 2×Slots). Requests beyond slots+queue are shed with 503.
	Queue int
	// CacheBytes is the verdict cache budget (0 disables storage;
	// singleflight collapsing stays on).
	CacheBytes int64
	// RetryAfter is the hint sent with 503 responses (0 = 1s).
	RetryAfter time.Duration
	// Limits governs every request's budgets.
	Limits Limits
	// Recorder receives the decision stack's observability events
	// (engine runs, governor firings); nil disables them.
	Recorder obs.Recorder
	// AccessLog receives one structured line per completed exchange
	// (nil disables access logging).
	AccessLog io.Writer
	// TrustedProxies are the peers whose X-Forwarded-For is believed
	// when resolving client addresses for the access log.
	TrustedProxies []netip.Prefix
	// RequestTimeout bounds the whole HTTP exchange (admission-queue
	// wait and singleflight wait included). 0 derives it from
	// Limits.ExchangeTimeout; negative disables the bound. POST
	// /v1/trace is exempt: its long-lived exchange is governed by
	// Stream's own deadlines instead.
	RequestTimeout time.Duration
	// Stream governs the /v1/trace streaming endpoint.
	Stream StreamConfig
}

// EndpointStats is one endpoint's request gauges in /statsz.
type EndpointStats struct {
	Requests  int64 `json:"requests"`
	Errors    int64 `json:"errors"`
	Shed      int64 `json:"shed"`
	InFlight  int64 `json:"in_flight"`
	LatencyMS int64 `json:"latency_ms_total"`
}

type endpointMetrics struct {
	requests, errors, shed, inFlight, latencyUS atomic.Int64
}

func (m *endpointMetrics) stats() EndpointStats {
	return EndpointStats{
		Requests:  m.requests.Load(),
		Errors:    m.errors.Load(),
		Shed:      m.shed.Load(),
		InFlight:  m.inFlight.Load(),
		LatencyMS: m.latencyUS.Load() / 1000,
	}
}

// EngineTotals is the cumulative decision-core counter block in
// /statsz: every engine search and enumeration sweep the server ran
// folds its final run stats in here. SleepSetPruned counts children
// the engine's sleep sets skipped; SymmetrySkipped counts universe
// computations the reduced census covered by orbit weighting instead
// of materializing; Orbits is the total class weight those sweeps
// credited to their representatives.
type EngineTotals struct {
	Runs            int64 `json:"runs"`
	States          int64 `json:"states"`
	MemoHits        int64 `json:"memo_hits"`
	Pruned          int64 `json:"pruned"`
	SleepSetPruned  int64 `json:"sleep_set_pruned"`
	SymmetrySkipped int64 `json:"symmetry_skipped"`
	Orbits          int64 `json:"orbits"`
}

// engineTotals is the recorder behind EngineTotals; it folds RunEnd
// stats (the merged per-run totals) and ignores every other event.
type engineTotals struct {
	runs, states, memoHits, pruned          atomic.Int64
	sleepSetPruned, symmetrySkipped, orbits atomic.Int64
}

func (t *engineTotals) Record(ev obs.Event) {
	if ev.Kind != obs.RunEnd {
		return
	}
	t.runs.Add(1)
	if st := ev.Stats; st != nil {
		t.states.Add(st.States)
		t.memoHits.Add(st.MemoHits)
		t.pruned.Add(st.Pruned)
		t.sleepSetPruned.Add(st.SleepSetPruned)
		t.symmetrySkipped.Add(st.SymmetrySkipped)
		t.orbits.Add(st.Orbits)
	}
}

func (t *engineTotals) stats() EngineTotals {
	return EngineTotals{
		Runs:            t.runs.Load(),
		States:          t.states.Load(),
		MemoHits:        t.memoHits.Load(),
		Pruned:          t.pruned.Load(),
		SleepSetPruned:  t.sleepSetPruned.Load(),
		SymmetrySkipped: t.symmetrySkipped.Load(),
		Orbits:          t.orbits.Load(),
	}
}

// RuntimeStats is the process health block in /statsz — the gauges a
// soak harness samples for goroutine and memory watermarks.
type RuntimeStats struct {
	Goroutines     int   `json:"goroutines"`
	HeapAllocBytes int64 `json:"heap_alloc_bytes"`
	HeapSysBytes   int64 `json:"heap_sys_bytes"`
	// RSSBytes is the OS-reported resident set (0 where unreadable).
	RSSBytes int64 `json:"rss_bytes"`
}

// readRuntimeStats samples the process gauges. RSS comes from
// /proc/self/statm, best-effort (0 off Linux).
func readRuntimeStats() RuntimeStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	st := RuntimeStats{
		Goroutines:     runtime.NumGoroutine(),
		HeapAllocBytes: int64(ms.HeapAlloc),
		HeapSysBytes:   int64(ms.HeapSys),
	}
	if data, err := os.ReadFile("/proc/self/statm"); err == nil {
		fields := strings.Fields(string(data))
		if len(fields) >= 2 {
			if pages, err := strconv.ParseInt(fields[1], 10, 64); err == nil {
				st.RSSBytes = pages * int64(os.Getpagesize())
			}
		}
	}
	return st
}

// Statsz is the /statsz document.
type Statsz struct {
	UptimeMS int64 `json:"uptime_ms"`
	Draining bool  `json:"draining"`
	// PanicsRecovered counts handler panics the recovery middleware
	// turned into completed 500 exchanges.
	PanicsRecovered int64          `json:"panics_recovered"`
	Admission       AdmissionStats `json:"admission"`
	Cache           CacheStats     `json:"cache"`
	Engine          EngineTotals   `json:"engine"`
	// Decisions counts model-membership decisions served per model
	// (check and batch, cache misses only — a cached verdict repeats
	// no decision). Every registered model has an entry, so a reader
	// can tell "never asked" (0) apart from "model unknown" (absent).
	Decisions map[string]int64         `json:"decisions"`
	Stream    StreamStats              `json:"stream"`
	Runtime   RuntimeStats             `json:"runtime"`
	Endpoints map[string]EndpointStats `json:"endpoints"`
}

// Server is the assembled service. Create with New, expose with
// Handler, stop with Shutdown.
type Server struct {
	cfg        Config
	adm        *admission
	cache      *cache
	mux        *http.ServeMux
	handler    http.Handler // mux wrapped in the middleware stack
	start      time.Time
	baseCtx    context.Context
	baseCancel context.CancelFunc
	metrics    map[string]*endpointMetrics
	totals     engineTotals
	streams    streamTotals
	decisions  map[string]*atomic.Int64
	panics     atomic.Int64
}

// countDecision ticks the per-model decision counter behind /statsz.
func (s *Server) countDecision(model string) {
	if c := s.decisions[model]; c != nil {
		c.Add(1)
	}
}

// New builds a Server from cfg, applying defaults.
func New(cfg Config) *Server {
	if cfg.Slots <= 0 {
		cfg.Slots = runtime.GOMAXPROCS(0)
	}
	if cfg.Queue <= 0 {
		cfg.Queue = 2 * cfg.Slots
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	if cfg.Limits.MaxEnumNodes <= 0 {
		cfg.Limits.MaxEnumNodes = 4
	}
	cfg.Stream = cfg.Stream.withDefaults()
	s := &Server{
		cfg:   cfg,
		adm:   newAdmission(cfg.Slots, cfg.Queue),
		cache: newCache(cfg.CacheBytes),
		mux:   http.NewServeMux(),
		start: time.Now(),
		metrics: map[string]*endpointMetrics{
			"check": {}, "batch": {}, "verify": {}, "trace": {}, "enumerate": {}, "healthz": {}, "statsz": {},
		},
		decisions: make(map[string]*atomic.Int64),
	}
	for _, m := range memmodel.ModelNames() {
		s.decisions[m] = &atomic.Int64{}
	}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	// Every decision records through the totals recorder so /statsz
	// exposes cumulative engine counters even without a -trace/-report
	// session attached.
	s.cfg.Recorder = obs.Multi(cfg.Recorder, &s.totals)
	s.mux.HandleFunc("POST /v1/check", s.instrument("check", s.handleCheck))
	s.mux.HandleFunc("POST /v1/batch", s.instrument("batch", s.handleBatch))
	s.mux.HandleFunc("POST /v1/verify", s.instrument("verify", s.handleVerify))
	s.mux.HandleFunc("POST /v1/trace", s.instrument("trace", s.handleTrace))
	s.mux.HandleFunc("POST /v1/enumerate", s.instrument("enumerate", s.handleEnumerate))
	s.mux.HandleFunc("GET /healthz", s.instrument("healthz", s.handleHealthz))
	s.mux.HandleFunc("GET /statsz", s.instrument("statsz", s.handleStatsz))

	// The middleware armor, outermost first: correlate (RequestID),
	// attribute (RealIP), log (AccessLog), survive (Recovery — inside
	// the log so panics log as the 500 they became), bound (Timeout —
	// innermost so the whole exchange, queue wait included, shares one
	// deadline clamped onto the governance ceilings). The streaming
	// endpoint is exempt from the exchange deadline: its lifetime is
	// governed per-stream (StreamConfig's age and idle bounds) instead
	// of per-decision.
	timeout := cfg.RequestTimeout
	if timeout == 0 {
		timeout = cfg.Limits.ExchangeTimeout()
	}
	s.handler = mw.Chain(s.mux,
		mw.RequestID(),
		mw.RealIP(cfg.TrustedProxies),
		accessLogOrNoop(cfg.AccessLog),
		mw.Recovery(s.onPanic),
		mw.TimeoutExcept(timeout, "/v1/trace"),
	)
	return s
}

// accessLogOrNoop keeps the chain uniform when access logging is off.
func accessLogOrNoop(w io.Writer) mw.Middleware {
	if w == nil {
		return func(next http.Handler) http.Handler { return next }
	}
	return mw.AccessLog(w)
}

// onPanic is the Recovery hook: count for /statsz, report the value
// and stack through obs under the exchange's request ID.
func (s *Server) onPanic(p mw.PanicInfo) {
	s.panics.Add(1)
	obs.Emit(s.cfg.Recorder, obs.Event{
		Kind: obs.PanicRecovered,
		Run:  fmt.Sprintf("%s %s %s", p.Method, p.Path, p.RequestID),
		Str:  fmt.Sprintf("%v\n%s", p.Value, p.Stack),
	})
}

// Handler returns the HTTP handler tree, wrapped in the middleware
// stack.
func (s *Server) Handler() http.Handler { return s.handler }

// Shutdown drains the server: admission stops immediately (healthz
// flips to 503, new decisions get 503 draining), in-flight decisions
// run to completion, and if ctx expires first they are cancelled
// through the engine's context plumbing (they then finish promptly
// with INCONCLUSIVE(cancelled) verdicts). Shutdown returns nil after a
// clean drain and ctx's error after a forced one; either way no
// request goroutines remain.
func (s *Server) Shutdown(ctx context.Context) error {
	drained := make(chan struct{})
	go func() {
		s.adm.drain()
		close(drained)
	}()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
		s.baseCancel() // hard-stop in-flight searches; they exit promptly
		<-drained
		return ctx.Err()
	}
}

// instrument wraps a handler with the per-endpoint gauges. Errors and
// shed requests count when the handler writes its status code, so
// /statsz is current before the response that implies it reaches the
// client. in_flight and latency settle in a deferred function, so a
// panicking handler (recovered by the middleware above the mux) still
// leaves in_flight and counts as one error instead of skewing the
// gauges forever.
func (s *Server) instrument(name string, h http.HandlerFunc) http.HandlerFunc {
	m := s.metrics[name]
	return func(w http.ResponseWriter, r *http.Request) {
		m.requests.Add(1)
		m.inFlight.Add(1)
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, m: m}
		panicked := true
		defer func() {
			m.inFlight.Add(-1)
			m.latencyUS.Add(time.Since(start).Microseconds())
			if panicked && sw.code < 400 {
				m.errors.Add(1) // no failing status counted it
			}
		}()
		h(sw, r)
		panicked = false
	}
}

// statusWriter records the response code, counting a failing one in
// the endpoint's gauges as it is written.
type statusWriter struct {
	http.ResponseWriter
	m    *endpointMetrics
	code int // 0 until the status is written
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
		if code >= 400 {
			w.m.errors.Add(1)
			if code == http.StatusServiceUnavailable {
				w.m.shed.Add(1)
			}
		}
	}
	w.ResponseWriter.WriteHeader(code)
}

// Write sends the implicit 200 status when none was written.
func (w *statusWriter) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(p)
}

// Unwrap exposes the wrapped writer so http.ResponseController (the
// streaming handler's per-connection deadlines) and http.Flusher reach
// the real connection through the instrumentation.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// writeJSON marshals v with a trailing newline (curl-friendly).
func writeJSON(w http.ResponseWriter, code int, v any) {
	body, err := json.Marshal(v)
	if err != nil { // wire types are marshalable; this is a programming error
		http.Error(w, `{"error":"internal: marshal failed"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(append(body, '\n'))
}

// writeError completes a failed exchange; the body echoes the request
// ID so a logged error correlates without the response headers.
func writeError(w http.ResponseWriter, r *http.Request, code int, err error) {
	writeJSON(w, code, ErrorResponse{Error: err.Error(), RequestID: mw.RequestIDFrom(r.Context())})
}

// writeUnavailable maps admission failures onto 503 + Retry-After,
// rounding sub-second hints up so the header never renders "0" (which
// clients read as "retry immediately" — the opposite of backing off).
func (s *Server) writeUnavailable(w http.ResponseWriter, r *http.Request, err error) {
	w.Header().Set("Retry-After", strconv.Itoa(int((s.cfg.RetryAfter+time.Second-1)/time.Second)))
	writeError(w, r, http.StatusServiceUnavailable, err)
}

// decode reads a bounded JSON body holding exactly one value, rejecting
// unknown fields so a misspelled option fails loudly instead of
// silently running ungoverned, and data after the value for the same
// reason. Trailing whitespace is accepted.
func decode(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	if _, err := dec.Token(); !errors.Is(err, io.EOF) {
		return errors.New("bad request body: data after the JSON value")
	}
	return nil
}

// decisionContext builds the context a decision runs under: the
// request's governed deadline, hard-stopped by Shutdown's baseCancel.
// It is deliberately NOT derived from the HTTP request context — the
// computed verdict is content-addressed and shared (singleflight,
// cache), so one impatient client must not cancel the fill its
// duplicates are waiting on.
func (s *Server) decisionContext(timeout time.Duration) (context.Context, context.CancelFunc) {
	if timeout > 0 {
		return context.WithTimeout(s.baseCtx, timeout)
	}
	return context.WithCancel(s.baseCtx)
}

// respond writes a computed-or-cached body, tagging the cache source.
func respond(w http.ResponseWriter, src cacheSource, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Ccmd-Cache", src.String())
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}

func (s *Server) handleCheck(w http.ResponseWriter, r *http.Request) {
	var req CheckRequest
	if err := decode(w, r, &req); err != nil {
		writeError(w, r, http.StatusBadRequest, err)
		return
	}
	models, err := validModels(req.Models, memmodel.ModelNames())
	if err != nil {
		writeError(w, r, http.StatusBadRequest, err)
		return
	}
	named, ofn, err := observer.ParsePairString(req.Pair)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, err)
		return
	}
	if named.Comp.NumNodes() == 0 {
		writeError(w, r, http.StatusBadRequest, errors.New("pair has no nodes"))
		return
	}
	// Content address: the canonical re-rendering of the parsed pair
	// (comments, blank lines, and duplicate defaults vanish), the model
	// list, and the effective governance fingerprint.
	var canon strings.Builder
	if err := observer.FormatPair(&canon, named, ofn); err != nil {
		writeError(w, r, http.StatusBadRequest, err)
		return
	}
	key := Key("check", canon.String(), strings.Join(models, ","), s.cfg.Limits.optionsFingerprint(req.Options))

	rec := s.requestRecorder(r)
	body, src, err := s.cache.do(r.Context(), key, func() ([]byte, bool, error) {
		release, err := s.adm.admit(r.Context())
		if err != nil {
			return nil, false, err
		}
		defer release()
		opts, timeout := s.cfg.Limits.searchOptions(req.Options)
		ctx, cancel := s.decisionContext(timeout)
		defer cancel()

		resp := CheckResponse{Results: make([]ModelResult, 0, len(models))}
		cacheable := true
		for _, model := range models {
			opts.Recorder = obs.WithRun(rec, model)
			d, err := memmodel.DecideByName(ctx, model, named.Comp, ofn, opts)
			if err != nil { // unreachable: models were validated
				return nil, false, err
			}
			s.countDecision(model)
			cacheable = cacheable && d.Verdict.Decided
			resp.Results = append(resp.Results, Render(named, d))
		}
		body, err := json.Marshal(resp)
		return append(body, '\n'), cacheable, err
	})
	if err != nil {
		s.writeAdmissionError(w, r, err)
		return
	}
	respond(w, src, body)
}

func (s *Server) handleVerify(w http.ResponseWriter, r *http.Request) {
	var req VerifyRequest
	if err := decode(w, r, &req); err != nil {
		writeError(w, r, http.StatusBadRequest, err)
		return
	}
	nt, err := trace.ParseTraceString(req.Trace)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, err)
		return
	}
	var canon strings.Builder
	if err := nt.Format(&canon); err != nil {
		writeError(w, r, http.StatusBadRequest, err)
		return
	}
	key := Key("verify", canon.String(), s.cfg.Limits.optionsFingerprint(req.Options))

	rec := s.requestRecorder(r)
	body, src, err := s.cache.do(r.Context(), key, func() ([]byte, bool, error) {
		release, err := s.adm.admit(r.Context())
		if err != nil {
			return nil, false, err
		}
		defer release()
		tr := nt.Trace
		if !tr.Explainable() {
			body, err := json.Marshal(VerifyResponse{Explainable: false})
			return append(body, '\n'), err == nil, err
		}
		opts, timeout := s.cfg.Limits.searchOptions(req.Options)
		ctx, cancel := s.decisionContext(timeout)
		defer cancel()

		lcOpts := opts
		lcOpts.Recorder = obs.WithRun(rec, "LC")
		lcRes, lcVerdict, lcStats := checker.VerifyLCCtx(ctx, tr, lcOpts)
		lc := &VerifyResult{Verdict: lcVerdict, Text: checker.VerdictText(lcVerdict), States: lcStats.States}
		if lcVerdict.In() {
			lc.Witness = fmt.Sprintf("%v", lcRes.Observer)
		}

		scOpts := opts
		scOpts.Recorder = obs.WithRun(rec, "SC")
		scRes, scVerdict, scStats := checker.VerifySCCtx(ctx, tr, scOpts)
		sc := &VerifyResult{Verdict: scVerdict, Text: checker.VerdictText(scVerdict), States: scStats.States}
		if scVerdict.In() {
			sc.Witness = fmt.Sprintf("%v", scRes.Observer)
		}

		resp := VerifyResponse{
			Explainable: true,
			LC:          lc,
			SC:          sc,
			Relaxed:     lcVerdict.In() && scVerdict.Out(),
		}
		body, err := json.Marshal(resp)
		cacheable := lcVerdict.Decided && scVerdict.Decided
		return append(body, '\n'), cacheable, err
	})
	if err != nil {
		s.writeAdmissionError(w, r, err)
		return
	}
	respond(w, src, body)
}

func (s *Server) handleEnumerate(w http.ResponseWriter, r *http.Request) {
	var req EnumerateRequest
	if err := decode(w, r, &req); err != nil {
		writeError(w, r, http.StatusBadRequest, err)
		return
	}
	if req.MaxNodes < 0 || req.Locs < 0 {
		writeError(w, r, http.StatusBadRequest, errors.New("max_nodes and locs must be non-negative"))
		return
	}
	n := req.MaxNodes
	if n == 0 || n > s.cfg.Limits.MaxEnumNodes {
		n = s.cfg.Limits.MaxEnumNodes
	}
	locs := req.Locs
	if locs == 0 {
		locs = 1
	}
	workers := req.Workers
	if workers < 0 {
		workers = 0
	}
	key := Key("enumerate", strconv.Itoa(n), strconv.Itoa(locs))

	rec := s.requestRecorder(r)
	body, src, err := s.cache.do(r.Context(), key, func() ([]byte, bool, error) {
		release, err := s.adm.admit(r.Context())
		if err != nil {
			return nil, false, err
		}
		defer release()
		// MaxEnumNodes is the admission-time bound that keeps the sweep
		// tractable; the decision context cancels it mid-flight on drain
		// or timeout. The reduced sweep decides one representative per
		// isomorphism class (identical table, far fewer decisions) and
		// feeds the /statsz symmetry gauges.
		ctx, cancel := s.decisionContext(s.cfg.Limits.DefaultTimeout)
		defer cancel()
		census, err := expt.MembershipCensusReducedObs(ctx, n, locs, workers, rec)
		if err != nil {
			return nil, false, err
		}
		body, err := json.Marshal(EnumerateResponse{MaxNodes: n, Locs: locs, Census: census})
		return append(body, '\n'), err == nil, err
	})
	if err != nil {
		s.writeAdmissionError(w, r, err)
		return
	}
	respond(w, src, body)
}

// requestRecorder threads the exchange's request ID into the decision
// event stream: every run label the handler's fill produces is
// prefixed with it, so a report or trace line correlates back to the
// access log. Falls back to the raw recorder when no RequestID
// middleware wrapped the exchange.
func (s *Server) requestRecorder(r *http.Request) obs.Recorder {
	if id := mw.RequestIDFrom(r.Context()); id != "" {
		return obs.WithRunPrefix(s.cfg.Recorder, id+" ")
	}
	return s.cfg.Recorder
}

// writeAdmissionError distinguishes shed/drain (503) from client
// aborts while queued (499-style; Go has no constant, use 503 as well
// but without Retry-After semantics confusion — the client is gone).
func (s *Server) writeAdmissionError(w http.ResponseWriter, r *http.Request, err error) {
	switch {
	case errors.Is(err, ErrOverloaded), errors.Is(err, ErrDraining):
		s.writeUnavailable(w, r, err)
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		// The client gave up (or its exchange deadline fired) while
		// queued or waiting on a shared fill; nobody may be reading, but
		// complete the exchange for middleware's sake.
		writeError(w, r, http.StatusServiceUnavailable, err)
	default:
		writeError(w, r, http.StatusInternalServerError, err)
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.adm.stats().Draining {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	adm := s.adm.stats()
	doc := Statsz{
		UptimeMS:        time.Since(s.start).Milliseconds(),
		Draining:        adm.Draining,
		PanicsRecovered: s.panics.Load(),
		Admission:       adm,
		Cache:           s.cache.stats(),
		Engine:          s.totals.stats(),
		Decisions:       make(map[string]int64, len(s.decisions)),
		Stream:          s.streams.stats(),
		Runtime:         readRuntimeStats(),
		Endpoints:       make(map[string]EndpointStats, len(s.metrics)),
	}
	for name, m := range s.metrics {
		doc.Endpoints[name] = m.stats()
	}
	for model, c := range s.decisions {
		doc.Decisions[model] = c.Load()
	}
	writeJSON(w, http.StatusOK, doc)
}
