// Command ccmd is the decision stack as a daemon: an HTTP/JSON
// verification service exposing the model-membership checkers, the
// post-mortem trace verifier, and the enumeration census.
//
//	ccmd -addr localhost:8080
//
//	POST /v1/check      (computation, observer) pair -> per-model verdicts
//	POST /v1/batch      many (pair, model, frontier shard) items -> per-item verdicts
//	POST /v1/verify     executed trace -> LC/SC explainability + witnesses
//	POST /v1/trace      NDJSON event stream -> incremental online verification
//	POST /v1/enumerate  universe bounds -> membership census
//	GET  /healthz       liveness ("ok" / 503 "draining")
//	GET  /statsz        queue, cache, and per-endpoint gauges as JSON
//
// /v1/batch is the fleet transport: cmd/fleetctl shards the SC root
// frontier across many ccmd replicas and merges the shard verdicts
// back into the single-box answer (see internal/fleet).
//
// Request bodies are JSON wrapping the same text formats the CLIs
// read, and verdicts come back in the same spelling the CLIs print —
// the service is a conformant remote front end for ccmc and verify,
// not a reimplementation.
//
// The daemon admission-controls NP-hard searches (bounded queue, 503 +
// Retry-After on overload), serves repeated queries from a
// content-addressed verdict cache, and on SIGTERM/SIGINT drains
// in-flight decisions before exiting — past -drain-timeout they are
// cancelled through the engine and reported INCONCLUSIVE(cancelled).
//
// Every exchange runs inside the middleware armor of internal/mw:
// request IDs (X-Request-Id, generated or propagated, echoed in error
// bodies and the -access-log), panic recovery (a panicking decision is
// a 500 and a panics_recovered tick on /statsz, never a crash), an
// exchange deadline clamped onto the governance limits, and transport
// read/write/idle timeouts against stalled clients (-read-header-timeout
// et al.). The streaming endpoint /v1/trace is exempt from both the
// exchange deadline and the blanket transport read timeout — its
// long-lived connections are governed per-stream by -stream-max-age
// and -stream-idle instead, so -read-timeout can stay aggressive
// without cutting healthy streams.
//
// Exit codes: 0 clean shutdown, 1 runtime error, 2 usage error.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/mw"
	"repro/internal/obs"
	"repro/internal/search"
	"repro/internal/serve"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: it serves until ctx is cancelled
// (the signal path in main), then drains and exits.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ccmd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "localhost:8080", "listen address (host:port; port 0 picks a free port)")
	slots := fs.Int("slots", 0, "concurrent decision slots (0 = GOMAXPROCS)")
	queue := fs.Int("queue", 0, "admission queue depth beyond the slots (0 = 2x slots)")
	cacheMB := fs.Int64("cache-mb", 64, "verdict cache budget in MiB (0 disables storage)")
	timeout := fs.Duration("timeout", 30*time.Second, "default per-request wall-clock budget")
	maxTimeout := fs.Duration("max-timeout", 5*time.Minute, "ceiling on per-request deadlines")
	maxStates := fs.Int64("max-states", 0, "ceiling on per-decision state budgets (0 = none)")
	maxMemoMB := fs.Int64("max-memo-mb", 0, "ceiling on per-search memo tables, MiB (0 = none)")
	maxWorkers := fs.Int("max-workers", 0, "ceiling on per-request engine width (0 = none)")
	maxEnumNodes := fs.Int("max-enum-nodes", 4, "ceiling on /v1/enumerate universe bounds")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "grace for in-flight work on shutdown before hard cancel")
	requestTimeout := fs.Duration("request-timeout", 0, "whole-exchange deadline per request (0 derives from the governance limits; negative disables)")
	readHeaderTimeout := fs.Duration("read-header-timeout", 10*time.Second, "drop connections that stall before finishing their request headers (slow-loris guard; 0 disables)")
	readTimeout := fs.Duration("read-timeout", time.Minute, "ceiling on reading a whole request, headers and body (0 disables)")
	writeTimeout := fs.Duration("write-timeout", 0, "ceiling on writing a response (0 disables; must exceed -max-timeout or long decisions are cut off mid-reply)")
	idleTimeout := fs.Duration("idle-timeout", 2*time.Minute, "keep-alive connections idle longer than this are closed (0 disables)")
	streamMaxAge := fs.Duration("stream-max-age", 10*time.Minute, "absolute lifetime cap on one /v1/trace stream")
	streamIdle := fs.Duration("stream-idle", time.Minute, "rolling deadline for the next /v1/trace event; a stalled stream finishes INCONCLUSIVE(deadline)")
	streamHeartbeat := fs.Duration("stream-heartbeat", 5*time.Second, "cadence of gauge heartbeat records on /v1/trace responses")
	streamBuffer := fs.Int("stream-buffer", 1024, "per-stream event queue capacity, exact; overflow sheds and degrades to INCONCLUSIVE(overrun)")
	streamMaxEvents := fs.Int64("stream-max-events", 0, "cap on node events per /v1/trace stream; past it the overflow policy sheds (0 = unlimited)")
	accessLog := fs.String("access-log", "", "structured access-log destination: a file path (appended), or - for stderr (empty disables)")
	trustedProxies := fs.String("trusted-proxies", "", "comma-separated CIDRs/IPs whose X-Forwarded-For headers are honored for client-IP logging")
	obsFlags := obs.AddFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "ccmd: unexpected arguments: %v\n", fs.Args())
		fs.Usage()
		return 2
	}
	if *cacheMB < 0 || *slots < 0 || *queue < 0 {
		fmt.Fprintln(stderr, "ccmd: -cache-mb, -slots, and -queue must be non-negative")
		return 2
	}
	proxies, err := mw.ParseProxyList(*trustedProxies)
	if err != nil {
		fmt.Fprintf(stderr, "ccmd: -trusted-proxies: %v\n", err)
		return 2
	}
	var accessW io.Writer
	switch *accessLog {
	case "":
	case "-":
		accessW = stderr
	default:
		f, err := os.OpenFile(*accessLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintf(stderr, "ccmd: -access-log: %v\n", err)
			return 1
		}
		defer f.Close()
		accessW = f
	}

	cfg := serveConfig{
		addr:              *addr,
		drainTimeout:      *drainTimeout,
		readHeaderTimeout: *readHeaderTimeout,
		readTimeout:       *readTimeout,
		writeTimeout:      *writeTimeout,
		idleTimeout:       *idleTimeout,
		server: serve.Config{
			Slots:      *slots,
			Queue:      *queue,
			CacheBytes: search.MiB(*cacheMB),
			Limits: serve.Limits{
				DefaultTimeout: *timeout,
				MaxTimeout:     *maxTimeout,
				MaxStates:      *maxStates,
				MaxMemoMB:      *maxMemoMB,
				MaxWorkers:     *maxWorkers,
				MaxEnumNodes:   *maxEnumNodes,
			},
			AccessLog:      accessW,
			TrustedProxies: proxies,
			RequestTimeout: *requestTimeout,
			Stream: serve.StreamConfig{
				MaxAge:      *streamMaxAge,
				IdleTimeout: *streamIdle,
				Heartbeat:   *streamHeartbeat,
				Buffer:      *streamBuffer,
				MaxEvents:   *streamMaxEvents,
			},
		},
	}
	return obsFlags.Run("ccmd", args, stderr, func(rec obs.Recorder) int {
		cfg.server.Recorder = rec
		return serveLoop(ctx, cfg, stdout, stderr)
	})
}

type serveConfig struct {
	addr              string
	drainTimeout      time.Duration
	readHeaderTimeout time.Duration
	readTimeout       time.Duration
	writeTimeout      time.Duration
	idleTimeout       time.Duration
	server            serve.Config
}

func serveLoop(ctx context.Context, cfg serveConfig, stdout, stderr io.Writer) int {
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		fmt.Fprintf(stderr, "ccmd: %v\n", err)
		return 1
	}
	srv := serve.New(cfg.server)
	// The transport-level armor: a server with no read deadlines holds a
	// goroutine and a connection hostage for every client that stalls
	// mid-headers (slow loris) or walks away mid-body.
	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: cfg.readHeaderTimeout,
		ReadTimeout:       cfg.readTimeout,
		WriteTimeout:      cfg.writeTimeout,
		IdleTimeout:       cfg.idleTimeout,
	}
	fmt.Fprintf(stdout, "ccmd: serving on http://%s\n", ln.Addr())

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		fmt.Fprintf(stderr, "ccmd: %v\n", err)
		return 1
	case <-ctx.Done():
	}

	// Drain: admission closes first (new work sees 503 draining while
	// the listener still answers, so health checks flip before the
	// socket goes away), in-flight decisions finish — or are cancelled
	// at the grace deadline — and only then does the listener close.
	fmt.Fprintf(stdout, "ccmd: draining (grace %v)\n", cfg.drainTimeout)
	dctx, cancel := context.WithTimeout(context.Background(), cfg.drainTimeout)
	defer cancel()
	code := 0
	if err := srv.Shutdown(dctx); err != nil {
		fmt.Fprintf(stderr, "ccmd: drain incomplete: %v\n", err)
	}
	// Past a hard cancel the decisions abort promptly, but their
	// handlers still need a moment to flush the INCONCLUSIVE(cancelled)
	// responses — give the listener teardown its own short grace.
	hctx, hcancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer hcancel()
	if err := httpSrv.Shutdown(hctx); err != nil {
		fmt.Fprintf(stderr, "ccmd: %v\n", err)
		httpSrv.Close()
		code = 1
	}
	fmt.Fprintln(stdout, "ccmd: drained")
	return code
}
