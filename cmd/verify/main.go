// Command verify performs post-mortem analysis on an executed trace
// read from a file: it decides whether the observed values are
// explainable under sequential consistency and location consistency,
// and prints witness serializations when they are.
//
// Usage:
//
//	verify [-max-states N] [-timeout D] [-max-memo-mb N] [-witness] FILE
//	verify -demo
//
// File format — the computation format plus values, with whole-line
// '#' comments:
//
//	locs data flag
//	node Wd W(data) = 1
//	node Wf W(flag) = 1
//	node Rf R(flag) = 1
//	# ? or ⊥ means "read uninitialized memory"
//	node Rd R(data) = ?
//	edge Wd Wf
//	edge Rf Rd
//
// Verdicts are three-valued: explainable, VIOLATED, or
// INCONCLUSIVE(reason) when a governor (-timeout, -max-states) stopped
// the search first; -max-memo-mb is exact and never inconclusive. Exit
// codes: 0 when every check is explainable, 1 when any check is
// definitively violated, 2 on usage errors (a negative governance flag
// among them), 3 when the outcome is inconclusive. -max-states caps
// each search at 1,000,000 states by default; 0 lifts the cap.
//
// Whether a committed (computation, observer) pair is in a model is
// ccmc's question (and POST /v1/check's), not verify's.
//
// Two streaming modes mirror the ccmd daemon's POST /v1/trace:
//
//	verify -stream FILE   feed the trace event-by-event through the
//	                      incremental online checker (internal/stream),
//	                      reporting stable violations the moment they
//	                      become observable; the final LC/SC verdicts
//	                      and the exit code are identical to the
//	                      post-mortem run on the same trace.
//	verify -events FILE   print the trace as its NDJSON event stream
//	                      (the /v1/trace wire format) and exit — the
//	                      payload generator for streaming clients and
//	                      the CI smoke test.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/checker"
	"repro/internal/obs"
	"repro/internal/search"
	"repro/internal/stream"
	"repro/internal/trace"
)

const demoTrace = `locs data flag
node Wd W(data) = 1
node Wf W(flag) = 1
node Rf R(flag) = 1
node Rd R(data) = ?
edge Wd Wf
edge Rf Rd
`

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("verify", flag.ContinueOnError)
	fs.SetOutput(stderr)
	maxStates := fs.Int64("max-states", 1000000, "per-search state cap (0 = unlimited); exhaustion yields INCONCLUSIVE(budget)")
	timeout := fs.Duration("timeout", 0, "wall-clock limit for the checks (0 = none); expiry yields INCONCLUSIVE(deadline)")
	maxMemoMB := fs.Int64("max-memo-mb", 0, "cap on search memoization memory in MiB (0 = unlimited); exact, never inconclusive")
	witness := fs.Bool("witness", false, "print witness observer functions")
	demo := fs.Bool("demo", false, "verify the built-in message-passing demo trace")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0), "parallel root-splitting workers for the searches")
	streamMode := fs.Bool("stream", false, "verify incrementally through the online checker, reporting stable violations mid-stream")
	emitEvents := fs.Bool("events", false, "print the trace as its NDJSON event stream (the /v1/trace wire format) and exit")
	obsFlags := obs.AddFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	opts, err := searchOptions(*workers, *timeout, *maxStates, *maxMemoMB)
	if err != nil {
		fmt.Fprintln(stderr, "verify:", err)
		return 2
	}
	return obsFlags.Run("verify", args, stderr, func(rec obs.Recorder) int {
		return runChecks(fs, rec, opts, *timeout, *witness, *demo, *streamMode, *emitEvents, stdout, stderr)
	})
}

// searchOptions maps the governance flags onto the searches' options.
// Negative values are usage errors; the memo cap converts through
// search.MiB, so an oversized one saturates instead of wrapping.
func searchOptions(workers int, timeout time.Duration, maxStates, maxMemoMB int64) (checker.SearchOptions, error) {
	if maxStates < 0 || maxMemoMB < 0 || timeout < 0 {
		return checker.SearchOptions{}, errors.New("-max-states, -max-memo-mb, and -timeout must be non-negative")
	}
	return checker.SearchOptions{Workers: workers, Budget: maxStates, MaxMemoBytes: search.MiB(maxMemoMB)}, nil
}

func runChecks(fs *flag.FlagSet, rec obs.Recorder, opts checker.SearchOptions, timeout time.Duration,
	witness, demo, streamMode, emitEvents bool, stdout, stderr io.Writer) int {

	var nt *trace.NamedTrace
	var err error
	if demo {
		nt, err = trace.ParseTraceString(demoTrace)
		fmt.Fprint(stdout, "verifying the built-in message-passing trace:\n\n"+demoTrace+"\n")
	} else {
		if fs.NArg() != 1 {
			fmt.Fprintln(stderr, "usage: verify [-max-states N] [-timeout D] [-witness] FILE | verify -demo")
			return 2
		}
		var f *os.File
		f, err = os.Open(fs.Arg(0))
		if err == nil {
			defer f.Close()
			nt, err = trace.ParseTrace(f)
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "verify:", err)
		return 1
	}
	tr := nt.Trace

	if emitEvents {
		evs, err := stream.EventsFromTrace(nt)
		if err == nil {
			err = stream.WriteNDJSON(stdout, evs)
		}
		if err != nil {
			fmt.Fprintln(stderr, "verify:", err)
			return 1
		}
		return 0
	}

	if !tr.Explainable() {
		fmt.Fprintln(stdout, "UNEXPLAINABLE: some read returns a value no eligible write stored")
		return 1
	}

	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	if streamMode {
		return streamChecks(ctx, rec, nt, opts, witness, stdout, stderr)
	}

	opts.Recorder = rec
	return printVerdicts(stdout, checker.Verify(ctx, tr, opts), witness)
}

// streamChecks replays the parsed trace through the incremental online
// checker — the same engine behind ccmd's POST /v1/trace — printing
// each stable violation the moment it becomes observable, then the
// same LC/SC verdict lines (and exit code) the post-mortem path
// prints. Online-proved violations short-circuit their post-mortem
// search, so those lines report 0 search states.
func streamChecks(ctx context.Context, rec obs.Recorder, nt *trace.NamedTrace,
	opts checker.SearchOptions, witness bool, stdout, stderr io.Writer) int {

	evs, err := stream.EventsFromTrace(nt)
	if err != nil {
		fmt.Fprintln(stderr, "verify:", err)
		return 1
	}
	chk := stream.New(stream.Options{CheckEvery: 1})
	srec := obs.WithRun(rec, "stream")
	obs.Emit(srec, obs.Event{Kind: obs.RunStart, Total: len(evs)})
	for _, ev := range evs {
		v, err := chk.Ingest(ev)
		if err != nil {
			fmt.Fprintln(stderr, "verify:", err)
			return 1
		}
		if v != nil {
			models := strings.Join(v.Models, ",")
			fmt.Fprintf(stdout, "stream: event %d: stable %s violation at %s excludes %s\n",
				v.Event, v.Kind, v.Node, models)
			obs.Emit(srec, obs.Event{Kind: obs.StreamViolation, Str: models + " " + v.Kind, N: v.Event})
		}
	}
	fopts := opts
	fopts.Recorder = obs.WithRun(rec, "stream-final")
	fin := chk.Finish(ctx, fopts, search.StopNone)

	st := chk.Stats()
	summary := fmt.Sprintf("LC=%s SC=%s", checker.VerdictText(fin.LC.Verdict), checker.VerdictText(fin.SC.Verdict))
	obs.Emit(srec, obs.Event{Kind: obs.StreamDone, N: st.Events, Total: int(st.Shed), Str: summary})
	obs.Emit(srec, obs.Event{Kind: obs.RunEnd, Str: summary})

	return printVerdicts(stdout, fin, witness)
}

// printVerdicts prints a trace's LC and SC verdict lines, the witnesses
// when asked for, the governor note and the diagnosis, and returns the
// exit code: 1 when either check is violated, else 3 when either is
// inconclusive, else 0. The post-mortem and the streaming runs both end
// here, so their output cannot drift apart.
func printVerdicts(stdout io.Writer, v checker.Verdicts, witness bool) int {
	lc, sc := v.LC.Verdict, v.SC.Verdict
	fmt.Fprintf(stdout, "LC: %s  (search states: %d)\n", checker.VerdictText(lc), v.LC.Stats.States)
	if lc.In() && witness {
		fmt.Fprintf(stdout, "    witness: %v\n", v.LC.Observer)
	}
	fmt.Fprintf(stdout, "SC: %s  (search states: %d)\n", checker.VerdictText(sc), v.SC.Stats.States)
	switch {
	case sc.In() && witness:
		fmt.Fprintf(stdout, "    witness: %v\n", v.SC.Observer)
	case sc.Inconclusive():
		fmt.Fprintf(stdout, "    stopped by the %s governor; raise -timeout/-max-states and retry\n", sc.Reason)
	}

	if v.Relaxed() {
		fmt.Fprintln(stdout, "\n=> a relaxed (coherent but not sequentially consistent) execution")
	}
	if lc.Out() {
		fmt.Fprintln(stdout, "\n=> not even location consistent: per-location write serialization is violated")
	}
	switch {
	case lc.Out() || sc.Out():
		return 1
	case lc.Inconclusive() || sc.Inconclusive():
		return 3
	}
	return 0
}
