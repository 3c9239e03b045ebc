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
// File format — the computation format plus values:
//
//	locs data flag
//	node Wd W(data) = 1
//	node Wf W(flag) = 1
//	node Rf R(flag) = 1
//	node Rd R(data) = ?     # ? or ⊥ means "read uninitialized memory"
//	edge Wd Wf
//	edge Rf Rd
//
// Verdicts are three-valued: explainable, VIOLATED, or
// INCONCLUSIVE(reason) when a governor (-timeout, -max-states) stopped
// the search first; -max-memo-mb is exact and never inconclusive. Exit
// codes: 0 when every check is explainable, 1 when any check is
// definitively violated, 2 on usage errors, 3 when the outcome is
// inconclusive.
//
// A pair mode mirrors the ccmc CLI and the ccmd daemon's POST
// /v1/check: given a committed (computation, observer) pair in the
// .ccm format instead of a trace, decide membership under every
// registered model (or one, with -model) through the same
// memmodel.DecideByName front door the other frontends use:
//
//	verify -pair testdata/litmus/sb.ccm
//	verify -pair -model TSO testdata/litmus/sb.ccm
//
// Pair-mode exit codes match ccmc: 0 when the survey completes (or the
// single -model answers IN), 1 when a single -model answers OUT, 2 when
// -model names no registered model, 3 when any verdict is inconclusive.
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
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/checker"
	"repro/internal/memmodel"
	"repro/internal/obs"
	"repro/internal/observer"
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
	budget := fs.Int64("budget", 1000000, "alias of -max-states (kept for compatibility; applies to every search)")
	maxStates := fs.Int64("max-states", 0, "per-search state cap (0 = use -budget); exhaustion yields INCONCLUSIVE(budget)")
	timeout := fs.Duration("timeout", 0, "wall-clock limit for the checks (0 = none); expiry yields INCONCLUSIVE(deadline)")
	maxMemoMB := fs.Int64("max-memo-mb", 0, "cap on search memoization memory in MiB (0 = unlimited); exact, never inconclusive")
	witness := fs.Bool("witness", false, "print witness observer functions")
	demo := fs.Bool("demo", false, "verify the built-in message-passing demo trace")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0), "parallel root-splitting workers for the searches")
	streamMode := fs.Bool("stream", false, "verify incrementally through the online checker, reporting stable violations mid-stream")
	emitEvents := fs.Bool("events", false, "print the trace as its NDJSON event stream (the /v1/trace wire format) and exit")
	pairMode := fs.Bool("pair", false, "FILE is a committed (computation, observer) pair in the .ccm format; decide model membership instead of verifying a trace")
	model := fs.String("model", "", "with -pair, decide only this model (default: all registered models)")
	obsFlags := obs.AddFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sess, err := obsFlags.Start("verify", args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "verify:", err)
		return 2
	}
	code := runChecks(fs, sess.Rec, *budget, *maxStates, *timeout, *maxMemoMB, *witness, *demo, *workers, *streamMode, *emitEvents, *pairMode, *model, stdout, stderr)
	if err := sess.Close(code); err != nil {
		fmt.Fprintln(stderr, "verify:", err)
		if code == 0 {
			code = 1
		}
	}
	return code
}

func runChecks(fs *flag.FlagSet, rec obs.Recorder, budget, maxStates int64, timeout time.Duration,
	maxMemoMB int64, witness, demo bool, workers int, streamMode, emitEvents, pairMode bool, model string, stdout, stderr io.Writer) int {

	if pairMode {
		if demo || streamMode || emitEvents {
			fmt.Fprintln(stderr, "verify: -pair cannot be combined with -demo, -stream, or -events")
			return 2
		}
		if fs.NArg() != 1 {
			fmt.Fprintln(stderr, "usage: verify -pair [-model M] FILE")
			return 2
		}
		return pairChecks(rec, fs.Arg(0), model, budget, maxStates, timeout, maxMemoMB, workers, stdout, stderr)
	}
	if model != "" {
		fmt.Fprintln(stderr, "verify: -model applies only to -pair")
		return 2
	}

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
	opts := checker.SearchOptions{Workers: workers, MaxMemoBytes: maxMemoMB << 20}
	opts.Budget = budget
	if maxStates > 0 {
		opts.Budget = maxStates
	}

	if streamMode {
		return streamChecks(ctx, rec, nt, opts, witness, stdout, stderr)
	}

	violated, inconclusive := false, false

	// Both checks run on the engine; label each check's run events.
	lcOpts := opts
	lcOpts.Recorder = obs.WithRun(rec, "LC")
	lc, lcVerdict, lcStats := checker.VerifyLCCtx(ctx, tr, lcOpts)
	fmt.Fprintf(stdout, "LC: %s  (search states: %d)\n", checker.VerdictText(lcVerdict), lcStats.States)
	violated = violated || lcVerdict.Out()
	inconclusive = inconclusive || lcVerdict.Inconclusive()
	if lcVerdict.In() && witness {
		fmt.Fprintf(stdout, "    witness: %v\n", lc.Observer)
	}

	scOpts := opts
	scOpts.Recorder = obs.WithRun(rec, "SC")
	scRes, scVerdict, scStats := checker.VerifySCCtx(ctx, tr, scOpts)
	fmt.Fprintf(stdout, "SC: %s  (search states: %d)\n", checker.VerdictText(scVerdict), scStats.States)
	violated = violated || scVerdict.Out()
	inconclusive = inconclusive || scVerdict.Inconclusive()
	switch {
	case scVerdict.In() && witness:
		fmt.Fprintf(stdout, "    witness: %v\n", scRes.Observer)
	case scVerdict.Inconclusive():
		fmt.Fprintf(stdout, "    stopped by the %s governor; raise -timeout/-max-states and retry\n", scVerdict.Reason)
	}

	if lcVerdict.In() && scVerdict.Out() {
		fmt.Fprintln(stdout, "\n=> a relaxed (coherent but not sequentially consistent) execution")
	}
	if lcVerdict.Out() {
		fmt.Fprintln(stdout, "\n=> not even location consistent: per-location write serialization is violated")
	}
	switch {
	case violated:
		return 1
	case inconclusive:
		return 3
	}
	return 0
}

// pairChecks decides a committed (computation, observer) pair under
// the registered models — the same memmodel.DecideByName path behind
// ccmc, POST /v1/check, and fleetctl, so verify's verdicts cannot
// drift from theirs (the litmus conformance suite pins all four to one
// golden file).
func pairChecks(rec obs.Recorder, file, model string, budget, maxStates int64, timeout time.Duration,
	maxMemoMB int64, workers int, stdout, stderr io.Writer) int {

	models := memmodel.ModelNames()
	if model != "" {
		m, err := memmodel.Lookup(model)
		if err != nil {
			fmt.Fprintln(stderr, "verify:", err)
			return 2
		}
		models = []string{m.Name()}
	}

	f, err := os.Open(file)
	if err != nil {
		fmt.Fprintln(stderr, "verify:", err)
		return 1
	}
	defer f.Close()
	named, ofn, err := observer.ParsePair(f)
	if err != nil {
		fmt.Fprintln(stderr, "verify:", err)
		return 1
	}

	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	opts := memmodel.SearchOptions{Workers: workers, MaxMemoBytes: maxMemoMB << 20, Recorder: rec}
	opts.Budget = budget
	if maxStates > 0 {
		opts.Budget = maxStates
	}

	anyOut, anyInconclusive := false, false
	for _, name := range models {
		d, err := memmodel.DecideByName(ctx, name, named.Comp, ofn, opts)
		if err != nil {
			fmt.Fprintln(stderr, "verify:", err)
			return 2
		}
		anyOut = anyOut || d.Verdict.Out()
		anyInconclusive = anyInconclusive || d.Verdict.Inconclusive()
		fmt.Fprintf(stdout, "%s: %s  (search states: %d)\n", name, d.Verdict, d.Stats.States)
	}
	switch {
	case anyInconclusive:
		fmt.Fprintln(stderr, "verify: inconclusive: raise -timeout/-max-states and retry")
		return 3
	case anyOut && model != "":
		return 1
	}
	return 0
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
	fin := chk.Finish(ctx, fopts)

	st := chk.Stats()
	summary := fmt.Sprintf("LC=%s SC=%s", checker.VerdictText(fin.LC), checker.VerdictText(fin.SC))
	obs.Emit(srec, obs.Event{Kind: obs.StreamDone, N: st.Events, Total: int(st.Shed), Str: summary})
	obs.Emit(srec, obs.Event{Kind: obs.RunEnd, Str: summary})

	fmt.Fprintf(stdout, "LC: %s  (search states: %d)\n", checker.VerdictText(fin.LC), fin.LCStats.States)
	if fin.LC.In() && witness {
		fmt.Fprintf(stdout, "    witness: %v\n", fin.LCResult.Observer)
	}
	fmt.Fprintf(stdout, "SC: %s  (search states: %d)\n", checker.VerdictText(fin.SC), fin.SCStats.States)
	switch {
	case fin.SC.In() && witness:
		fmt.Fprintf(stdout, "    witness: %v\n", fin.SCResult.Observer)
	case fin.SC.Inconclusive():
		fmt.Fprintf(stdout, "    stopped by the %s governor; raise -timeout/-max-states and retry\n", fin.SC.Reason)
	}

	if fin.LC.In() && fin.SC.Out() {
		fmt.Fprintln(stdout, "\n=> a relaxed (coherent but not sequentially consistent) execution")
	}
	if fin.LC.Out() {
		fmt.Fprintln(stdout, "\n=> not even location consistent: per-location write serialization is violated")
	}
	switch {
	case fin.LC.Out() || fin.SC.Out():
		return 1
	case fin.LC.Inconclusive() || fin.SC.Inconclusive():
		return 3
	}
	return 0
}
