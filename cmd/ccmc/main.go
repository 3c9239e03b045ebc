// Command ccmc is the computation-centric model checker: it reads a
// (computation, observer function) pair from a file and reports which
// memory models of the paper contain it.
//
// Usage:
//
//	ccmc [-model NAME] [-explain] [-timeout D] [-max-states N] [-max-memo-mb N] FILE
//	ccmc -demo
//
// The file format is the text format of internal/computation plus
// `observe NODE LOC WRITER` lines:
//
//	locs x
//	node A W(x)
//	node B R(x)
//	edge A B
//	observe B x A
//
// With -demo, ccmc checks the paper's Figure 2 pair instead of a file.
//
// Every verdict is three-valued: IN, OUT, or INCONCLUSIVE(reason) when
// a resource governor (-timeout, -max-states, -max-memo-mb is exact
// and never inconclusive) stopped a decision first. Exit codes: 0 on
// definitive verdicts (1 when -model selects a single model and it is
// OUT), 2 on usage errors (an unknown -model or a negative governance
// flag among them), 3 when any verdict is inconclusive.
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

	"repro/internal/computation"
	"repro/internal/memmodel"
	"repro/internal/obs"
	"repro/internal/observer"
	"repro/internal/paperfig"
	"repro/internal/search"
	"repro/internal/serve"
	"repro/internal/viz"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ccmc", flag.ContinueOnError)
	fs.SetOutput(stderr)
	model := fs.String("model", "", "check only this model ("+strings.Join(memmodel.ModelNames(), ", ")+"; case-insensitive)")
	explain := fs.Bool("explain", false, "print violation/witness details")
	demo := fs.Bool("demo", false, "check the built-in Figure 2 pair instead of a file")
	dot := fs.Bool("dot", false, "emit the pair as Graphviz DOT instead of checking")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0), "parallel root-splitting workers for the SC search")
	timeout := fs.Duration("timeout", 0, "wall-clock limit for the decisions (0 = none); expiry yields INCONCLUSIVE(deadline)")
	maxStates := fs.Int64("max-states", 0, "cap on SC search states (0 = unlimited); exhaustion yields INCONCLUSIVE(budget)")
	maxMemoMB := fs.Int64("max-memo-mb", 0, "cap on SC search memoization memory in MiB (0 = unlimited); exact, never inconclusive")
	obsFlags := obs.AddFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	opts, err := searchOptions(*workers, *timeout, *maxStates, *maxMemoMB)
	if err != nil {
		fmt.Fprintln(stderr, "ccmc:", err)
		return 2
	}
	return obsFlags.Run("ccmc", args, stderr, func(rec obs.Recorder) int {
		opts.Recorder = rec
		return runChecks(fs, opts, *model, *explain, *demo, *dot, *timeout, stdout, stderr)
	})
}

// searchOptions maps the governance flags onto the deciders' options.
// Negative values are usage errors; the memo cap converts through
// search.MiB, so an oversized one saturates instead of wrapping.
func searchOptions(workers int, timeout time.Duration, maxStates, maxMemoMB int64) (memmodel.SearchOptions, error) {
	if timeout < 0 || maxStates < 0 || maxMemoMB < 0 {
		return memmodel.SearchOptions{}, errors.New("-timeout, -max-states, and -max-memo-mb must be non-negative")
	}
	return memmodel.SearchOptions{Workers: workers, Budget: maxStates, MaxMemoBytes: search.MiB(maxMemoMB)}, nil
}

func runChecks(fs *flag.FlagSet, opts memmodel.SearchOptions, model string, explain, demo, dot bool,
	timeout time.Duration, stdout, stderr io.Writer) int {

	models := memmodel.ModelNames()
	if model != "" {
		m, err := memmodel.Lookup(model)
		if err != nil {
			fmt.Fprintln(stderr, "ccmc:", err)
			return 2
		}
		models = []string{m.Name()}
	}

	var (
		comp  *computation.Computation
		ofn   *observer.Observer
		named *computation.Named
	)
	if demo {
		fx := paperfig.Figure2()
		comp, ofn = fx.Comp, fx.Obs
		fmt.Fprintln(stdout, "checking the built-in Figure 2 pair:")
		fmt.Fprintf(stdout, "  %v\n  %v\n", comp, ofn)
	} else {
		if fs.NArg() != 1 {
			fmt.Fprintln(stderr, "usage: ccmc [-model NAME] [-explain] [-timeout D] [-max-states N] [-max-memo-mb N] FILE | ccmc -demo")
			return 2
		}
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			fmt.Fprintln(stderr, "ccmc:", err)
			return 1
		}
		defer f.Close()
		named2, obs2, err := observer.ParsePair(f)
		if err != nil {
			fmt.Fprintln(stderr, "ccmc:", err)
			return 1
		}
		named, comp, ofn = named2, named2.Comp, obs2
	}

	if dot {
		opts := viz.Options{Observer: ofn, Title: "computation + observer"}
		if named != nil {
			opts.NodeNames = named.NodeName
		}
		if err := viz.WriteDOT(stdout, comp, opts); err != nil {
			fmt.Fprintln(stderr, "ccmc:", err)
			return 1
		}
		return 0
	}

	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	anyOut, anyInconclusive := false, false
	// The decision context and the rendering are shared with the
	// serving layer, so CLI and service verdicts and witnesses come from
	// one code path.
	var dec memmodel.Decider
	dec.Reset(comp)
	dec.Observe(ofn)
	for _, name := range models {
		d, err := dec.Decide(ctx, name, opts)
		if err != nil {
			fmt.Fprintln(stderr, "ccmc:", err)
			return 1
		}
		r := serve.Render(named, d)
		anyOut = anyOut || r.Verdict.Out()
		anyInconclusive = anyInconclusive || r.Verdict.Inconclusive()
		if st := r.Stats; st != nil {
			fmt.Fprintf(stdout, "%-6s %s  (search: %d states, %d memo hits, %d pruned, %d workers)\n",
				name, r.Verdict, st.States, st.MemoHits, st.Pruned, st.Workers)
		} else {
			fmt.Fprintf(stdout, "%-6s %s\n", name, r.Verdict)
		}
		if explain {
			serve.WriteExplain(stdout, r, comp, ofn)
		}
	}
	switch {
	case anyInconclusive:
		fmt.Fprintln(stderr, "ccmc: inconclusive: raise -timeout/-max-states and retry")
		return 3
	case anyOut && model != "":
		return 1
	}
	return 0
}
