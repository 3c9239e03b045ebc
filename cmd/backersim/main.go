// Command backersim runs the BACKER coherence algorithm of Cilk on a
// simulated multiprocessor and verifies, post mortem, that every
// execution is location consistent — the claim of [Luc97] that Section 7
// of the paper builds on. It also regenerates the speedup-shape
// experiment of [BFJ+96a/b], and hosts the deterministic chaos harness:
// systematic fault-plan exploration, counterexample shrinking, and
// byte-replayable repros.
//
// Usage:
//
//	backersim [-trials N] [-nodes N] [-locs L] [-p P] [-seed S] [-faults PROB]
//	backersim -sweep [-shape spawn|grid|layered]
//	backersim -explore [-ccm FILE] [-depth 1|2] [-timeout D] [-max-states N]
//	backersim -shrink  [-ccm FILE] [-artifact-dir DIR] ...
//	backersim -replay PATH [-ccm FILE] ...
//
// Examples:
//
//	backersim                                  # 200 random executions, LC-verified
//	backersim -faults 0.5 -seed 7              # probabilistic faults; count catches
//	backersim -explore -ccm testdata/stale_read.ccm -p 2
//	backersim -shrink -ccm testdata/stale_read.ccm -p 2 -artifact-dir /tmp/repro
//	backersim -replay /tmp/repro               # replay the shrunk artifact
//	backersim -replay plan.chaos -ccm testdata/stale_read.ccm -p 2
//
// The chaos modes derive their schedule deterministically (greedy list
// scheduling of the -ccm computation, or of a seeded random computation
// when -ccm is absent), so a plan printed by -explore replays
// byte-for-byte with -replay under the same flags; -shrink writes a
// fully self-contained artifact directory (plan + schedule + trace +
// DOT + lattice classification) that -replay accepts directly.
//
// Verdicts are three-valued. Exit codes follow ccmc/verify: 0 when no
// definitive LC violation was found, 1 when one was (for the chaos
// modes, finding a violation is a definitive answer), 2 on usage
// errors, 3 when a governor (-timeout, -max-states) left the outcome
// inconclusive.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"time"

	"repro/internal/backer"
	"repro/internal/chaos"
	"repro/internal/checker"
	"repro/internal/computation"
	"repro/internal/dag"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/search"
	"repro/internal/stats"
	"repro/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type config struct {
	trials, nodes, locs, procs int
	seed                       int64
	faults                     float64
	shape                      string
	ccm                        string
	depth                      int
	artifactDir                string
	timeout                    time.Duration
	maxStates                  int64
	workers                    int
	classifyTries              int
	rec                        obs.Recorder
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("backersim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := config{}
	fs.IntVar(&cfg.trials, "trials", 200, "number of random executions")
	fs.IntVar(&cfg.nodes, "nodes", 24, "computation size for random/generated computations")
	fs.IntVar(&cfg.locs, "locs", 2, "number of memory locations")
	fs.IntVar(&cfg.procs, "p", 4, "processor count")
	fs.Int64Var(&cfg.seed, "seed", 1, "random seed")
	fs.Float64Var(&cfg.faults, "faults", 0, "probability of skipping each reconcile/flush (trial mode)")
	sweep := fs.Bool("sweep", false, "run the speedup sweep instead of LC verification")
	fs.StringVar(&cfg.shape, "shape", "spawn", "dag shape for -sweep: spawn, grid, or layered")
	explore := fs.Bool("explore", false, "systematically explore fault plans and report LC violations")
	shrink := fs.Bool("shrink", false, "explore, then shrink the first violation to a minimal repro")
	replay := fs.String("replay", "", "replay a fault plan file (or artifact directory) and report the verdict")
	fs.StringVar(&cfg.ccm, "ccm", "", "computation file for the chaos modes (default: seeded random computation)")
	fs.IntVar(&cfg.depth, "depth", 1, "max fault events per explored plan (1 or 2)")
	fs.StringVar(&cfg.artifactDir, "artifact-dir", "", "with -shrink: write the repro artifact bundle here")
	fs.DurationVar(&cfg.timeout, "timeout", 0, "wall-clock limit (0 = none); expiry yields INCONCLUSIVE(deadline)")
	fs.Int64Var(&cfg.maxStates, "max-states", 0, "per-search state cap (0 = unlimited); exhaustion yields INCONCLUSIVE(budget)")
	fs.IntVar(&cfg.workers, "workers", runtime.GOMAXPROCS(0), "parallel root-splitting workers for the searches")
	fs.IntVar(&cfg.classifyTries, "classify-tries", 200000, "observer-enumeration cap for lattice classification (0 = unlimited)")
	obsFlags := obs.AddFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintln(stderr, "backersim: unexpected arguments; see -h")
		return 2
	}
	if cfg.depth < 1 || cfg.depth > 2 {
		fmt.Fprintln(stderr, "backersim: -depth must be 1 or 2")
		return 2
	}
	modes := 0
	for _, on := range []bool{*sweep, *explore, *shrink, *replay != ""} {
		if on {
			modes++
		}
	}
	if modes > 1 {
		fmt.Fprintln(stderr, "backersim: -sweep, -explore, -shrink and -replay are mutually exclusive")
		return 2
	}

	ctx := context.Background()
	if cfg.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.timeout)
		defer cancel()
	}

	return obsFlags.Run("backersim", args, stderr, func(rec obs.Recorder) int {
		cfg.rec = rec
		switch {
		case *explore:
			return runExplore(ctx, cfg, stdout, stderr)
		case *shrink:
			return runShrink(ctx, cfg, stdout, stderr)
		case *replay != "":
			return runReplay(ctx, cfg, *replay, stdout, stderr)
		case *sweep:
			return runSweep(rand.New(rand.NewSource(cfg.seed)), cfg.shape, stdout, stderr)
		}
		return runVerification(cfg, stdout, stderr)
	})
}

// searchOptions builds the governed engine options shared by every
// chaos-mode verification.
func (c config) searchOptions() checker.SearchOptions {
	return checker.SearchOptions{Workers: c.workers, Budget: c.maxStates}
}

// chaosSchedule derives the deterministic (computation, schedule) pair
// the chaos modes operate on: the -ccm file, or a seeded random
// computation, list-scheduled on -p processors.
func chaosSchedule(cfg config) (*sched.Schedule, error) {
	var c *computation.Computation
	if cfg.ccm != "" {
		f, err := os.Open(cfg.ccm)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		named, err := computation.Parse(f)
		if err != nil {
			return nil, err
		}
		c = named.Comp
	} else {
		rng := rand.New(rand.NewSource(cfg.seed))
		c = randomMemComputation(rng, cfg.nodes, cfg.locs)
	}
	return sched.ListSchedule(c, cfg.procs, nil)
}

// printOutcome renders a (plan, verdict, trace) block. The format is
// shared by -explore, -shrink and -replay so that replays are
// byte-comparable against exploration output.
func printOutcome(w io.Writer, p *chaos.Plan, verdict checker.Verdict, tr *trace.Trace) {
	fmt.Fprintf(w, "plan:\n%s", p)
	fmt.Fprintf(w, "verdict: %s\n", checker.VerdictText(verdict))
	fmt.Fprintf(w, "trace: %v\n", tr)
}

func runExplore(ctx context.Context, cfg config, stdout, stderr io.Writer) int {
	s, err := chaosSchedule(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "backersim:", err)
		return 1
	}
	rep, err := chaos.Explore(ctx, s, chaos.Options{Depth: cfg.depth, Search: cfg.searchOptions(),
		Recorder: obs.WithRun(cfg.rec, "explore")})
	if err != nil {
		fmt.Fprintln(stderr, "backersim:", err)
		return 1
	}
	fmt.Fprintf(stdout, "explored %d/%d plans over %d fault sites (depth %d, %d nodes, P=%d)\n",
		rep.Explored, rep.Planned, rep.Sites, cfg.depth, s.Comp.NumNodes(), s.P)
	for i, v := range rep.Violations {
		fmt.Fprintf(stdout, "\nviolation %d:\n", i+1)
		printOutcome(stdout, v.Plan, v.Verdict, v.Result.Trace)
	}
	fmt.Fprintf(stdout, "\nsummary: %d violations, %d inconclusive\n", len(rep.Violations), len(rep.Inconclusive))
	if rep.Stop != search.StopNone {
		fmt.Fprintf(stdout, "sweep stopped early by the %s governor; raise -timeout/-max-states and retry\n", rep.Stop)
	}
	switch {
	case len(rep.Violations) > 0:
		return 1
	case len(rep.Inconclusive) > 0 || rep.Stop != search.StopNone:
		return 3
	}
	return 0
}

func runShrink(ctx context.Context, cfg config, stdout, stderr io.Writer) int {
	s, err := chaosSchedule(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "backersim:", err)
		return 1
	}
	opts := chaos.Options{Depth: cfg.depth, StopAtFirst: true, Search: cfg.searchOptions(),
		Recorder: obs.WithRun(cfg.rec, "explore")}
	rep, err := chaos.Explore(ctx, s, opts)
	if err != nil {
		fmt.Fprintln(stderr, "backersim:", err)
		return 1
	}
	if len(rep.Violations) == 0 {
		fmt.Fprintf(stdout, "no violation found in %d plans\n", rep.Explored)
		if len(rep.Inconclusive) > 0 || rep.Stop != search.StopNone {
			return 3
		}
		return 0
	}
	found := rep.Violations[0]
	repro, err := chaos.ShrinkRec(ctx, s, found.Plan, cfg.searchOptions(), obs.WithRun(cfg.rec, "shrink"))
	if err != nil {
		fmt.Fprintln(stderr, "backersim:", err)
		return 3 // a governed stop mid-shrink is inconclusive, not a verdict
	}
	fmt.Fprintf(stdout, "shrunk %d-event plan on %d nodes to %d events on %d nodes (%d oracle runs)\n",
		found.Plan.Len(), s.Comp.NumNodes(), repro.Plan.Len(), repro.Sched.Comp.NumNodes(), repro.OracleRuns)
	verdict := checker.VerifyLC(ctx, repro.Result.Trace, cfg.searchOptions()).Verdict
	printOutcome(stdout, repro.Plan, verdict, repro.Result.Trace)
	class := chaos.Classify(ctx, repro.Result.Trace, cfg.searchOptions(), cfg.classifyTries)
	fmt.Fprintln(stdout, "model lattice classification:")
	for _, mv := range class {
		fmt.Fprintf(stdout, "  %-3s %s\n", mv.Model+":", mv.Verdict)
	}
	if cfg.artifactDir != "" {
		if err := chaos.WriteArtifact(cfg.artifactDir, repro, class); err != nil {
			fmt.Fprintln(stderr, "backersim:", err)
			return 1
		}
		fmt.Fprintf(stdout, "artifact written to %s\n", cfg.artifactDir)
	}
	return 1
}

func runReplay(ctx context.Context, cfg config, path string, stdout, stderr io.Writer) int {
	info, err := os.Stat(path)
	if err != nil {
		fmt.Fprintln(stderr, "backersim:", err)
		return 1
	}
	var (
		s    *sched.Schedule
		plan *chaos.Plan
		art  *chaos.Artifact
	)
	if info.IsDir() {
		art, err = chaos.LoadArtifact(path)
		if err != nil {
			fmt.Fprintln(stderr, "backersim:", err)
			return 1
		}
		s, plan = art.Sched, art.Plan
	} else {
		f, ferr := os.Open(path)
		if ferr != nil {
			fmt.Fprintln(stderr, "backersim:", ferr)
			return 1
		}
		plan, err = chaos.Parse(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(stderr, "backersim:", err)
			return 1
		}
		s, err = chaosSchedule(cfg)
		if err != nil {
			fmt.Fprintln(stderr, "backersim:", err)
			return 1
		}
	}
	res, _, err := chaos.Run(s, plan)
	if err != nil {
		fmt.Fprintln(stderr, "backersim:", err)
		return 1
	}
	lcOpts := cfg.searchOptions()
	lcOpts.Recorder = obs.WithRun(cfg.rec, "replay-lc")
	verdict := checker.VerifyLC(ctx, res.Trace, lcOpts).Verdict
	printOutcome(stdout, plan, verdict, res.Trace)
	if art != nil {
		match := res.Trace.String() == art.Trace.String()
		fmt.Fprintf(stdout, "replay matches recorded trace: %v\n", match)
		if !match {
			fmt.Fprintln(stderr, "backersim: replay diverged from the recorded artifact trace")
			return 1
		}
	}
	switch {
	case verdict.Out():
		return 1
	case verdict.Inconclusive():
		return 3
	}
	return 0
}

func runVerification(cfg config, stdout, stderr io.Writer) int {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(cfg.seed))
	lcOK, scOK, scUnknown, caught := 0, 0, 0, 0
	var f *backer.Faults
	if cfg.faults > 0 {
		f = &backer.Faults{SkipReconcile: cfg.faults, SkipFlush: cfg.faults, Rng: rng}
	}
	r := obs.WithRun(cfg.rec, "trials")
	var live *obs.Counters
	if cfg.rec != nil {
		live = &obs.Counters{}
		obs.Emit(r, obs.Event{Kind: obs.RunStart, Total: cfg.trials, Live: live})
		defer func() {
			obs.Emit(r, obs.Event{Kind: obs.RunEnd,
				Str: fmt.Sprintf("%d/%d LC, %d violations caught", lcOK, cfg.trials, caught)})
		}()
	}
	for i := 0; i < cfg.trials; i++ {
		c := randomMemComputation(rng, cfg.nodes, cfg.locs)
		s, err := sched.WorkStealing(c, cfg.procs, nil, rng)
		if err != nil {
			fmt.Fprintln(stderr, "backersim:", err)
			return 1
		}
		res, err := backer.RunRec(s, f, r)
		if err != nil {
			fmt.Fprintln(stderr, "backersim:", err)
			return 1
		}
		if checker.VerifyLC(ctx, res.Trace, checker.SearchOptions{}).Verdict.In() {
			lcOK++
		} else {
			caught++
		}
		if checker.OrderExplains(res.Trace, res.Schedule.Order) {
			scOK++
		} else if v := checker.VerifySC(ctx, res.Trace, checker.SearchOptions{Budget: 500000}).Verdict; v.In() {
			scOK++
		} else if v.Inconclusive() {
			scUnknown++
		}
		if live != nil {
			live.Done.Add(1)
		}
	}
	fmt.Fprintf(stdout, "BACKER on %d-node computations, %d locations, P=%d, %d trials\n", cfg.nodes, cfg.locs, cfg.procs, cfg.trials)
	if cfg.faults > 0 {
		fmt.Fprintf(stdout, "fault injection: %.0f%% of reconciles/flushes skipped\n", cfg.faults*100)
	}
	fmt.Fprintf(stdout, "  location consistent: %d/%d\n", lcOK, cfg.trials)
	fmt.Fprintf(stdout, "  sequentially consistent: %d/%d (%d undecided within budget)\n", scOK, cfg.trials, scUnknown)
	if cfg.faults > 0 {
		fmt.Fprintf(stdout, "  LC violations caught by the checker: %d\n", caught)
	} else if lcOK != cfg.trials {
		fmt.Fprintln(stdout, "ERROR: healthy BACKER must always be location consistent")
		return 1
	}
	return 0
}

func runSweep(rng *rand.Rand, shape string, stdout, stderr io.Writer) int {
	c, ok := shapeComputation(rng, shape)
	if !ok {
		fmt.Fprintf(stderr, "backersim: unknown shape %q\n", shape)
		return 2
	}
	t1 := sched.Work(c, nil)
	tinf := sched.Span(c, nil)
	fmt.Fprintf(stdout, "speedup sweep on %s dag: %d nodes, T1=%d, T∞=%d, parallelism=%.1f\n",
		shape, c.NumNodes(), t1, tinf, float64(t1)/float64(tinf))
	fmt.Fprintf(stdout, "%-4s %-10s %-10s %-10s %-8s %-8s %-8s\n",
		"P", "T_P", "T1/P+T∞", "speedup", "steals", "flushes", "fetches")
	var invP, tp []float64
	for _, P := range []int{1, 2, 4, 8, 16, 32} {
		const reps = 5
		var makespans, steals, flushes, fetches []float64
		for r := 0; r < reps; r++ {
			s, err := sched.WorkStealing(c, P, nil, rng)
			if err != nil {
				fmt.Fprintln(stderr, "backersim:", err)
				return 1
			}
			res, err := backer.Run(s, nil)
			if err != nil {
				fmt.Fprintln(stderr, "backersim:", err)
				return 1
			}
			if !checker.VerifyLC(context.Background(), res.Trace, checker.SearchOptions{}).Verdict.In() {
				fmt.Fprintln(stdout, "ERROR: sweep execution violated LC")
				return 1
			}
			makespans = append(makespans, float64(s.Makespan))
			steals = append(steals, float64(s.Steals))
			flushes = append(flushes, float64(res.Stats.Flushes))
			fetches = append(fetches, float64(res.Stats.Fetches))
		}
		m := stats.Summarize(makespans)
		bound := float64(t1)/float64(P) + float64(tinf)
		fmt.Fprintf(stdout, "%-4d %-10.1f %-10.1f %-10.2f %-8.1f %-8.1f %-8.1f\n",
			P, m.Mean, bound, float64(t1)/m.Mean,
			stats.Summarize(steals).Mean,
			stats.Summarize(flushes).Mean,
			stats.Summarize(fetches).Mean)
		invP = append(invP, 1/float64(P))
		tp = append(tp, m.Mean)
	}
	slope, intercept, r2 := stats.LinearFit(invP, tp)
	fmt.Fprintf(stdout, "fit T_P ≈ %.1f/P + %.1f (R²=%.3f); compare T1=%d, T∞=%d\n",
		slope, intercept, r2, t1, tinf)
	return 0
}

func shapeComputation(rng *rand.Rand, shape string) (*computation.Computation, bool) {
	var g *dag.Dag
	switch shape {
	case "spawn":
		g = dag.SpawnTree(9)
	case "grid":
		g = dag.Grid(24, 24)
	case "layered":
		g = dag.RandomLayered(rng, 40, 14, 0.25)
	default:
		return nil, false
	}
	return labelRandom(rng, g, 2), true
}

func labelRandom(rng *rand.Rand, g *dag.Dag, locs int) *computation.Computation {
	ops := make([]computation.Op, g.NumNodes())
	for i := range ops {
		l := computation.Loc(rng.Intn(locs))
		switch rng.Intn(4) {
		case 0:
			ops[i] = computation.W(l)
		case 1:
			ops[i] = computation.N
		default:
			ops[i] = computation.R(l)
		}
	}
	return computation.MustFrom(g, ops, locs)
}

func randomMemComputation(rng *rand.Rand, n, locs int) *computation.Computation {
	return labelRandom(rng, dag.Random(rng, n, 0.25), locs)
}
