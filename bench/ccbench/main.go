// Command ccbench is the repository's benchmark. It measures the two
// products of the decision stack from the outside: verdicts on
// (computation, observer) pairs served by cmd/ccmd, and the paper's
// headline experiments run by cmd/lattice (the Figure 1 sweep and the
// Theorem 23 NN* fixpoint). Every answer is checked against one known
// independently of the code under test.
//
//	ccbench [-workload NAME] [-seed N] [-seconds S] [-trace 0|1] [-out FILE]
//	ccbench compare BASE.jsonl CHANGE.jsonl
//
// Workloads (all five when -workload is empty):
//
//	check-miss  closed-loop POST /v1/check of distinct seeded pairs (every request misses the cache)
//	batch-miss  the same pairs as fleetctl dispatches them: closed-loop POST /v1/batch, one item per model
//	check-hit   closed-loop POST /v1/check cycling over the litmus corpus (every request hits)
//	lattice-n5  lattice -n 5 -reduce -workers 2, repeated
//	nn-star     lattice -n 5 -star NN, repeated
//
// A run builds ccmd and lattice from the repository into the build
// directory, spawns them with default flags (ccmd on a loopback port
// chosen by the kernel), and drives them from this one process with at
// most two connections and two threads. It prints every metric by name
// with its unit, then, as its last line, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"NAME": {"value": V, "unit": "U"}, ...}}
//
// With -trace 0 the metrics are the end-to-end ones, their timings
// rescaled to a reference machine's speed (reference.go) and printed as
// measured beside; with -trace 1 the run is the separate traced run, which
// reports the per-layer metrics and writes a Chrome trace_event span file
// per workload under BUILD/trace. -out appends one record per workload
// run to a file that ccbench compare reads.
//
// Exit codes: 0 when every workload ran, 1 when one could not run (for
// example, the binaries do not build), 2 on usage errors. Wrong answers
// do not change the exit code; they set "correct" to false.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() {
	// One process, at most two threads running Go code: the daemon gets
	// the rest of the machine.
	runtime.GOMAXPROCS(conns)
	if spec := os.Getenv(stageEnv); spec != "" {
		os.Exit(runStagesChild(spec, os.Stdout, os.Stderr))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config holds one invocation's settings and workload sizes.
type config struct {
	root     string // repository root; CLIs run here
	bin      string // directory holding the ccmd and lattice binaries
	traceDir string // where traced runs write their span files
	seed     int64
	seconds  time.Duration // how long one run measures
	spawns   int           // set-ups timed at each mark; setup_s is their median
	pieces   int           // pieces a server workload's timed loop is measured in
	refReps  int           // reference jobs timed at each mark between pieces

	missWarmup  int // check-miss untimed warm-up requests
	missPairs   int // check-miss timed pairs generated
	batchWarmup int // batch-miss untimed warm-up requests
	batchPairs  int // batch-miss timed pairs, all sent
	hitRequests int // check-hit timed requests at most
	missSample  int // traced check-miss requests replayed in-process
	batchSample int // traced batch-miss requests replayed in-process
	hitSample   int // traced check-hit requests replayed in-process

	// probe* size the serve-path trace on the CLI workloads' traced runs.
	probeWarmup, probeSample, probePairs int
	probeSeconds                         time.Duration

	sweepN, starN int // node bounds of lattice-n5 and nn-star
	probeN        int // node bound of the sweep and star traces on the other workloads
}

// defaultConfig is the benchmark as BENCHMARK.json runs it.
func defaultConfig() config {
	return config{
		seed:         1,
		seconds:      15 * time.Second,
		spawns:       5,
		pieces:       4,
		refReps:      3,
		missWarmup:   5000,
		missPairs:    100000,
		batchWarmup:  2000,
		batchPairs:   6000,
		hitRequests:  300000,
		missSample:   5000,
		batchSample:  2000,
		hitSample:    1000,
		probeWarmup:  200,
		probeSample:  300,
		probePairs:   10000,
		probeSeconds: time.Second,
		sweepN:       5,
		starN:        5,
		probeN:       4,
	}
}

func (c config) binary(name string) string { return filepath.Join(c.bin, name) }

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return runCompare(args[1:], stdout, stderr)
	}
	cfg := defaultConfig()
	fs := flag.NewFlagSet("ccbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	only := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+" (empty = all)")
	fs.Int64Var(&cfg.seed, "seed", cfg.seed, "input seed")
	seconds := fs.Float64("seconds", cfg.seconds.Seconds(), "how long one run measures, in seconds")
	trace := fs.Int("trace", 0, "1 = traced run: report per-layer metrics and write span files")
	out := fs.String("out", "", "append one JSON record per workload run to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "ccbench: want flags only, -seconds > 0 and -trace 0 or 1")
		return 2
	}
	cfg.seconds = time.Duration(*seconds * float64(time.Second))
	var todo []workload
	for _, w := range workloads {
		if *only == "" || *only == w.name {
			todo = append(todo, w)
		}
	}
	if len(todo) == 0 {
		fmt.Fprintf(stderr, "ccbench: unknown workload %q (known: %s)\n", *only, strings.Join(workloadNames(), ", "))
		return 2
	}

	if err := prepare(&cfg, os.Getenv("CARGO_TARGET_DIR")); err != nil {
		fmt.Fprintf(stderr, "ccbench: %v\n", err)
		return 1
	}
	for _, w := range todo {
		res, o, err := runWorkload(cfg, w, *trace == 1, stdout, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "ccbench: %s: %v\n", w.name, err)
			return 1
		}
		if *out != "" {
			if err := appendRecord(*out, record{Workload: w.name, Seed: cfg.seed, Trace: *trace == 1, ReferenceMS: o.refMS, Raw: o.raw, Result: res}); err != nil {
				fmt.Fprintf(stderr, "ccbench: %v\n", err)
				return 1
			}
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintf(stderr, "ccbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	return 0
}

// prepare resolves the repository root — the current directory or its
// parent, whichever holds cmd/ccmd, unless cfg.root is set — and the
// build directory (ROOT/.bench_build unless build is set; relative to
// ROOT), and builds the two binaries the workloads spawn into it.
func prepare(cfg *config, build string) error {
	if cfg.root == "" {
		for _, dir := range []string{".", ".."} {
			if _, err := os.Stat(filepath.Join(dir, "cmd", "ccmd")); err == nil {
				cfg.root = dir
				break
			}
		}
		if cfg.root == "" {
			return fmt.Errorf("no repository here: cmd/ccmd is in neither . nor ..")
		}
	}
	root, err := filepath.Abs(cfg.root)
	if err != nil {
		return err
	}
	cfg.root = root
	if build == "" {
		build = ".bench_build"
	}
	if !filepath.IsAbs(build) {
		build = filepath.Join(root, build)
	}
	cfg.bin = filepath.Join(build, "bin")
	cfg.traceDir = filepath.Join(build, "trace")
	cmd := exec.Command("go", "build", "-o", cfg.bin+string(filepath.Separator), "./cmd/ccmd", "./cmd/lattice")
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("build ccmd and lattice: %w", err)
	}
	return nil
}

// workload is one input set the benchmark runs.
type workload struct {
	name, why string
	run       func(cfg config) (outcome, error)             // end-to-end run
	trace     func(cfg config, tr *tracer) (outcome, error) // traced run
}

// outcome is what one run of a workload measured and checked.
type outcome struct {
	tally
	metrics map[string]float64
	samples string // how many samples the latencies rest on, for the report

	raw   map[string]float64 // end-to-end metrics in measured time
	refMS float64            // the reference job's mean time over the run
}

// finish sets the end-to-end metrics from the measured pieces and the
// meter's set-ups, in reference-machine time, with the measured values
// kept beside them. Every set-up counts as an attempted operation.
func (o *outcome) finish(pieces []piece, m *meter, rssMiB float64) {
	o.refMS = m.mean()
	o.raw = pieceMetrics(pieces, false)
	o.metrics = pieceMetrics(pieces, true)
	o.raw["peak_rss_mb"], o.metrics["peak_rss_mb"] = rssMiB, rssMiB
	o.raw["setup_s"], o.metrics["setup_s"] = median(m.rawS), median(m.setupS)
	o.attempted += int64(len(m.setupS))
	n := 0
	for _, p := range pieces {
		n += len(p.lat)
	}
	o.samples = fmt.Sprintf("latency samples=%d in %d pieces, setups=%d", n, len(pieces), len(m.setupS))
}

var workloads = []workload{
	{name: "check-miss", why: "distinct seeded pairs: every request misses the cache, so the deciders do much of the work and the cache fills and evicts",
		run: runCheckMiss, trace: traceCheckMiss},
	{name: "batch-miss", why: "the check-miss pairs as fleetctl sends them, one POST /v1/batch per pair with an item per model: the traffic of the daemon's in-repo client",
		run: runBatchMiss, trace: traceBatchMiss},
	{name: "check-hit", why: "the litmus corpus cycled: every request hits the cache, isolating the serve path; a decider change should not move it",
		run: runCheckHit, trace: traceCheckHit},
	{name: "lattice-n5", why: "the Figure 1 sweep: the same deciders in bulk on tiny pairs, dominated by the pattern decider",
		run: runLattice, trace: traceLattice},
	{name: "nn-star", why: "the Theorem 23 NN* fixpoint: string-keyed pair sets and the constructible-version fixpoint, no search engine or HTTP",
		run: runStar, trace: traceStar},
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// runWorkload runs w once, prints its metrics in a table and returns the
// result line with the outcome behind it.
func runWorkload(cfg config, w workload, trace bool, stdout, stderr io.Writer) (result, outcome, error) {
	var (
		o   outcome
		err error
	)
	defs := endToEnd
	if trace {
		defs = perLayer
		tr := newTracer()
		o, err = w.trace(cfg, tr)
		if err == nil {
			path := filepath.Join(cfg.traceDir, w.name+".trace.json")
			if err = tr.writeFile(path); err == nil {
				fmt.Fprintf(stdout, "# spans: %s\n", path)
			}
		}
	} else {
		o, err = w.run(cfg)
	}
	if err != nil {
		return result{}, o, err
	}
	for _, e := range o.errs {
		fmt.Fprintf(stderr, "ccbench: %s: %s\n", w.name, e)
	}
	res := result{
		Correct:   o.wrong == 0 && o.attempted > o.failed,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]value, len(defs)),
	}
	ratio := 0.0
	if o.attempted > 0 {
		ratio = float64(o.failed) / float64(o.attempted)
	}
	fmt.Fprintf(stdout, "# %s seed=%d trace=%v: attempted=%d failed=%d failed_ratio=%g wrong=%d %s\n",
		w.name, cfg.seed, trace, o.attempted, o.failed, ratio, o.wrong, o.samples)
	if o.refMS > 0 {
		fmt.Fprintf(stdout, "#   reference job %.1f ms on average (%.0f ms on the reference machine): timings below are in reference-machine time, measured in parentheses\n", o.refMS, referenceMS)
	}
	for _, d := range defs {
		v, ok := o.metrics[d.Name]
		if !ok {
			return result{}, o, fmt.Errorf("metric %s was not measured", d.Name)
		}
		res.Metrics[d.Name] = value{Value: v, Unit: d.Unit}
		raw := ""
		if r, ok := o.raw[d.Name]; ok && r != v {
			raw = fmt.Sprintf(" (%.6g)", r)
		}
		fmt.Fprintf(stdout, "#   %-34s %14.6g %s%s\n", d.Name, v, d.Unit, raw)
	}
	return res, o, nil
}

// record is one line of an -out file.
type record struct {
	Workload    string             `json:"workload"`
	Seed        int64              `json:"seed"`
	Trace       bool               `json:"trace"`
	ReferenceMS float64            `json:"reference_ms,omitempty"` // the reference job's mean time over the run
	Raw         map[string]float64 `json:"raw,omitempty"`          // the end-to-end metrics in measured time
	Result      result             `json:"result"`
}

func appendRecord(path string, r record) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
