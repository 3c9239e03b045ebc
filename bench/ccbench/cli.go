package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// The lattice workloads run cmd/lattice as a user would, from the
// repository root (its witness check reads testdata/litmus there).

// latticePairs is the number of (computation, observer) pairs in the
// one-location universe of at most n nodes (EXPERIMENTS.md E1).
var latticePairs = map[int]int{3: 510, 4: 23176, 5: 2422778}

// Every lattice check reports at least this many Figure 1 and extended
// edges and strictness witnesses, each OK.
const (
	minLatticeEdges = 16
	minWitnesses    = 14
)

// nnPairs[s] is |NN| on computations with exactly s nodes, one location
// (EXPERIMENTS.md E7).
var nnPairs = []int{1, 3, 22, 362, 12818, 953430}

// nnStarPairs returns |NN*| by size as the fixpoint over the universe of
// at most n nodes reports it: the 96 non-LC pairs at size 4 are pruned
// once size 5 is in the universe; the boundary size is never pruned.
func nnStarPairs(n int) []int {
	out := append([]int(nil), nnPairs[:n+1]...)
	if n >= 5 {
		out[4] = 12722
	}
	return out
}

// cliRun is one finished CLI invocation.
type cliRun struct {
	wall time.Duration
	rss  float64 // MiB
	out  []byte
}

// runCLI runs bin with args from dir and waits for it. A nonzero exit
// is an error.
func runCLI(dir, bin string, args ...string) (cliRun, error) {
	cmd := exec.Command(bin, args...)
	cmd.Dir = dir
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	start := time.Now()
	err := cmd.Run()
	r := cliRun{wall: time.Since(start), out: stdout.Bytes()}
	if cmd.ProcessState != nil {
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			r.rss = rssMiB(ru)
		}
	}
	if err != nil {
		return r, fmt.Errorf("%s %s: %w", bin, strings.Join(args, " "), err)
	}
	return r, nil
}

// cliWorkload is a lattice workload: the measured invocation, the
// set-up invocation (the same command at n = 1, the fixed cost every run
// pays), and the known-answer check of the measured output.
type cliWorkload struct {
	args, setupArgs []string
	check           func(out []byte) error
}

func latticeWorkload(n, workers int) cliWorkload {
	args := func(n int) []string {
		return []string{"-n", strconv.Itoa(n), "-reduce", "-workers", strconv.Itoa(workers)}
	}
	return cliWorkload{args: args(n), setupArgs: args(1), check: func(out []byte) error { return checkLattice(out, n) }}
}

func starWorkload(n int) cliWorkload {
	args := func(n int) []string { return []string{"-n", strconv.Itoa(n), "-star", "NN"} }
	return cliWorkload{args: args(n), setupArgs: args(1), check: func(out []byte) error { return checkStar(out, n) }}
}

func runLattice(cfg config) (outcome, error) {
	return runCLIWorkload(cfg, latticeWorkload(cfg.sweepN, conns))
}

func runStar(cfg config) (outcome, error) { return runCLIWorkload(cfg, starWorkload(cfg.starN)) }

// runCLIWorkload repeats the measured invocation for cfg.seconds, with a
// mark (set-up invocations, then the reference job) before the first run
// and after each: a run starts only if, at the last run's pace, it ends
// in time, and there is always at least one. Each run is a piece, so
// throughput_per_s is runs per second of CLI wall time.
func runCLIWorkload(cfg config, w cliWorkload) (outcome, error) {
	bin := cfg.binary("lattice")
	setup := func() (time.Duration, error) {
		r, err := runCLI(cfg.root, bin, w.setupArgs...)
		return r.wall, err
	}
	m := meter{root: cfg.root, reps: cfg.refReps, setup: setup, setups: cfg.spawns}
	var o outcome
	if err := m.mark(); err != nil {
		return o, err
	}
	var pieces []piece
	var rss []float64
	start := time.Now()
	for {
		o.attempted++
		r, err := runCLI(cfg.root, bin, w.args...)
		if err == nil {
			err = w.check(r.out)
			if err != nil {
				o.fail(true, "%v", err)
			}
		} else {
			o.fail(false, "%v", err)
		}
		mark := time.Now()
		if err := m.mark(); err != nil {
			return o, err
		}
		if err == nil {
			pieces = append(pieces, piece{loopResult{tally{attempted: 1}, []int64{int64(r.wall)}, r.wall}, m.factor()})
			rss = append(rss, r.rss)
		}
		if time.Since(start)+r.wall+time.Since(mark) > cfg.seconds {
			break
		}
	}
	if len(pieces) == 0 {
		return o, fmt.Errorf("no run of lattice %s completed: %s", strings.Join(w.args, " "), strings.Join(o.errs, "; "))
	}
	o.finish(pieces, &m, median(rss))
	o.samples += fmt.Sprintf(", run_s=%.4g", o.metrics["latency_p50_ms"]/1e3)
	return o, nil
}

// checkLattice checks a lattice check's report: the universe size, and
// every edge and strictness witness OK.
func checkLattice(out []byte, n int) error {
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if len(lines) < 3 {
		return fmt.Errorf("lattice -n %d: %d report lines", n, len(lines))
	}
	if want, ok := latticePairs[n]; ok {
		if !strings.HasSuffix(lines[0], fmt.Sprintf(": %d pairs", want)) {
			return fmt.Errorf("lattice -n %d: want %d pairs in the header, got %q", n, want, lines[0])
		}
	}
	edges, witnesses := 0, 0
	inWitnesses := false
	for _, line := range lines[2:] {
		if strings.HasPrefix(line, "strictness witnesses") {
			inWitnesses = true
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 0 || fields[len(fields)-1] != "OK" {
			return fmt.Errorf("lattice -n %d: not OK: %q", n, line)
		}
		if inWitnesses {
			witnesses++
		} else {
			edges++
		}
	}
	if edges < minLatticeEdges || witnesses < minWitnesses {
		return fmt.Errorf("lattice -n %d: %d edges and %d witnesses OK, want at least %d and %d",
			n, edges, witnesses, minLatticeEdges, minWitnesses)
	}
	return nil
}

// checkStar checks a star report against the E7 size table.
func checkStar(out []byte, n int) error {
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	base, star := nnPairs[:n+1], nnStarPairs(n)
	if len(lines) != n+4 {
		return fmt.Errorf("star -n %d: %d report lines, want %d", n, len(lines), n+4)
	}
	for s := 0; s <= n; s++ {
		want := fmt.Sprintf("%d %d %d", s, base[s], star[s])
		if got := strings.Join(strings.Fields(lines[2+s]), " "); got != want {
			return fmt.Errorf("star -n %d: size row %q, want %q", n, got, want)
		}
	}
	want := fmt.Sprintf("survivors = LC on the interior (sizes ≤ %d)", n-1)
	if !strings.HasPrefix(lines[n+3], want) {
		return fmt.Errorf("star -n %d: %q, want it to start %q", n, lines[n+3], want)
	}
	return nil
}
