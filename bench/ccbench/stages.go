package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/computation"
	"repro/internal/enum"
	"repro/internal/expt"
	"repro/internal/memmodel"
	"repro/internal/observer"
)

// The experiment stage traces and the reference job run in a child:
// ccbench re-executes itself with stageEnv set to "KIND N ROOT" (KIND is
// sweep or star with node bound N, or ref with N repetitions), and the
// child times its stages, checks their known answers and prints a
// stageReport as JSON.
const stageEnv = "CCBENCH_STAGES"

type stageReport struct {
	Metrics map[string]float64 `json:"metrics"`
	Error   string             `json:"error,omitempty"`
	Spans   []traceEvent       `json:"spans"`
}

// stagesInChild runs one stage trace in a fresh ccbench process and
// adopts its spans into tr, if tr is not nil.
func stagesInChild(root, kind string, n int, tr *tracer) (map[string]float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self)
	cmd.Env = append(os.Environ(), fmt.Sprintf("%s=%s %d %s", stageEnv, kind, n, root))
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	start := time.Now()
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s stages: %w", kind, err)
	}
	var rep stageReport
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		return nil, fmt.Errorf("%s stages: %w", kind, err)
	}
	if tr != nil {
		tr.adopt(rep.Spans, start)
	}
	if rep.Error != "" {
		return rep.Metrics, fmt.Errorf("%s stages: %s", kind, rep.Error)
	}
	return rep.Metrics, nil
}

// runStagesChild is the child's side: spec is "KIND N ROOT".
func runStagesChild(spec string, stdout, stderr io.Writer) int {
	f := strings.SplitN(spec, " ", 3)
	n, err := strconv.Atoi(f[min(1, len(f)-1)])
	if len(f) != 3 || err != nil || (f[0] != "sweep" && f[0] != "star" && f[0] != "ref") {
		fmt.Fprintf(stderr, "ccbench: bad %s %q\n", stageEnv, spec)
		return 2
	}
	tr := newTracer()
	rep := stageReport{Metrics: map[string]float64{}}
	switch f[0] {
	case "sweep":
		err = sweepStages(f[2], n, tr, rep.Metrics)
	case "star":
		err = starStages(n, tr, rep.Metrics)
	default:
		referenceStage(n, rep.Metrics)
	}
	if err != nil {
		rep.Error = err.Error()
	}
	rep.Spans = tr.events
	if err := json.NewEncoder(stdout).Encode(rep); err != nil {
		fmt.Fprintf(stderr, "ccbench: %v\n", err)
		return 1
	}
	return 0
}

// sweepStages times the stages of the reduced Figure 1 sweep
// (expt.RunLatticeReduced plus the witness check, as cmd/lattice -reduce
// runs them) serially: enumerating canonical representatives, enumerating
// their observers, the pattern decider, the SC/LC auxiliary sweep on two
// locations, and the strictness witnesses. Every pattern must respect
// the lattice inclusions and the universe must have its known size.
func sweepStages(root string, n int, tr *tracer, m map[string]float64) error {
	type rep struct {
		c     *computation.Computation
		orbit int64
	}
	var reps []rep
	enumerate := tr.timed("sweep.enumerate", tidStages, func() {
		enum.EachComputationReducedUpTo(n, 1, func(c *computation.Computation, orbit int64) bool {
			reps = append(reps, rep{c, orbit})
			return true
		})
	})
	var repPairs, pairs int64
	observers := tr.timed("sweep.observers", tidStages, func() {
		for _, r := range reps {
			k := int64(observer.Enumerate(r.c, func(*observer.Observer) bool { return true }))
			repPairs += k
			pairs += k * r.orbit
		}
	})
	var bad error
	pd := memmodel.NewPatternDecider()
	pass := tr.timed("sweep.pattern_pass", tidStages, func() {
		for _, r := range reps {
			pd.Reset(r.c)
			observer.Enumerate(r.c, func(obs *observer.Observer) bool {
				if err := checkPattern(pd.Pattern(obs)); err != nil && bad == nil {
					bad = fmt.Errorf("pattern of %v / %v: %w", r.c, obs, err)
				}
				return true
			})
		}
	})
	sc, lc := modelIndex("SC"), modelIndex("LC")
	aux := tr.timed("sweep.aux", tidStages, func() {
		_, err := enum.PatternSweepParallel(context.Background(), []enum.PatternEdge{{A: sc, B: lc}}, min(n, 4), 2, 1, nil)
		if err != nil && bad == nil {
			bad = err
		}
	})
	witnesses := tr.timed("sweep.witnesses", tidStages, func() {
		rep, err := expt.CheckWitnesses(filepath.Join(root, "testdata", "litmus"))
		if err == nil && !rep.AllOK() {
			err = fmt.Errorf("strictness witnesses not all OK:\n%s", rep)
		}
		if err != nil && bad == nil {
			bad = err
		}
	})
	if want, ok := latticePairs[n]; ok && pairs != int64(want) && bad == nil {
		bad = fmt.Errorf("sweep at n=%d covered %d pairs, want %d", n, pairs, want)
	}
	decide := pass - observers
	m["sweep.enumerate_ms"] = ms(enumerate)
	m["sweep.representatives"] = float64(len(reps))
	m["sweep.observers_ms"] = ms(observers)
	m["sweep.pairs"] = float64(repPairs)
	m["sweep.pattern_decide_ms"] = ms(decide)
	m["sweep.pattern_decide_ns_per_pair"] = float64(decide.Nanoseconds()) / float64(max(repPairs, 1))
	m["sweep.aux_ms"] = ms(aux)
	m["sweep.witnesses_ms"] = ms(witnesses)
	return bad
}

// starStages times the stages of the NN* fixpoint experiment
// (expt.RunStar) serially: the universe, NN membership, the
// constructible-version fixpoint (which decides membership again, so the
// fixpoint proper is the difference), PairSet lookups over every pair,
// and RunStar's comparison pass. The size table must be E7's.
func starStages(n int, tr *tracer, m map[string]float64) error {
	var universe []*computation.Computation
	uni := tr.timed("star.universe", tidStages, func() { universe = enum.AllComputations(n, 1) })
	base := make([]int, n+1)
	membership := tr.timed("star.membership", tidStages, func() {
		for _, c := range universe {
			observer.Enumerate(c, func(obs *observer.Observer) bool {
				if memmodel.NN.Contains(c, obs) {
					base[c.NumNodes()]++
				}
				return true
			})
		}
	})
	var star *memmodel.PairSet
	constructible := tr.timed("star.constructible", tidStages, func() {
		star = memmodel.ConstructibleVersion(memmodel.NN, universe, computation.AllOps(1))
	})
	found := 0
	lookup := tr.timed("star.pairset_lookup", tidStages, func() {
		for _, c := range universe {
			observer.Enumerate(c, func(obs *observer.Observer) bool {
				if star.Contains(c, obs) {
					found++
				}
				return true
			})
		}
	})
	starBySize := make([]int, n+1)
	mismatch := false
	compare := tr.timed("star.compare", tidStages, func() {
		for _, c := range universe {
			size := c.NumNodes()
			observer.Enumerate(c, func(obs *observer.Observer) bool {
				memmodel.NN.Contains(c, obs)
				inStar := star.Contains(c, obs)
				if inStar {
					starBySize[size]++
				}
				if size < n && inStar != memmodel.LC.Contains(c, obs) {
					mismatch = true
				}
				return true
			})
		}
	})
	survivors := star.NumPairs(-1)
	m["star.universe_ms"] = ms(uni)
	m["star.computations"] = float64(len(universe))
	m["star.membership_ms"] = ms(membership)
	m["star.constructible_ms"] = ms(constructible)
	m["star.fixpoint_ms"] = ms(constructible - membership)
	m["star.survivors"] = float64(survivors)
	m["star.pairset_lookup_ms"] = ms(lookup)
	m["star.compare_ms"] = ms(compare)

	wantStar := nnStarPairs(n)
	for s := 0; s <= n; s++ {
		if base[s] != nnPairs[s] || starBySize[s] != wantStar[s] {
			return fmt.Errorf("size %d: |NN|=%d |NN*|=%d, want %d and %d", s, base[s], starBySize[s], nnPairs[s], wantStar[s])
		}
	}
	if found != survivors || mismatch {
		return fmt.Errorf("%d lookups found of %d survivors; survivors differ from LC on the interior: %v", found, survivors, mismatch)
	}
	return nil
}
