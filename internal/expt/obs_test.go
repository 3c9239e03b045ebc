package expt

import (
	"context"
	"strings"
	"sync"
	"testing"

	"repro/internal/computation"
	"repro/internal/enum"
	"repro/internal/memmodel"
	"repro/internal/obs"
	"repro/internal/observer"
)

func TestReportOK(t *testing.T) {
	if !(StarReport{}).OK() || (StarReport{FirstMismatch: "size 2: ..."}).OK() {
		t.Fatal("StarReport.OK must mirror FirstMismatch")
	}
	all := PropertyReport{Complete: true, Monotonic: true, ConstructibleAug: true}
	if !all.OK() {
		t.Fatal("all-true PropertyReport not OK")
	}
	for _, broken := range []PropertyReport{
		{Monotonic: true, ConstructibleAug: true},
		{Complete: true, ConstructibleAug: true},
		{Complete: true, Monotonic: true},
	} {
		if broken.OK() {
			t.Fatalf("PropertyReport %+v reported OK", broken)
		}
	}
}

// TestMembershipCensusParallelMatchesSerial: the orbit-weighted census
// at any worker count prints the table of per-model counts taken by
// the serial, unreduced EachPair over every pair of the universe.
func TestMembershipCensusParallelMatchesSerial(t *testing.T) {
	models := memmodel.PatternModels()
	for _, locs := range []int{1, 2} {
		for n := 0; n <= 3; n++ {
			counts := make([]int, len(models))
			total := enum.EachPair(n, locs, func(c *computation.Computation, o *observer.Observer) bool {
				for i, m := range models {
					if m.Contains(c, o) {
						counts[i]++
					}
				}
				return true
			})
			want := censusTable(models, counts, total, n, locs)
			for _, workers := range []int{1, 3} {
				got, err := MembershipCensus(context.Background(), n, locs, workers, nil)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("n=%d locs=%d workers=%d:\n%s\nwant:\n%s", n, locs, workers, got, want)
				}
			}
		}
	}
}

type phaseLog struct {
	mu  sync.Mutex
	evs []obs.Event
}

func (l *phaseLog) Record(ev obs.Event) {
	l.mu.Lock()
	l.evs = append(l.evs, ev)
	l.mu.Unlock()
}

// TestRunLatticeObsEmitsPhases: at one location the lattice check is
// two sweeps, the fused one and the SC/LC auxiliary one, each a phase
// and a run with one WorkerDone per shard.
func TestRunLatticeObsEmitsPhases(t *testing.T) {
	log := &phaseLog{}
	rep := RunLatticeReduced(3, 1, 2, log)
	if !rep.AllOK() {
		t.Fatalf("lattice check failed:\n%s", rep)
	}
	var phases, runs []string
	var ends, workers int
	log.mu.Lock()
	defer log.mu.Unlock()
	for _, ev := range log.evs {
		switch ev.Kind {
		case obs.PhaseStart:
			phases = append(phases, ev.Str)
		case obs.RunStart:
			runs = append(runs, ev.Run)
		case obs.WorkerDone:
			workers++
		case obs.RunEnd:
			ends++
		}
	}
	if got := strings.Join(phases, ", "); got != "pattern sweep, SC vs LC" {
		t.Fatalf("phases %q", got)
	}
	if got := strings.Join(runs, ", "); got != "lattice-reduced, SC vs LC" || ends != 2 || workers != 4 {
		t.Fatalf("runs %q, %d run ends, %d worker dones", got, ends, workers)
	}
}

func TestRunStarEmitsPhases(t *testing.T) {
	log := &phaseLog{}
	if rep := RunStar(memmodel.NN, 3, 1, log); !rep.OK() {
		t.Fatalf("star fixpoint failed:\n%s", rep)
	}
	var phases []string
	for _, ev := range log.evs {
		if ev.Kind == obs.PhaseStart {
			phases = append(phases, ev.Str)
		}
	}
	want := []string{"interior membership", "fixpoint", "boundary count", "LC comparison"}
	if strings.Join(phases, ", ") != strings.Join(want, ", ") {
		t.Fatalf("phases %q, want %q", phases, want)
	}
}
