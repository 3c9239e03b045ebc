package expt

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/memmodel"
	"repro/internal/obs"
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

func TestMembershipCensusParallelMatchesSerial(t *testing.T) {
	want := MembershipCensus(3, 1)
	for _, workers := range []int{2, 4} {
		if got := MembershipCensusParallel(3, 1, workers); got != want {
			t.Fatalf("workers=%d:\n%s\nwant:\n%s", workers, got, want)
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

func TestRunLatticeObsEmitsPhases(t *testing.T) {
	log := &phaseLog{}
	rep := RunLatticeObs(3, 1, 2, log)
	if !rep.AllOK() {
		t.Fatalf("lattice check failed:\n%s", rep)
	}
	edges := LatticeEdges()
	var phases, starts, ends int
	labels := map[string]bool{}
	log.mu.Lock()
	defer log.mu.Unlock()
	for _, ev := range log.evs {
		switch ev.Kind {
		case obs.PhaseStart:
			phases++
			labels[ev.Str] = true
		case obs.RunStart:
			starts++
			labels[ev.Run] = true
		case obs.RunEnd:
			ends++
		}
	}
	if phases != len(edges) || starts != len(edges) || ends != len(edges) {
		t.Fatalf("phases/starts/ends = %d/%d/%d for %d edges", phases, starts, ends, len(edges))
	}
	if !labels["SC vs LC"] || !labels["NW vs WN"] {
		t.Fatalf("edge labels: %v", labels)
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
