package expt

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/computation"
	"repro/internal/enum"
	"repro/internal/memmodel"
	"repro/internal/observer"
)

// E1 (Figure 1): at 3 nodes every inclusion holds; strictness of the
// size-4 edges is deferred to their MinNodes (checked in the full test
// below and in the benches).
func TestLatticeSmall(t *testing.T) {
	rep := RunLatticeReduced(3, 1, 0, nil)
	if !rep.AllOK() {
		t.Fatalf("lattice mismatch:\n%s", rep)
	}
	if rep.Pairs == 0 {
		t.Fatal("empty universe")
	}
	s := rep.String()
	if !strings.Contains(s, "SC") || !strings.Contains(s, "verdict") {
		t.Fatalf("report rendering: %s", s)
	}
}

// E1 full: all Figure 1 edges, including incomparability, at 4 nodes.
func TestLatticeFull(t *testing.T) {
	if testing.Short() {
		t.Skip("4-node lattice sweep skipped in -short mode")
	}
	rep := RunLatticeReduced(4, 1, 0, nil)
	if !rep.AllOK() {
		t.Fatalf("Figure 1 mismatch:\n%s", rep)
	}
}

// E1 at two locations: the lattice inclusions also hold when locations
// interact (smaller node bound, bigger op alphabet).
func TestLatticeTwoLocations(t *testing.T) {
	if testing.Short() {
		t.Skip("two-location sweep skipped in -short mode")
	}
	rep := RunLatticeReduced(3, 2, 0, nil)
	if !rep.AllOK() {
		t.Fatalf("two-location lattice mismatch:\n%s", rep)
	}
	// SC ⊊ LC must be strict here without the locs bump.
	for _, e := range rep.Edges {
		if e.Edge.A == "SC" && e.Edge.B == "LC" && e.Got != "⊊" {
			t.Fatalf("SC vs LC at 2 locations: %s", e.Got)
		}
	}
}

// checkStarGolden compares a fixpoint report byte for byte with the
// stdout of `lattice -n N [-locs L] -star BASE` under testdata/star
// (BASE-nN.txt, or BASE-nN-locsL.txt for L > 1), and its exit code
// with the .exit file beside it.
func checkStarGolden(t *testing.T, rep StarReport) {
	t.Helper()
	stem := fmt.Sprintf("%s-n%d", rep.Base, rep.MaxNodes)
	if rep.NumLocs > 1 {
		stem += fmt.Sprintf("-locs%d", rep.NumLocs)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "star", stem+".txt"))
	if err != nil {
		t.Fatal(err)
	}
	wantCode, err := os.ReadFile(filepath.Join("testdata", "star", stem+".exit"))
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.String(); got != string(want) {
		t.Fatalf("%s report differs from the golden:\ngot:\n%s\nwant:\n%s", stem, got, want)
	}
	code := "0"
	if !rep.OK() {
		code = "1"
	}
	if w := strings.TrimSpace(string(wantCode)); code != w {
		t.Fatalf("%s exit code %s, golden %s", stem, code, w)
	}
}

// The two-location star report, byte for byte: it pins the boundary's
// orbit weights over the five ops of two locations, which the
// one-location goldens do not reach.
func TestRunStarTwoLocationsGolden(t *testing.T) {
	checkStarGolden(t, RunStar(memmodel.NN, 4, 2, nil))
}

// starReference is the fixpoint experiment over the materialized
// universe: ConstructibleVersion on every computation up to n nodes,
// the boundary included, at weight 1 each.
func starReference(base memmodel.Model, n, locs int) (StarReport, []*computation.Computation) {
	universe := enum.AllComputations(n, locs)
	rep := StarReport{Base: base.Name(), MaxNodes: n, NumLocs: locs,
		Star: memmodel.ConstructibleVersion(base, universe, computation.AllOps(locs))}
	rep.BasePairs, rep.StarPairs = rep.Star.SizeCounts()
	interior := universe[:len(enum.AllComputations(n-1, locs))] // enum lists smaller sizes first
	rep.compareLC(interior)
	return rep, interior
}

// The streamed, orbit-weighted boundary against the materialized one,
// for every pattern model: the same size table, the same LC verdict,
// and the same survivors at every interior pair.
func TestRunStarMatchesConstructibleVersion(t *testing.T) {
	sizes := []struct{ n, locs int }{{1, 1}, {2, 1}, {3, 1}, {4, 1}, {1, 2}, {2, 2}, {3, 2}}
	for _, m := range memmodel.PatternModels() {
		for _, sz := range sizes {
			got := RunStar(m, sz.n, sz.locs, nil)
			want, interior := starReference(m, sz.n, sz.locs)
			if got.String() != want.String() || got.LCEqualUpTo != want.LCEqualUpTo || got.FirstMismatch != want.FirstMismatch {
				t.Fatalf("%s n=%d locs=%d: RunStar\n%s\nmaterialized\n%s", m.Name(), sz.n, sz.locs, got, want)
			}
			for i, c := range interior {
				for rank := 0; rank < observer.Count(c, 0); rank++ {
					if got.Star.ContainsAt(i, rank) != want.Star.ContainsAt(i, rank) {
						t.Fatalf("%s n=%d locs=%d: survivors differ at %v, rank %d", m.Name(), sz.n, sz.locs, c, rank)
					}
				}
			}
		}
	}
}

// E7 (Theorem 23): NN* = LC proved on the interior of the 5-node
// universe. Size 4 is the first size where NN ≠ LC, and the fixpoint
// prunes exactly the difference there (12818 → 12722).
func TestRunStarNN(t *testing.T) {
	if testing.Short() {
		t.Skip("fixpoint sweep skipped in -short mode")
	}
	rep := RunStar(memmodel.NN, 5, 1, nil)
	if rep.FirstMismatch != "" {
		t.Fatalf("NN* ≠ LC: %s", rep.FirstMismatch)
	}
	if rep.LCEqualUpTo != 4 {
		t.Fatalf("LCEqualUpTo = %d, want 4", rep.LCEqualUpTo)
	}
	checkStarGolden(t, rep)
}

// E5 (Theorem 19): SC and LC are complete, monotonic and constructible
// on the universe.
func TestRunPropertiesSCLC(t *testing.T) {
	for _, m := range []memmodel.Model{memmodel.SC, memmodel.LC} {
		rep := RunProperties(m, 3, 1)
		if !rep.Complete || !rep.Monotonic || !rep.ConstructibleAug {
			t.Errorf("%s properties:\n%s", m.Name(), rep)
		}
	}
}

// E4 complement: NN is complete and monotonic but NOT constructible.
func TestRunPropertiesNN(t *testing.T) {
	if testing.Short() {
		t.Skip("4-node property sweep skipped in -short mode")
	}
	rep := RunProperties(memmodel.NN, 4, 1)
	if !rep.Complete || !rep.Monotonic {
		t.Errorf("NN must be complete and monotonic:\n%s", rep)
	}
	if rep.ConstructibleAug {
		t.Errorf("NN must fail the augmentation criterion:\n%s", rep)
	}
	if !strings.Contains(rep.FirstFailure, "aug") {
		t.Errorf("failure should be an augmentation failure: %s", rep.FirstFailure)
	}
}

// E7b (Section 7 open problems): the WN*/NW* fixpoint probes at 5
// nodes. The amnesiac pair W→N survives WN pruning at every universe
// size (its presence in WN* is proved in
// internal/memmodel/amnesiac_test.go, giving LC ⊊ WN*); the NW probe
// stays inconclusive, as documented in EXPERIMENTS.md.
func TestRunStarOpenProblems(t *testing.T) {
	if testing.Short() {
		t.Skip("fixpoint sweeps skipped in -short mode")
	}
	wn := RunStar(memmodel.WN, 5, 1, nil)
	if wn.FirstMismatch == "" {
		t.Fatal("WN survivors collapsing to LC would contradict LC ⊊ WN*")
	}
	checkStarGolden(t, wn)
	// The witness of LC ⊊ WN*: W(0) → N with the amnesiac observer.
	c := enumFind(t, "comp(locs=1; 0:W(0) 1:N; 0->1)")
	o := amnesiacObserver(c)
	if !wn.Star.Contains(c, o) {
		t.Fatal("amnesiac pair pruned from the WN fixpoint")
	}
	if memmodel.LC.Contains(c, o) {
		t.Fatal("amnesiac pair must be outside LC")
	}

	// NW's survivors also exceed LC at this size, but survivors only
	// over-approximate NW*, so no conclusion is drawn — the golden pins
	// the documented shape.
	checkStarGolden(t, RunStar(memmodel.NW, 5, 1, nil))
}

func enumFind(t *testing.T, key string) *computation.Computation {
	t.Helper()
	var found *computation.Computation
	enum.EachComputationUpTo(2, 1, func(c *computation.Computation) bool {
		if c.String() == key {
			found = c
			return false
		}
		return true
	})
	if found == nil {
		t.Fatalf("computation %q not in universe", key)
	}
	return found
}

func amnesiacObserver(c *computation.Computation) *observer.Observer {
	return observer.New(c)
}

// FindTrap rediscovers Figure 4: the smallest NN non-constructibility
// witness has 4 nodes and is exactly the crossing pattern, and the
// constructible models have no trap at all.
func TestFindTrap(t *testing.T) {
	if testing.Short() {
		t.Skip("trap search sweeps the 4-node universe")
	}
	trap, found := FindTrap(memmodel.NN, 4, 1)
	if !found {
		t.Fatal("no NN trap found up to 4 nodes")
	}
	if trap.Pair.C.NumNodes() != 4 {
		t.Fatalf("smallest NN trap has %d nodes, want 4: %v", trap.Pair.C.NumNodes(), trap.Pair.C)
	}
	if trap.Op.Kind == computation.Write {
		t.Fatalf("trap op should be a non-write, got %s", trap.Op)
	}
	// The discovered pair is NN \ LC, like Figure 4.
	if memmodel.LC.Contains(trap.Pair.C, trap.Pair.O) {
		t.Fatal("trap pair unexpectedly in LC")
	}
	for _, m := range []memmodel.Model{memmodel.SC, memmodel.LC, memmodel.WW} {
		if _, found := FindTrap(m, 3, 1); found {
			t.Fatalf("%s must have no trap (it is constructible)", m.Name())
		}
	}
}

func TestMembershipCensus(t *testing.T) {
	s, err := MembershipCensus(context.Background(), 2, 1, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s, "SC") || !strings.Contains(s, "WW") {
		t.Fatalf("census: %s", s)
	}
}
