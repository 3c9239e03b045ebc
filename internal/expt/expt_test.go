package expt

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/computation"
	"repro/internal/enum"
	"repro/internal/memmodel"
	"repro/internal/observer"
)

func TestModelByName(t *testing.T) {
	for _, name := range []string{"SC", "LC", "NN", "NW", "WN", "WW"} {
		m, ok := ModelByName(name)
		if !ok || m.Name() != name {
			t.Fatalf("ModelByName(%q) = %v, %v", name, m, ok)
		}
	}
	if _, ok := ModelByName("XX"); ok {
		t.Fatal("unknown name resolved")
	}
}

// E1 (Figure 1): at 3 nodes every inclusion holds; strictness of the
// size-4 edges is deferred to their MinNodes (checked in the full test
// below and in the benches).
func TestLatticeSmall(t *testing.T) {
	rep := RunLattice(3, 1)
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
	rep := RunLattice(4, 1)
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
	rep := RunLattice(3, 2)
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
// `lattice -n 5 -star BASE` output under testdata/star.
func checkStarGolden(t *testing.T, rep StarReport) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", "star", rep.Base+"-n5.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.String(); got != string(want) {
		t.Fatalf("%s* report differs from the golden:\ngot:\n%s\nwant:\n%s", rep.Base, got, want)
	}
}

// E7 (Theorem 23): NN* = LC proved on the interior of the 5-node
// universe. Size 4 is the first size where NN ≠ LC, and the fixpoint
// prunes exactly the difference there (12818 → 12722).
func TestRunStarNN(t *testing.T) {
	if testing.Short() {
		t.Skip("fixpoint sweep skipped in -short mode")
	}
	rep := RunStar(memmodel.NN, 5, 1)
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
	wn := RunStar(memmodel.WN, 5, 1)
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
	checkStarGolden(t, RunStar(memmodel.NW, 5, 1))
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
	s := MembershipCensus(2, 1)
	if !strings.Contains(s, "SC") || !strings.Contains(s, "WW") {
		t.Fatalf("census: %s", s)
	}
}
