package enum

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The sweep pins: testdata/sweep_pins.txt holds PatternSweepParallel's
// whole census, one line per universe: the universe totals, what was
// decided, and the orbit-weighted count of every nonzero 9-bit pattern.
// The lattice table shows only the pairwise relations the counts
// imply; a mis-attributed bit or orbit can leave those intact while
// moving the joint count, which the pins hold. They were recorded when
// the sweep decided each canonical labelling on its own, before it
// walked labellings grouped by writer signature.
//
// SWEEP_PINS_RECORD=1 rewrites the file from the code under test.

// sweepPinUniverses are the pinned universes: every size up to five
// nodes at one location, four at two and three at three.
func sweepPinUniverses() [][2]int {
	var out [][2]int
	for _, u := range [][2]int{{5, 1}, {4, 2}, {3, 3}} {
		for n := 0; n <= u[0]; n++ {
			out = append(out, [2]int{n, u[1]})
		}
	}
	return out
}

// sweepPin renders one sweep's census as its pin line.
func sweepPin(maxNodes, numLocs int, s PatternSweep) string {
	var b strings.Builder
	fmt.Fprintf(&b, "n=%d locs=%d pairs=%d computations=%d rep_pairs=%d rep_computations=%d",
		maxNodes, numLocs, s.Pairs, s.Computations, s.RepPairs, s.RepComputations)
	for p, count := range s.Counts {
		if count != 0 {
			fmt.Fprintf(&b, " %09b:%d", p, count)
		}
	}
	return b.String()
}

// TestSweepPins holds the census of every pinned universe, at one
// worker and at three, to the recorded lines.
func TestSweepPins(t *testing.T) {
	path := filepath.Join("testdata", "sweep_pins.txt")
	if os.Getenv("SWEEP_PINS_RECORD") != "" {
		var b strings.Builder
		for _, u := range sweepPinUniverses() {
			s, err := PatternSweepParallel(context.Background(), nil, u[0], u[1], 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			b.WriteString(sweepPin(u[0], u[1], s) + "\n")
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("recorded %s", path)
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	universes := sweepPinUniverses()
	if len(want) != len(universes) {
		t.Fatalf("%s has %d lines, want %d", path, len(want), len(universes))
	}
	for i, u := range universes {
		for _, workers := range []int{1, 3} {
			s, err := PatternSweepParallel(context.Background(), nil, u[0], u[1], workers, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got := sweepPin(u[0], u[1], s); got != want[i] {
				t.Fatalf("workers=%d: census drifted from its pin:\ngot  %s\nwant %s", workers, got, want[i])
			}
		}
	}
}
