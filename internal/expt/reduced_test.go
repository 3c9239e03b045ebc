package expt

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/computation"
	"repro/internal/enum"
	"repro/internal/memmodel"
	"repro/internal/observer"
)

// model resolves a name from the lattice tables, which name only
// registered models.
func model(name string) memmodel.Model {
	m, err := memmodel.Lookup(name)
	if err != nil {
		panic("expt: " + err.Error())
	}
	return m
}

// latticeReference is the lattice report built from the serial,
// unreduced enum.Compare: every edge over every pair of the
// ordered-node universe, the SC/LC edge on two locations when numLocs
// is smaller.
func latticeReference(maxNodes, numLocs int) LatticeReport {
	rep := LatticeReport{MaxNodes: maxNodes, NumLocs: numLocs}
	rep.Pairs = enum.EachPair(maxNodes, numLocs, func(*computation.Computation, *observer.Observer) bool { return true })
	for _, e := range LatticeEdges() {
		locs := numLocs
		if e.A == "SC" && e.B == "LC" && locs < 2 {
			locs = 2
		}
		r := enum.Compare(model(e.A), model(e.B), maxNodes, locs)
		got, ok := edgeOK(e, r, maxNodes, numLocs)
		rep.Edges = append(rep.Edges, EdgeResult{Edge: e, Relation: r, Got: got, OK: ok})
	}
	return rep
}

// TestRunLatticeReducedMatchesUnreduced: the orbit-weighted lattice
// check reproduces the serial unreduced reference exactly — pair
// total, per-edge counts and verdicts — for one and two locations and
// any worker count. The n = 4 and n = 5 reports are CLI goldens.
func TestRunLatticeReducedMatchesUnreduced(t *testing.T) {
	for _, locs := range []int{1, 2} {
		for n := 0; n <= 3; n++ {
			want := latticeReference(n, locs)
			for _, workers := range []int{1, 3} {
				if got := RunLatticeReduced(n, locs, workers, nil); !reflect.DeepEqual(got, want) {
					t.Fatalf("n=%d locs=%d workers=%d:\n%s\nwant:\n%s", n, locs, workers, got, want)
				}
			}
		}
	}
}

// TestRunPropertiesReducedMatches: the orbit-weighted property sweep
// reproduces, byte for byte, the stdout and exit code of `lattice -n 4
// -props M` recorded under testdata/props when that command swept
// every computation of the universe. NN and TSO fail there, which pins
// FirstFailure.
func TestRunPropertiesReducedMatches(t *testing.T) {
	for _, m := range []memmodel.Model{memmodel.SC, memmodel.LC, memmodel.NN, memmodel.TSO} {
		stem := filepath.Join("testdata", "props", m.Name()+"-n4")
		want, err := os.ReadFile(stem + ".txt")
		if err != nil {
			t.Fatal(err)
		}
		wantCode, err := os.ReadFile(stem + ".exit")
		if err != nil {
			t.Fatal(err)
		}
		rep := RunProperties(m, 4, 1)
		if got := rep.String(); got != string(want) {
			t.Fatalf("%s report differs from %s.txt:\ngot:\n%s\nwant:\n%s", m.Name(), stem, got, want)
		}
		code := "0"
		if !rep.OK() {
			code = "1"
		}
		if w := strings.TrimSpace(string(wantCode)); code != w {
			t.Fatalf("%s exit code %s, golden %s", m.Name(), code, w)
		}
	}
}
