package expt

import (
	"context"
	"testing"

	"repro/internal/enum"
	"repro/internal/memmodel"
)

// BenchmarkLatticeSweep is the headline experiment benchmark: the full
// Figure 1 lattice check, exhaustively over the one-location universe
// of n = 5, the size the benchmark of record runs. It runs serially so
// the measurement is scheduling-free.
func BenchmarkLatticeSweep(b *testing.B) {
	b.Run("reduced/n=5", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rep := RunLatticeReduced(5, 1, 1, nil)
			if !rep.AllOK() {
				b.Fatalf("lattice mismatch:\n%s", rep)
			}
		}
	})
	// aux is the SC/LC edge alone on the two-location auxiliary
	// universe that reduced/n=5 sweeps for it (sclcAuxMaxNodes nodes).
	b.Run("aux", func(b *testing.B) {
		edge := []enum.PatternEdge{{A: modelBit(b, "SC"), B: modelBit(b, "LC")}}
		for i := 0; i < b.N; i++ {
			s, err := enum.PatternSweepParallel(context.Background(), edge, sclcAuxMaxNodes, 2, 1, nil)
			if err != nil {
				b.Fatal(err)
			}
			if r := s.Edges[0]; !r.StrictlyStronger() {
				b.Fatalf("SC vs LC on two locations: %+v, want SC ⊊ LC", r)
			}
		}
	})
}

// modelBit is name's pattern bit index.
func modelBit(b *testing.B, name string) int {
	for i, n := range memmodel.ModelNames() {
		if n == name {
			return i
		}
	}
	b.Fatalf("unknown model %s", name)
	return -1
}

// BenchmarkStar is the Theorem 23 experiment behind `lattice -n 5
// -star NN`: the NN* fixpoint over the 4-node interior, its 5-node
// augmentations decided on the fly and the boundary counted over
// orbit-weighted representatives. survivors is the report's total.
func BenchmarkStar(b *testing.B) {
	b.Run("NN/n=5", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rep := RunStar(memmodel.NN, 5, 1, 1, nil)
			if !rep.OK() {
				b.Fatalf("NN* ≠ LC:\n%s", rep)
			}
			b.ReportMetric(float64(rep.Star.NumPairs(-1)), "survivors")
		}
	})
}
