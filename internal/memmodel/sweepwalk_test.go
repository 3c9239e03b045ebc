package memmodel

import (
	"fmt"
	"testing"

	"repro/internal/computation"
	"repro/internal/dag"
	"repro/internal/observer"
)

// TestSweepMatchesMasked pins Sweep to Masked: over every computation
// of up to four nodes at one location and up to three at two and at
// three, under every mask of patternMasks (every bit, which the
// lattice check asks for, the SC/LC auxiliary sweep's, and each single
// bit among them), the patterns Sweep passes, in order, are Masked's
// along observer.Enumerate. The SC ranks the sort walk marks are
// exactly the ranks of the last-writer observers of c's sorts, and a
// sweep stopped by fn visits no further observer. A computation whose
// ids are not topological takes the fallback, which must agree too.
func TestSweepMatchesMasked(t *testing.T) {
	backward := computation.New(1) // 3 ≺ 1 ≺ 0 and 2 ≺ 1
	for _, op := range []computation.Op{computation.N, computation.R(0), computation.W(0), computation.W(0)} {
		backward.AddNode(op)
	}
	for _, e := range [][2]dag.Node{{3, 1}, {1, 0}, {2, 1}} {
		backward.MustAddEdge(e[0], e[1])
	}
	universe := []*computation.Computation{backward}
	for _, u := range []struct{ maxNodes, numLocs int }{{4, 1}, {3, 2}, {3, 3}} {
		universe = append(universe, smallUniverseLocs(u.maxNodes, u.numLocs)...)
	}
	masks := patternMasks()
	var sweep, ref Decider
	var got, want []uint16
	for _, c := range universe {
		ref.Reset(c)
		for _, mask := range masks {
			want = want[:0]
			observer.Enumerate(c, func(o *observer.Observer) bool {
				want = append(want, ref.Masked(o, mask))
				return true
			})
			got = got[:0]
			n := sweep.Sweep(c, mask, func(p uint16) bool {
				got = append(got, p)
				return true
			})
			if n != len(want) || fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%v under mask %09b: Sweep visited %d, patterns %v; Masked along Enumerate: %v",
					c, mask, n, got, want)
			}
		}
		if c == backward {
			if sweep.sweep.reset(c) {
				t.Fatalf("the walk takes %v, whose ids are not topological", c)
			}
			continue
		}
		sweep.Sweep(c, PatternSC, func(uint16) bool { return true })
		sorts := make(map[int]bool)
		c.Dag().EachTopoSort(func(order []dag.Node) bool {
			r, ok := observer.Rank(c, observer.FromLastWriter(c, order))
			if !ok {
				t.Fatalf("%v: W_T of %v has no rank", c, order)
			}
			sorts[r] = true
			return true
		})
		marked := sweep.sweep.sc.Elements()
		if len(marked) != len(sorts) {
			t.Fatalf("%v: SC ranks marked %v, W_T ranks of its sorts %v", c, marked, sorts)
		}
		for _, r := range marked {
			if !sorts[r] {
				t.Fatalf("%v: SC rank %d marked, but no sort's W_T has it (sorts: %v)", c, r, sorts)
			}
		}
		limit, seen := max(len(want)/2, 1), 0
		if n := sweep.Sweep(c, patternEvery, func(uint16) bool { seen++; return seen < limit }); n != limit || seen != limit {
			t.Fatalf("%v: a sweep told to stop after %d observers visited %d and passed %d", c, limit, n, seen)
		}
	}
}
