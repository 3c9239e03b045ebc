package memmodel

import (
	"fmt"
	"testing"

	"repro/internal/computation"
	"repro/internal/dag"
	"repro/internal/observer"
)

// The member walk against its definition: for NN, NW, WN and WW, the
// fixpoint's observer count and member ranks, in order, equal those of
// observer.Enumerate filtered by ExplainQDag, which shares no code with
// the walk or the fused scan. The inputs are every computation of up
// to four nodes at one location and up to three at two, which the walk
// takes, and one whose ids are not topological, which it must leave to
// the enumeration; and, for the walk of C plus a virtual final node
// that prune runs on the boundary, aug_o(C) for every op and every
// such C one node smaller.
func TestQDagWalkMatchesExplain(t *testing.T) {
	backward := computation.New(1) // 3 ≺ 1 ≺ 0 and 2 ≺ 1
	for _, op := range []computation.Op{computation.N, computation.R(0), computation.W(0), computation.W(0)} {
		backward.AddNode(op)
	}
	for _, e := range [][2]dag.Node{{3, 1}, {1, 0}, {2, 1}} {
		backward.MustAddEdge(e[0], e[1])
	}
	rows := []struct {
		m Model
		p Predicate
	}{{NN, PredNN}, {NW, PredNW}, {WN, PredWN}, {WW, PredWW}}
	workers := make([]*fixpointWorker, len(rows))
	for k, row := range rows {
		workers[k] = newFixpointWorker(row.m)
	}
	want := make([][]int, len(rows))
	// check compares the walk of c, or of aug_sink(c), with the reference
	// on e, which is that computation.
	check := func(c *computation.Computation, sink *computation.Op, e *computation.Computation) {
		t.Helper()
		for k := range want {
			want[k] = want[k][:0]
		}
		rank := 0
		count := observer.Enumerate(e, func(o *observer.Observer) bool {
			for k, row := range rows {
				if ExplainQDag(row.p, e, o) == nil {
					want[k] = append(want[k], rank)
				}
			}
			rank++
			return true
		})
		for k, row := range rows {
			fw := workers[k]
			if walks := fw.walk.reset(c, sink); walks != (c != backward) {
				t.Fatalf("%s: the walk applies to %v: %v", row.m.Name(), e, walks)
			}
			var n int
			var got []int
			if sink == nil {
				n = fw.members(c)
				got = fw.ranks
			} else {
				n, got = fw.walk.each(nil) // on the reset above
			}
			if n != count || fmt.Sprint(got) != fmt.Sprint(want[k]) {
				t.Fatalf("%s on %v: %d observers, members %v; Enumerate and ExplainQDag: %d, %v",
					row.m.Name(), e, n, got, count, want[k])
			}
		}
	}
	for _, u := range []struct{ maxNodes, numLocs int }{{4, 1}, {3, 2}} {
		for _, c := range smallUniverseLocs(u.maxNodes, u.numLocs) {
			check(c, nil, c)
			if c.NumNodes() == u.maxNodes {
				continue
			}
			for _, op := range computation.AllOps(u.numLocs) {
				aug, _ := c.Augment(op)
				check(c, &op, aug)
			}
		}
	}
	check(backward, nil, backward)
}
