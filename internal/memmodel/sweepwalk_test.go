package memmodel

import (
	"fmt"
	"testing"

	"repro/internal/bitset"
	"repro/internal/computation"
	"repro/internal/dag"
	"repro/internal/observer"
)

// noopsFor returns c with every node that writes nothing relabelled a
// no-op: the one labelling of c's writer signature without reads.
func noopsFor(c *computation.Computation) *computation.Computation {
	ops := make([]computation.Op, c.NumNodes())
	for u, op := range c.Ops() {
		if op.Kind == computation.Write {
			ops[u] = op
		}
	}
	return c.Relabel(ops)
}

// signatureGroups splits universe into groups of computations with one
// dag and one writer signature, in order of first appearance.
func signatureGroups(universe []*computation.Computation) [][]*computation.Computation {
	var groups [][]*computation.Computation
	at := make(map[string]int)
	for _, c := range universe {
		key := noopsFor(c).String()
		i, ok := at[key]
		if !ok {
			i = len(groups)
			at[key] = i
			groups = append(groups, nil)
		}
		groups[i] = append(groups[i], c)
	}
	return groups
}

// TestSweepMatchesMasked pins Sweep to Masked: over every computation
// of up to four nodes at one location and up to three at two and at
// three, grouped by dag and writer signature, under every mask of
// patternMasks (every bit, which the lattice check asks for, the SC/LC
// auxiliary sweep's, and each single bit among them), the calls Sweep
// makes for a group are, in order, Masked's pattern of each member in
// turn at each observer along observer.Enumerate. The SC ranks the
// sort walk marks are exactly the ranks of the last-writer observers
// of c's sorts, and a sweep stopped by fn makes no further call. A
// computation whose ids are not topological takes the fallback, which
// must agree too, for the group of its relabellings as for itself
// alone.
func TestSweepMatchesMasked(t *testing.T) {
	backward := computation.New(1) // 3 ≺ 1 ≺ 0 and 2 ≺ 1
	for _, op := range []computation.Op{computation.N, computation.R(0), computation.W(0), computation.W(0)} {
		backward.AddNode(op)
	}
	for _, e := range [][2]dag.Node{{3, 1}, {1, 0}, {2, 1}} {
		backward.MustAddEdge(e[0], e[1])
	}
	var backwards []*computation.Computation
	for _, ops := range [][]computation.Op{{computation.N, computation.N}, {computation.N, computation.R(0)}, {computation.R(0), computation.N}, {computation.R(0), computation.R(0)}} {
		backwards = append(backwards, backward.Relabel(append(ops, computation.W(0), computation.W(0))))
	}
	groups := [][]*computation.Computation{{backward}, backwards}
	for _, u := range []struct{ maxNodes, numLocs int }{{4, 1}, {3, 2}, {3, 3}} {
		groups = append(groups, signatureGroups(smallUniverseLocs(u.maxNodes, u.numLocs))...)
	}
	masks := patternMasks()
	var sweep, ref Decider
	type call struct {
		member  int
		pattern uint16
	}
	var got, want []call
	var patterns [][]uint16 // by member: Masked's patterns along Enumerate
	for _, group := range groups {
		c := group[0]
		for len(patterns) < len(group) {
			patterns = append(patterns, nil)
		}
		members := make([][]computation.Op, len(group))
		for i, m := range group {
			members[i] = m.Ops()
		}
		for _, mask := range masks {
			for i, m := range group {
				ref.Reset(m)
				patterns[i] = patterns[i][:0]
				observer.Enumerate(m, func(o *observer.Observer) bool {
					patterns[i] = append(patterns[i], ref.Masked(o, mask))
					return true
				})
			}
			want = want[:0]
			for k := range patterns[0] {
				for i := range group {
					want = append(want, call{i, patterns[i][k]})
				}
			}
			got = got[:0]
			n := sweep.Sweep(c, members, mask, func(i int, p uint16) bool {
				got = append(got, call{i, p})
				return true
			})
			if n*len(group) != len(want) || fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%v and %d more labellings under mask %09b: Sweep visited %d observers, calls %v; Masked along Enumerate: %v",
					c, len(group)-1, mask, n, got, want)
			}
		}
		if c == backward || c == backwards[0] {
			if sweep.sweep.reset(c) {
				t.Fatalf("the walk takes %v, whose ids are not topological", c)
			}
			continue
		}
		sweep.Sweep(c, [][]computation.Op{c.Ops()}, PatternSC, func(int, uint16) bool { return true })
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
		n := sweep.Sweep(c, members, patternEvery, func(int, uint16) bool { seen++; return seen < limit })
		if observers := (limit + len(group) - 1) / len(group); n != observers || seen != limit {
			t.Fatalf("%v: a sweep of %d labellings told to stop after %d calls visited %d observers and made %d calls",
				c, len(group), limit, n, seen)
		}
	}
}

// TestWriterSignatureLicense is the license for deciding the labellings
// of one writer signature together (Sweep, and enum.Group for the
// pattern sweep and the star's boundary count), in the way the orbit
// reduction rests on isomorphism invariance. A writer signature records
// which location, if any, each node writes; the labellings that share
// c's differ only in whether a node that writes nothing reads or is a
// no-op. Every registry row that ReadsOnlyWriters must then give each
// pair the verdict it gives the pair whose computation has every such
// node a no-op, by Entry.Contains, the full decision; each model by its
// definition:
//
//   - Observer functions (Def 2) read the labelling only through the
//     writers: Φ(l,u) = u exactly when u writes l, and is otherwise ⊥
//     or a writer of l. So the labellings have the same observers.
//   - SC and LC (Defs 17–18) quantify over TS(C), which is the dag's,
//     and compare Φ with last-writer functions W_T, which read only
//     which nodes write l.
//   - NN, NW, WN and WW (Def 20) quantify over the dag's triples, and
//     their predicates ask only whether u and v write l.
//   - RA and CAUSAL are stated over hb = (precedence ∪ observation)⁺,
//     whose observation edges come from Φ, and over the writes to each
//     location: RA's modification orders, and the last write of each
//     causal past.
//
// TSO does not hold it: a no-op is a fence (mfence), which every
// program-order-earlier write commits before, and a read is not. So a
// TSO verdict can change when a read becomes a no-op, and the sweeps
// search TSO once per effective fence set (TestFenceSetLicense). The
// pinned pair is one of the 32 of up to four nodes at one location
// whose TSO verdict changes so.
//
// Over every pair of up to four nodes at one location and up to three
// at two.
func TestWriterSignatureLicense(t *testing.T) {
	var fences []Model
	for _, m := range PatternModels() {
		if !m.(*Entry).ReadsOnlyWriters() {
			fences = append(fences, m)
		}
	}
	if len(fences) != 1 || fences[0] != TSO {
		t.Fatalf("rows that tell a read from a no-op: %v, want TSO alone", fences)
	}
	tsoMoved := 0
	for _, u := range []struct{ maxNodes, numLocs int }{{4, 1}, {3, 2}} {
		for _, c := range smallUniverseLocs(u.maxNodes, u.numLocs) {
			noops := noopsFor(c)
			if noops.String() == c.String() {
				continue
			}
			observer.Enumerate(c, func(o *observer.Observer) bool {
				for _, m := range PatternModels() {
					in, noopsIn := m.Contains(c, o), m.Contains(noops, o)
					switch {
					case m == TSO:
						if in != noopsIn && u.numLocs == 1 {
							tsoMoved++
						}
					case in != noopsIn:
						t.Fatalf("%s: %v / %v in=%v, but with no-ops for its reads in=%v", m.Name(), c, o, in, noopsIn)
					}
				}
				return true
			})
		}
	}
	if tsoMoved != 32 {
		t.Fatalf("%d pairs of up to four nodes at one location change their TSO verdict when their reads become no-ops, want 32", tsoMoved)
	}

	c := computation.New(1)
	for _, op := range []computation.Op{computation.W(0), computation.W(0), computation.R(0), computation.N} {
		c.AddNode(op)
	}
	for _, e := range [][2]dag.Node{{0, 2}, {0, 3}, {1, 2}} {
		c.MustAddEdge(e[0], e[1])
	}
	o := observer.New(c)
	for u, w := range []dag.Node{0, 1, 0, 1} {
		o.Set(0, dag.Node(u), w)
	}
	const pair = "comp(locs=1; 0:W(0) 1:W(0) 2:R(0) 3:N; 0->2 0->3 1->2) / Φ(l0: 0→0 1→1 2→0 3→1)"
	if got := fmt.Sprintf("%v / %v", c, o); got != pair {
		t.Fatalf("built %s, want %s", got, pair)
	}
	noop := c.Relabel([]computation.Op{computation.W(0), computation.W(0), computation.N, computation.N})
	if !TSO.Contains(c, o) || TSO.Contains(noop, o) {
		t.Fatalf("%s: in TSO %v, with node 2 a no-op %v; want in, then out", pair, TSO.Contains(c, o), TSO.Contains(noop, o))
	}
}

// fencesFor returns the labelling of c's fence class that
// TestFenceSetLicense compares c with: c's writes, a no-op at each of
// c's effective fences (its no-ops that some write precedes), a read of
// location 0 at every other node that some write precedes, and a no-op
// at every node that no write precedes.
func fencesFor(c *computation.Computation) *computation.Computation {
	below := bitset.New(c.NumNodes()) // the nodes some write precedes
	for u, op := range c.Ops() {
		if op.Kind == computation.Write {
			below.UnionWith(c.Closure().Descendants(dag.Node(u)))
		}
	}
	ops := make([]computation.Op, c.NumNodes())
	for u, op := range c.Ops() {
		switch {
		case op.Kind == computation.Write || op.Kind == computation.Noop:
			ops[u] = op
		case below.Contains(u):
			ops[u] = computation.R(0)
		}
	}
	return c.Relabel(ops)
}

// TestFenceSetLicense is the license for searching TSO once per
// effective fence set (Sweep's fence classes), as
// TestWriterSignatureLicense is for the other models. A labelling's
// effective fences are its no-ops that some write precedes. tsoCore's
// check reads only which nodes write which location, and events reads
// the labelling only for the edge from a write's commit to a
// program-order-later no-op, which exists only below a write: a no-op
// that no write precedes drains an empty store buffer, an mfence that
// orders nothing, and gets exactly the edges a read in its place gets.
// So two labellings with the same writers and the same effective
// fences pose the same engine question. Over every pair of up to four
// nodes at one location and up to three at two, each such pair must
// get the TSO verdict, by Entry.Contains, of the pair whose labelling
// has the same writers and fences and is otherwise canonical
// (fencesFor), and when the pair passes TSO's checks before the search,
// events must build the same edge set for both.
func TestFenceSetLicense(t *testing.T) {
	var hb hbCore
	var core, ref tsoCore
	compared, searched := 0, 0
	for _, u := range []struct{ maxNodes, numLocs int }{{4, 1}, {3, 2}} {
		for _, c := range smallUniverseLocs(u.maxNodes, u.numLocs) {
			f := fencesFor(c)
			if f.String() == c.String() {
				continue
			}
			writers := writersByLoc(nil, c)
			observer.Enumerate(c, func(o *observer.Observer) bool {
				compared++
				if in, fIn := TSO.Contains(c, o), TSO.Contains(f, o); in != fIn {
					t.Fatalf("%v / %v in TSO=%v, but with the labelling %v of its fence class in TSO=%v", c, o, in, f, fIn)
				}
				if !hb.build(c, c.Closure(), o) || !core.check(c, c.Closure(), o, writers) {
					return true
				}
				searched++
				ref.check(f, f.Closure(), o, writers)
				got, want := core.events(c, c.Closure(), o, c.Ops()).Dag, ref.events(f, f.Closure(), o, f.Ops()).Dag
				if !got.Equal(want) {
					t.Fatalf("%v / %v: event dag %v, but with the labelling %v of its fence class %v", c, o, got, f, want)
				}
				return true
			})
		}
	}
	if compared == 0 || searched == 0 {
		t.Fatalf("%d pairs compared with their fence class's, %d of their event dags; want some of each", compared, searched)
	}
}
