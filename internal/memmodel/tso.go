package memmodel

import (
	"context"

	"repro/internal/bitset"
	"repro/internal/computation"
	"repro/internal/dag"
	"repro/internal/observer"
	"repro/internal/search"
)

// TSO is total store order, the SPARC/x86 store-buffer model, lifted to
// the computation-centric setting (after Kavanagh & Brookes'
// denotational SPARC TSO). Each write issues in program order, sits in
// its issuer's store buffer, and commits to memory later; buffers drain
// in FIFO order and a node reads its own buffered writes (store
// forwarding). The membership question is encoded over a two-event
// expansion of C:
//
//	every node u has an issue event (reads and noops execute there);
//	every write additionally has a commit event, constrained after
//	its issue, after the commits of program-order-earlier writes
//	(FIFO), and before any program-order-later noop (a noop relaxes
//	nothing, so it is a full fence: mfence).
//
// (C, Φ) ∈ TSO iff some interleaving T of the events realizes Φ with
// every view sampled at its node's issue event: when the buffer — the
// C-past writes to l whose commits are still pending — is non-empty,
// the view is a C-maximal buffered write (forwarding, mandatory); when
// it is empty, the view is the last committed write to l (memory). An
// observation of a write outside the node's C-past is a read from
// memory, so that write's commit event is ordered before the observer's
// issue event in T — exactly the real-time ordering a store-buffer
// machine exhibits. Because C is a dag rather than a set of threads,
// "the buffer of u" means all uncommitted writes in u's C-past, and a
// view may be any C-maximal one when several are incomparable.
//
// SC ⊆ TSO: an SC witness commits every write immediately after its
// issue, so buffers are always empty and every view is memory. The
// strictness witnesses (SB ∈ TSO ∖ SC) live in testdata/litmus and are
// machine-checked by cmd/lattice.
var TSO Model = registered("TSO")

// decideTSO searches the two-event expansion with the forwarding
// constraints expressed through the engine's placement gate;
// memoization and root sharding work unchanged (the gate is a pure
// function of the memo key), so the fleet can shard TSO like any
// engine-backed model. An In decision's Order is the memory order over
// the original nodes, sequenced by when they take effect: reads and
// noops at issue, writes at commit.
func decideTSO(ctx context.Context, c *computation.Computation, o *observer.Observer, opts SearchOptions) Decision {
	// View causality must be acyclic: every cross-past observation is
	// a real-time ordering (the observed write committed before the
	// observer sampled it), so a cycle in precedence ∪ observation has
	// no execution — and its image in tsoSpec's event dag would be
	// cyclic too.
	var hb hbCore
	cl := c.Closure()
	if !hb.build(c, cl, o) {
		return Decision{Verdict: search.VerdictOut()}
	}
	spec, feasible := tsoSpec(c, cl, o, writersByLoc(c))
	if !feasible {
		return Decision{Verdict: search.VerdictOut()}
	}
	res := search.RunContext(ctx, spec, opts)
	d := Decision{Verdict: res.Verdict(), Stats: res.Stats, Order: res.Order}
	if res.Found {
		n := c.NumNodes()
		writes := tsoEventWrites(c)
		d.Order = make([]dag.Node, 0, n)
		for _, ev := range res.Order {
			if int(ev) < n {
				if c.Op(ev).Kind != computation.Write {
					d.Order = append(d.Order, ev)
				}
			} else {
				d.Order = append(d.Order, writes[int(ev)-n])
			}
		}
	}
	return d
}

// tsoEventWrites lists the write nodes in commit-event order: commit
// events are numbered n, n+1, ... over the writes in node order.
func tsoEventWrites(c *computation.Computation) []dag.Node {
	var ws []dag.Node
	for u := 0; u < c.NumNodes(); u++ {
		if c.Op(dag.Node(u)).Kind == computation.Write {
			ws = append(ws, dag.Node(u))
		}
	}
	return ws
}

// tsoGate is one view constraint at a node's issue event: the buffer
// for slot is the commit events in lwCommits still unplaced; while any
// is pending the view must be want, buffered and unshadowed
// (wantCommit is want's commit event, -1 when want is outside the
// C-past); once the buffer drains the view is memory, last[slot] —
// which tracks commit events, the slot writers.
type tsoGate struct {
	slot       int32
	wantCommit int32
	wantPast   bool // want is in the node's C-past (forwardable)
	lwCommits  []int32
}

// tsoFeasible runs the static infeasibility checks at every node's
// issue event, without allocating: a constraint whose buffer — the
// C-past writes to the location — is non-empty is unsatisfiable when
// the view is ⊥ (a program-order-earlier write is always visible,
// buffered or committed) or when a C-past write program-order-later
// than the view shadows it (while buffered it is the newer buffer
// entry, and FIFO commits it after the view, so memory never ends at
// the view either). writers lists c's writers per location.
func tsoFeasible(c *computation.Computation, cl *dag.Closure, o *observer.Observer, writers [][]dag.Node) bool {
	for l, ws := range writers {
		loc := computation.Loc(l)
		for u := 0; u < c.NumNodes(); u++ {
			node := dag.Node(u)
			if c.Op(node).IsWriteTo(loc) {
				continue // self-observation, trivial
			}
			want := o.Get(loc, node)
			for _, w := range ws {
				if !cl.Precedes(w, node) {
					continue
				}
				if want == observer.Bottom || (w != want && cl.Precedes(want, w)) {
					return false
				}
			}
		}
	}
	return true
}

// tsoSpec compiles the TSO membership question into an engine Spec on
// the two-event expansion of c: events 0..n-1 are the original nodes'
// issue events (reads and noops take effect there), and each write
// additionally owns a commit event ≥ n, the sole writer of its
// location slot. cl is c's precedence closure and writers its writers
// per location. The caller has checked that view causality (hb) is
// acyclic, which keeps the event dag acyclic. feasible is false when
// tsoFeasible rules a constraint statically unsatisfiable; the pair is
// then definitively out, and nothing is built.
func tsoSpec(c *computation.Computation, cl *dag.Closure, o *observer.Observer, writers [][]dag.Node) (search.Spec, bool) {
	if !tsoFeasible(c, cl, o, writers) {
		return search.Spec{}, false
	}
	n := c.NumNodes()
	numLocs := c.NumLocs()

	// Commit event ids: n + rank of the write among the writes.
	commitOf := make([]int32, n)
	nEvents := n
	for u := 0; u < n; u++ {
		commitOf[u] = -1
		if c.Op(dag.Node(u)).Kind == computation.Write {
			commitOf[u] = int32(nEvents)
			nEvents++
		}
	}

	rd := dag.New(nEvents)
	for u := 0; u < n; u++ {
		node := dag.Node(u)
		// Issues respect program order in full.
		cl.Descendants(node).ForEach(func(vi int) bool {
			rd.MustAddEdge(node, dag.Node(vi))
			return true
		})
		if cu := commitOf[u]; cu >= 0 {
			// A write commits after it issues; buffers drain FIFO; a
			// program-order-later noop is a fence the commit cannot
			// cross.
			rd.MustAddEdge(node, dag.Node(cu))
			cl.Descendants(node).ForEach(func(vi int) bool {
				switch c.Op(dag.Node(vi)).Kind {
				case computation.Write:
					rd.MustAddEdge(dag.Node(cu), dag.Node(commitOf[vi]))
				case computation.Noop:
					rd.MustAddEdge(dag.Node(cu), dag.Node(vi))
				}
				return true
			})
		}
	}
	// A view of a write outside the node's C-past is a read from
	// memory: that commit precedes this issue. (Inside the C-past the
	// buffer machinery below owns the constraint.) These edges are
	// images of happens-before pairs, so the caller's hb check keeps rd
	// acyclic.
	for l := computation.Loc(0); int(l) < numLocs; l++ {
		for u := 0; u < n; u++ {
			node := dag.Node(u)
			w := o.Get(l, node)
			if w == observer.Bottom || w == node || cl.Precedes(w, node) {
				continue
			}
			rd.MustAddEdge(dag.Node(commitOf[w]), node)
		}
	}

	gates := make([][]tsoGate, nEvents) // commit events carry no gates
	vals := make([]dag.Node, numLocs*nEvents)
	// byGate marks (slot, issue event) pairs whose constraint lives in
	// the gate; commit events and self-observations are never
	// constrained through Allowed either.
	byGate := make([]bool, numLocs*nEvents)
	for l := 0; l < numLocs; l++ {
		loc := computation.Loc(l)
		for u := 0; u < n; u++ {
			node := dag.Node(u)
			if c.Op(node).IsWriteTo(loc) {
				continue // self-observation, trivial
			}
			want := o.Get(loc, node)
			var g tsoGate
			for _, w := range writers[l] {
				if cl.Precedes(w, node) {
					g.lwCommits = append(g.lwCommits, commitOf[w])
					if w == want {
						g.wantPast = true
					}
				}
			}
			if len(g.lwCommits) == 0 {
				continue // engine-native singleton constraint on the issue event
			}
			// tsoFeasible passed, so want is a write no C-past write
			// shadows.
			g.slot, g.wantCommit = int32(l), commitOf[want]
			byGate[l*nEvents+u] = true
			gates[u] = append(gates[u], g)
		}
	}

	slotOfEvent := make([]int, nEvents)
	for ev := range slotOfEvent {
		slotOfEvent[ev] = -1
	}
	for u := 0; u < n; u++ {
		if cu := commitOf[u]; cu >= 0 {
			slotOfEvent[cu] = int(c.Op(dag.Node(u)).Loc)
		}
	}

	return search.Spec{
		Dag:       rd,
		Closure:   dag.MustClosure(rd),
		NumSlots:  numLocs,
		WriteSlot: func(u dag.Node) int { return slotOfEvent[u] },
		Allowed: func(s int, u dag.Node) ([]dag.Node, bool) {
			if int(u) >= n || byGate[s*nEvents+int(u)] {
				return nil, false
			}
			node := dag.Node(u)
			if c.Op(node).IsWriteTo(computation.Loc(s)) {
				return nil, false // self-observation
			}
			i := s*nEvents + int(u)
			vals[i] = o.Get(computation.Loc(s), node)
			if vals[i] != observer.Bottom {
				// The constraint tracks commit events: the slot writer
				// is the write's commit, not its issue.
				vals[i] = dag.Node(commitOf[vals[i]])
			}
			return vals[i : i+1 : i+1], true
		},
		Gate: func(u dag.Node, last []dag.Node, placed *bitset.Set) bool {
			for _, g := range gates[u] {
				buffered := false
				for _, ce := range g.lwCommits {
					if !placed.Contains(int(ce)) {
						buffered = true
						break
					}
				}
				if buffered {
					// Forwarding is mandatory: the view is a buffered
					// write, so want must be in the buffer. Shadowing
					// was ruled out statically.
					if !g.wantPast || placed.Contains(int(g.wantCommit)) {
						return false
					}
				} else if last[g.slot] != dag.Node(g.wantCommit) {
					return false
				}
			}
			return true
		},
	}, true
}
