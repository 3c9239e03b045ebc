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
// memoization, parallel workers and root ranges work unchanged (the
// gate is a pure function of the memo key). The fleet nonetheless sends
// TSO to one replica whole: only SC has a shard plan (shard.go). An In
// decision's Order is the memory order over the original nodes,
// sequenced by when they take effect: reads and noops at issue, writes
// at commit.
func (d *Decider) decideTSO(ctx context.Context, opts SearchOptions) Decision {
	res, ran := d.tsoSearch(ctx, opts)
	if !ran {
		return Decision{Verdict: search.VerdictOut()}
	}
	dec := Decision{Verdict: res.Verdict(), Stats: res.Stats, Order: res.Order}
	if res.Found {
		dec.Order = make([]dag.Node, 0, d.n)
		for _, ev := range res.Order {
			if int(ev) >= d.n {
				dec.Order = append(dec.Order, d.tso.writes[int(ev)-d.n])
			} else if d.c.Op(ev).Kind != computation.Write {
				dec.Order = append(dec.Order, ev)
			}
		}
	}
	return dec
}

// tsoSearch runs the pair's TSO search; ran is false when the pair is
// out without one.
func (d *Decider) tsoSearch(ctx context.Context, opts SearchOptions) (search.Result, bool) {
	if !d.tsoFeasible() {
		return search.Result{}, false
	}
	return d.run(ctx, d.tso.events(d.c, d.cl, d.o, d.c.Ops()), opts), true
}

// tsoFeasible reports whether the observed pair passes TSO's checks
// before the search, which read only which nodes write (tsoCore.check),
// and leaves the gates built for tsoCore.events. View causality must be
// acyclic: every cross-past observation is a real-time ordering (the
// observed write committed before the observer sampled it), so a cycle
// in precedence ∪ observation has no execution — and its image in the
// event dag would be cyclic too. And the static checks of
// tsoCore.check must pass. The core is allocated here, on first use,
// so that a Decider that never decides TSO does not carry it, and a
// one-shot Decider stays on its caller's stack: the Spec's funcs hold
// the core, not the Decider.
func (d *Decider) tsoFeasible() bool {
	if !d.hbAcyclic() {
		return false
	}
	if d.tso == nil {
		d.tso = new(tsoCore)
	}
	return d.tso.check(d.c, d.cl, d.o, d.locWriters())
}

// tsoGate is one view constraint at a node's issue event: the buffer
// for slot is the commit events commits[lo:hi] of the tsoCore still
// unplaced; while any is pending the view must be want, buffered and
// unshadowed (wantCommit is want's commit event, -1 when want is
// outside the C-past); once the buffer drains the view is memory,
// last[slot] — which tracks commit events, the slot writers.
type tsoGate struct {
	slot, wantCommit int32
	wantPast         bool // want is in the node's C-past (forwardable)
	lo, hi           int32
}

// tsoCore is the storage of TSO's engine question, reused from one
// search to the next: the check's layout, the event dag and its
// closure, which events rebuilds in place, and the spec over them, whose
// funcs read the pair events was last given.
type tsoCore struct {
	commitOf []int32    // node -> its commit event, -1 for a non-write
	writes   []dag.Node // commit event n+i -> its write
	gates    []tsoGate  // issue event u's gates end at gateEnd[u]
	gateEnd  []int32
	commits  []int32 // the gates' buffers
	vals     []dag.Node
	skip     []bool

	rd   dag.Dag
	rcl  dag.Closure
	spec search.Spec
	c    *computation.Computation
	o    *observer.Observer
}

// check lays out the two-event expansion of c, on which TSO's
// membership question becomes an engine Spec (events), builds each
// issue event's gates and runs TSO's static checks, over t's storage.
// Events 0..n-1 are the original nodes' issue events (reads and noops
// take effect there), and each write additionally owns a commit event
// ≥ n, the sole writer of its location slot. cl is c's precedence
// closure and writers its writers per location. check reads only which
// nodes write which location, never whether a non-writer reads or is a
// no-op.
//
// It reports false when a constraint is statically unsatisfiable, and
// the pair is then definitively out: a constraint whose buffer — the
// C-past writes to the location — is non-empty is unsatisfiable when
// the view is ⊥ (a program-order-earlier write is always visible,
// buffered or committed) or when a C-past write program-order-later
// than the view shadows it (while buffered it is the newer buffer
// entry, and FIFO commits it after the view, so memory never ends at
// the view either). A warm core runs these checks without allocating.
func (t *tsoCore) check(c *computation.Computation, cl *dag.Closure, o *observer.Observer, writers [][]dag.Node) bool {
	n := c.NumNodes()
	numLocs := c.NumLocs()

	// Commit event ids: n + rank of the write among the writes.
	t.commitOf, t.writes = grow(t.commitOf, n), t.writes[:0]
	for u := 0; u < n; u++ {
		t.commitOf[u] = -1
		if c.Op(dag.Node(u)).Kind == computation.Write {
			t.commitOf[u] = int32(n + len(t.writes))
			t.writes = append(t.writes, dag.Node(u))
		}
	}
	nEvents := n + len(t.writes)
	commitOf := t.commitOf

	// Each issue event's gates, and skip marking the (slot, issue
	// event) pairs Allowed leaves unconstrained: self-observations, and
	// views a gate owns. Commit events carry no view constraint.
	t.gates, t.commits, t.gateEnd = t.gates[:0], t.commits[:0], grow(t.gateEnd, n)
	t.skip = grow(t.skip, numLocs*nEvents)
	clear(t.skip)
	for u := 0; u < n; u++ {
		node := dag.Node(u)
		for l := 0; l < numLocs; l++ {
			loc := computation.Loc(l)
			if c.Op(node).IsWriteTo(loc) {
				t.skip[l*nEvents+u] = true // self-observation, trivial
				continue
			}
			want := o.Get(loc, node)
			g := tsoGate{lo: int32(len(t.commits))}
			for _, w := range writers[l] {
				if !cl.Precedes(w, node) {
					continue
				}
				if want == observer.Bottom || (w != want && cl.Precedes(want, w)) {
					return false
				}
				t.commits = append(t.commits, commitOf[w])
				g.wantPast = g.wantPast || w == want
			}
			if g.hi = int32(len(t.commits)); g.hi == g.lo {
				continue // engine-native singleton constraint on the issue event
			}
			g.slot, g.wantCommit = int32(l), commitOf[want]
			t.skip[l*nEvents+u] = true
			t.gates = append(t.gates, g)
		}
		t.gateEnd[u] = int32(len(t.gates))
	}
	return true
}

// events builds the engine Spec over the expansion and gates that the
// last check laid out for (c, o), under ops, a labelling of c's dag
// with c's writers, whose no-ops place the fences. It is the only part
// of TSO's question that tells a read from a no-op, and only through
// the edge from a commit to a later no-op, so the labellings of one
// writer signature share one check, and those whose no-ops below a
// write are the same share one Spec (TestFenceSetLicense). The caller
// has checked that view causality (hb) is acyclic, which keeps the
// event dag acyclic. The Spec is t's: the next events call rebuilds it
// in place, and a warm core builds it without allocating.
func (t *tsoCore) events(c *computation.Computation, cl *dag.Closure, o *observer.Observer, ops []computation.Op) search.Spec {
	n, numLocs := c.NumNodes(), c.NumLocs()
	nEvents := n + len(t.writes)
	commitOf, rd := t.commitOf, &t.rd
	rd.Reset(nEvents)
	for u := 0; u < n; u++ {
		node := dag.Node(u)
		// Issues respect program order in full: c's own edges carry
		// its closure into the event dag's.
		for _, v := range c.Dag().Succs(node) {
			rd.MustAddEdge(node, v)
		}
		if cu := dag.Node(commitOf[u]); cu >= 0 {
			// A write commits after it issues; buffers drain FIFO; a
			// program-order-later noop is a fence the commit cannot
			// cross.
			rd.MustAddEdge(node, cu)
			cl.Descendants(node).ForEach(func(vi int) bool {
				switch {
				case commitOf[vi] >= 0:
					rd.MustAddEdge(cu, dag.Node(commitOf[vi]))
				case ops[vi].Kind == computation.Noop:
					rd.MustAddEdge(cu, dag.Node(vi))
				}
				return true
			})
		}
	}
	// A view of a write outside the node's C-past is a read from
	// memory: that commit precedes this issue. (Inside the C-past the
	// buffer machinery owns the constraint.) These edges are images of
	// happens-before pairs, so the caller's hb check keeps rd acyclic.
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
	if err := t.rcl.Build(rd); err != nil {
		panic(err)
	}

	t.vals = grow(t.vals, numLocs*nEvents)
	t.c, t.o = c, o
	if t.spec.Dag == nil {
		t.spec = search.Spec{Dag: rd, Closure: &t.rcl, WriteSlot: t.writeSlot, Allowed: t.allowed, Gate: t.gate}
	}
	t.spec.NumSlots = numLocs
	return t.spec
}

// writeSlot is the Spec's WriteSlot: a commit event writes its write's
// location, and an issue event writes no slot.
func (t *tsoCore) writeSlot(u dag.Node) int {
	if n := t.c.NumNodes(); int(u) >= n {
		return int(t.c.Op(t.writes[int(u)-n]).Loc)
	}
	return -1
}

// allowed is the Spec's Allowed: the observed view at an issue event,
// as the commit event that writes it, unless check left the slot to
// the gates or to the node itself.
func (t *tsoCore) allowed(s int, u dag.Node) ([]dag.Node, bool) {
	n := t.c.NumNodes()
	i := s*(n+len(t.writes)) + int(u)
	if int(u) >= n || t.skip[i] {
		return nil, false
	}
	t.vals[i] = t.o.Get(computation.Loc(s), u)
	if t.vals[i] != observer.Bottom {
		// The constraint tracks commit events: the slot writer is the
		// write's commit, not its issue.
		t.vals[i] = dag.Node(t.commitOf[t.vals[i]])
	}
	return t.vals[i : i+1 : i+1], true
}

// gate is the Spec's Gate: an issue event's view constraints.
func (t *tsoCore) gate(u dag.Node, last []dag.Node, placed *bitset.Set) bool {
	if int(u) >= t.c.NumNodes() {
		return true // commit events carry no gates
	}
	lo := int32(0)
	if u > 0 {
		lo = t.gateEnd[u-1]
	}
	for _, g := range t.gates[lo:t.gateEnd[u]] {
		buffered := false
		for _, ce := range t.commits[g.lo:g.hi] {
			if !placed.Contains(int(ce)) {
				buffered = true
				break
			}
		}
		if buffered {
			// Forwarding is mandatory: the view is a buffered write, so
			// want must be in the buffer. Shadowing was ruled out
			// statically.
			if !g.wantPast || placed.Contains(int(g.wantCommit)) {
				return false
			}
		} else if last[g.slot] != dag.Node(g.wantCommit) {
			return false
		}
	}
	return true
}
