// Package search implements the pruned, memoized backtracking search
// over topological sorts that every decision procedure in this repo
// bottoms out in: the SC and LC model deciders (Definitions 17–18 via
// last-writer functions, Definition 13) and the post-mortem trace
// checker (the computation-centric analogue of Gibbons & Korach's SC
// verification, NP-complete in general).
//
// A search problem (Spec) asks: is there a topological sort T of a dag
// such that, for every tracked location slot and every constrained
// node u, the last writer W_T(slot, u) lies in u's allowed candidate
// set? The engine answers it with three optimizations over the naive
// search the model deciders and the checker used to duplicate:
//
//   - Memoization of failed states keyed by the packed bitset pair
//     (placed set, last-writer vector), stored in a custom
//     open-addressing hash set of raw uint64 words. No per-state
//     string allocation, and the key codec is injective for any node
//     count (the legacy checker key truncated node ids to 16 bits).
//
//   - Transitive-closure feasibility pruning: a partial sort is
//     rejected as soon as some unplaced constrained node's candidates
//     are all dead — a candidate writer is dead once it has been
//     placed and overwritten, or once it is placed and some other
//     writer that must precede the constrained node (by the closure)
//     is still unplaced and would overwrite it. Candidate sets are
//     also filtered statically against the closure before the search
//     starts (a candidate the node precedes, or with another writer
//     forced strictly between it and the node, can never be observed).
//
//   - Sleep-set pruning (the partial-order reduction of Godefroid's
//     sleep sets, adapted to constrained topological sorts): two
//     placements commute when the closure orders neither before the
//     other, they write different slots, and neither writes a slot the
//     other's placement constraints read. After a child u's subtree is
//     exhausted without a witness, u is put to sleep for the later
//     siblings: a sibling v that commutes with u need not re-explore
//     placing u first thing, because state·v·u = state·u·v and the
//     latter lies inside u's already-failed subtree. Sleep sets thus
//     skip only subtrees proven witness-free, which keeps Found and
//     the witness Order bit-identical to the unpruned search — and
//     keeps failed-state memoization sound: an stFail concluded under
//     a non-empty sleep set still means "no witness from this state",
//     because every claim it rests on (explored siblings, memo
//     entries, inherited sleeps) was established earlier and is a
//     property of the state alone. (This is where the classic
//     "sleep sets break state caching" trap does not apply: the memo
//     stores refuted states, not visited ones.)
//
//   - One root loop: the admissible first-choice frontier (the
//     recursion's depth-0 children) is claimed in order from a shared
//     counter by one worker — the Runner's engine, for a serial run or
//     a RootLo/RootHi shard — or by Workers goroutines with per-worker
//     memo tables, an atomic lowest-successful-root register and a
//     shared atomic state budget. Memo entries and sleep sets record
//     only refutations, so the lowest-root rule makes the witness
//     deterministic: with an unlimited budget, any Workers setting and
//     any shard cut return the same Found/Order as Workers = 1. A zero
//     Workers runs one worker; only an explicit width fans out.
package search

import (
	"fmt"
	"math"

	"repro/internal/bitset"
	"repro/internal/dag"
	"repro/internal/obs"
)

// Options tunes a Run without changing its answer (budget aside).
type Options struct {
	// Workers is the number of goroutines that claim roots: 0 and 1
	// run serially, >1 splits the roots in parallel (capped at the
	// number of admissible roots in the run). Callers that want the
	// machine's width pass runtime.GOMAXPROCS(0) themselves, as the
	// CLIs' -workers flags do.
	Workers int
	// Budget caps the number of search states explored (0 = unlimited).
	// On exhaustion Result.Exhausted is false and the answer is
	// inconclusive unless a witness was already found. Under parallel
	// splitting the cap is approximate (workers draw states in small
	// batches) and which states get explored is scheduling-dependent.
	Budget int64
	// MaxMemoBytes caps the failed-state memo tables' backing memory in
	// bytes (0 = unlimited; under parallel splitting each worker gets an
	// equal share). The cap degrades exactly: when growth would exceed
	// it the tables freeze — lookups keep working on everything already
	// stored, new inserts are dropped — so the answer never changes,
	// only the state count. Stats.MemoSpilled reports the drops.
	MaxMemoBytes int64
	// DisableSleep turns off sleep-set pruning (see the package comment).
	// The answer is identical either way; the flag exists for
	// differential tests and for measuring the pruning's effect.
	DisableSleep bool
	// RootLo and RootHi restrict the run to the contiguous slice
	// [RootLo, RootHi) of the admissible root frontier (see Frontier) —
	// the distributed analogue of parallel root splitting: a fleet
	// coordinator partitions the frontier into shards, ships each range
	// to a replica, and merges shard results by the lowest-witness-root
	// rule, which reproduces exactly the verdict and witness of an
	// unsharded run. RootHi == 0 means "through the end"; both zero
	// (the default) runs the whole frontier. A shard that excludes every
	// root is vacuously exhausted (Out). A shard runs the engine's one
	// root loop over its slice, so its witness for root r is
	// byte-identical to what an unsharded run finds under r.
	RootLo, RootHi int
	// Recorder receives run-level observability events: run start/end,
	// root claimed/skipped/finished (on parallel and sharded runs),
	// governor fired and memo freeze. nil (the default) disables all
	// event work — the engine emits nothing per state either way, and
	// live counters are published only in cancellation-poll batches, so
	// the recorder stays off the hot path's allocation profile.
	// Since checker.SearchOptions and memmodel.SearchOptions alias this
	// type, a recorder set here flows through every decision procedure.
	Recorder obs.Recorder
}

// MiB returns n mebibytes in bytes, pinned at the int64 range's ends
// instead of wrapping. Every MiB flag and request field converts
// through it, so an oversized value never wraps into a small, zero or
// negative (uncapped) byte count.
func MiB(n int64) int64 {
	switch {
	case n > math.MaxInt64>>20:
		return math.MaxInt64
	case n < math.MinInt64>>20:
		return math.MinInt64
	}
	return n << 20
}

// Stats reports how much work a Run did.
type Stats struct {
	States      int64 // search states expanded
	MemoHits    int64 // states rejected by the failed-state table
	Pruned      int64 // states rejected by closure feasibility pruning
	Memoized    int64 // distinct failed states recorded
	MemoBytes   int64 // memo-table backing memory (summed over workers)
	MemoSpilled int64 // memo inserts dropped by the MaxMemoBytes cap
	// SleepSetPruned counts children skipped because they were asleep:
	// their subtrees were proven witness-free by an earlier sibling
	// exploration of a commuting placement.
	SleepSetPruned int64
	Roots          int // admissible first-choice branches (whole frontier, even under a shard)
	Workers        int // workers actually used
}

// Add accumulates t into s.
func (s *Stats) Add(t Stats) {
	s.States += t.States
	s.MemoHits += t.MemoHits
	s.Pruned += t.Pruned
	s.Memoized += t.Memoized
	s.MemoBytes += t.MemoBytes
	s.MemoSpilled += t.MemoSpilled
	s.SleepSetPruned += t.SleepSetPruned
}

// Result is the outcome of a Run.
type Result struct {
	// Order is a witnessing topological sort when Found.
	Order []dag.Node
	// Found reports whether a satisfying sort exists (definitive).
	Found bool
	// Exhausted reports whether the search ran to completion. When
	// Found is false and Exhausted is false, a governor stopped the
	// search and the instance is undecided; Stop says which one.
	Exhausted bool
	// Stop records the first governor that halted a non-exhaustive run
	// (StopNone on definitive results). Fold with Verdict() for the
	// three-valued In/Out/Inconclusive view.
	Stop StopReason
	// WitnessRoot is the frontier index (see Frontier; global even under
	// a RootLo/RootHi shard) of the root below which Order was found, or
	// -1 when there is no witness or the witness is the empty order. The
	// fleet merge uses it to pick the canonical witness across shards:
	// the lowest witness root wins, exactly as in-process root splitting
	// picks it.
	WitnessRoot int
	Stats       Stats
}

// Spec describes a constrained topological-sort search. Locations are
// abstracted into dense "slots" so callers can track any subset of
// their locations (the checker only tracks locations that actually
// constrain a read; SC tracks all of them).
type Spec struct {
	// Dag is the precedence graph to sort.
	Dag *dag.Dag
	// Closure is the transitive closure of Dag; computed when nil.
	Closure *dag.Closure
	// NumSlots is the number of tracked location slots.
	NumSlots int
	// WriteSlot returns the slot node u writes, or -1. A node writes
	// at most one slot (instructions touch one location).
	WriteSlot func(u dag.Node) int
	// Allowed returns the candidate last-writer set for node u at a
	// slot (dag.None means "no write observed") and whether u is
	// constrained there at all. Constrained empty sets make the
	// instance trivially unsatisfiable. The engine may retain the
	// returned slice; the caller must not mutate it afterwards.
	Allowed func(slot int, u dag.Node) ([]dag.Node, bool)
	// Gate, when non-nil, is an extra placement-time admission check:
	// node u may be appended to the partial sort only if Gate returns
	// true for the current last-writer vector (indexed by slot, dag.None
	// = no writer placed) and placed set. The TSO decider uses it for
	// store-forwarding constraints that singleton candidate sets cannot
	// express.
	//
	// Soundness contract: Gate must be a pure function of (u, last,
	// placed) — exactly the failed-state memo key plus the candidate
	// node — so memoized refutations stay valid across search paths.
	// Gate must not retain or mutate its arguments. Because the gate
	// can read slots the conflict matrix knows nothing about, sleep-set
	// pruning is disabled for gated specs (the commutation argument no
	// longer holds); everything else — memoization, closure-feasibility
	// pruning, parallel root splitting, RootLo/RootHi sharding — works
	// unchanged, and the frontier consults the gate on the empty state
	// so shard coordinates stay consistent across processes.
	Gate func(u dag.Node, last []dag.Node, placed *bitset.Set) bool
}

// nodeCon is one placement-time constraint: when the node is placed,
// the current last writer of slot must be a member of set.
type nodeCon struct {
	slot int32
	set  []dag.Node
}

// problem is a compiled Spec: closure-filtered candidate sets plus the
// static tables the hot loop indexes. A problem compiles over its
// previous tables (see compile), so a Runner's problem stops
// allocating once its tables have grown to the largest spec it sees.
type problem struct {
	n        int
	numSlots int
	succs    [][]dag.Node
	indeg0   []int32
	// writeSlot[u] is the slot u writes, or -1.
	writeSlot []int32
	// writers is a slab of placed-set-width bitmasks, one per slot:
	// writers[s*placedWords..] holds the nodes that write slot s.
	writers []uint64
	// cands[slot*n+u] is the filtered candidate set (nil when
	// unconstrained). For a write constrained at its own slot the
	// constraint is static (u ∈ set) and is resolved at compile time.
	cands [][]dag.Node
	// nodeCons[u] lists the constraints checked when placing u.
	nodeCons [][]nodeCon
	// consNodes[slot] lists nodes carrying a dynamic constraint at the
	// slot, scanned by the feasibility prune.
	consNodes [][]dag.Node
	// predW is a slab of placed-set-width bitmasks, one per dynamic
	// constraint: the slot-writers that strictly precede the node in
	// the closure. predWOff[slot*n+u] is the word offset into the slab,
	// or -1 when u is unconstrained at the slot.
	predW    []uint64
	predWOff []int32
	// conflict is the placement dependence relation as an n×n bit
	// matrix (rows of placedWords words): conflict[u*placedWords..][v]
	// is set when placing u and v does not commute — they are ordered
	// by the closure, write the same slot, or one writes a slot the
	// other's placement-time constraints read. Sleep-set pruning skips
	// a child only while every placement since the child's subtree was
	// proven empty is independent of it.
	conflict []uint64

	// gate is Spec.Gate, carried through compilation (nil = ungated).
	gate func(u dag.Node, last []dag.Node, placed *bitset.Set) bool

	placedWords int
	keyWords    int
	unsat       bool

	// Backing storage kept for the next compile: the shared constraint
	// and candidate arrays the slices above point into, the conflict
	// matrix's slab and the identity array behind own-slot constraints.
	conBacking  []nodeCon
	nodeBacking []dag.Node
	keptBacking []dag.Node
	sleepSlab   []uint64
	self        []dag.Node
}

// reuse returns a zeroed slice of length n, over s's backing array
// when its capacity suffices.
func reuse[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// compile compiles spec into p, overwriting every table of an earlier
// compile and reusing its storage.
func (p *problem) compile(spec Spec) {
	n := spec.Dag.NumNodes()
	numSlots := spec.NumSlots
	pw := (n + 63) / 64
	p.n, p.numSlots, p.placedWords = n, numSlots, pw
	p.keyWords = pw + (numSlots+1)/2
	p.gate = spec.Gate
	p.unsat = false
	p.succs = reuse(p.succs, n)
	p.indeg0 = reuse(p.indeg0, n)
	p.writeSlot = reuse(p.writeSlot, n)
	p.writers = reuse(p.writers, numSlots*pw)
	p.cands = reuse(p.cands, numSlots*n)
	p.nodeCons = reuse(p.nodeCons, n)
	p.consNodes = reuse(p.consNodes, numSlots)
	p.predWOff = reuse(p.predWOff, numSlots*n)
	p.conflict = nil
	cl := spec.Closure
	if cl == nil {
		cl = dag.MustClosure(spec.Dag)
	}
	for u := 0; u < n; u++ {
		p.succs[u] = spec.Dag.Succs(dag.Node(u))
		p.indeg0[u] = int32(spec.Dag.InDegree(dag.Node(u)))
		p.writeSlot[u] = -1
		if s := spec.WriteSlot(dag.Node(u)); s >= 0 {
			if s >= numSlots {
				panic(fmt.Sprintf("search: WriteSlot(%d) = %d out of range [0,%d)", u, s, numSlots))
			}
			p.writeSlot[u] = int32(s)
			p.writers[s*pw+u>>6] |= 1 << (uint(u) & 63)
		}
	}
	// Pass 1: collect and filter candidate sets, counting the dynamic
	// constraints for exact-size backing arrays.
	p.keptBacking = p.keptBacking[:0]
	total := 0
	for s := 0; s < numSlots; s++ {
		for u := 0; u < n; u++ {
			idx := s*n + u
			p.predWOff[idx] = -1
			raw, constrained := spec.Allowed(s, dag.Node(u))
			if !constrained {
				continue
			}
			if p.writeSlot[u] == int32(s) {
				// A write observes itself at its own slot (axiom 2.3 /
				// Definition 13.1): the constraint holds always or never.
				if !containsNode(raw, dag.Node(u)) {
					p.unsat = true
					return
				}
				if len(p.self) < n {
					// Identity array backing the own-slot constraints:
					// one shared array instead of a singleton per write.
					p.self = make([]dag.Node, n)
					for v := range p.self {
						p.self[v] = dag.Node(v)
					}
				}
				p.cands[idx] = p.self[u : u+1 : u+1]
				continue
			}
			kept := p.filterCandidates(raw, dag.Node(u), s, cl)
			if len(kept) == 0 {
				p.unsat = true
				return
			}
			p.cands[idx] = kept
			total++
		}
	}
	// Pass 2: distribute the dynamic constraints into shared backings
	// and build the predW slab. The backings have room for every
	// constraint, so the slices cut from them never move.
	p.conBacking = reuse(p.conBacking, total)[:0]
	p.nodeBacking = reuse(p.nodeBacking, total)[:0]
	p.predW = reuse(p.predW, total*pw)[:0]
	for u := 0; u < n; u++ {
		start := len(p.conBacking)
		aw := cl.Ancestors(dag.Node(u)).Words()
		for s := 0; s < numSlots; s++ {
			idx := s*n + u
			if p.cands[idx] == nil || p.writeSlot[u] == int32(s) {
				continue
			}
			p.conBacking = append(p.conBacking, nodeCon{slot: int32(s), set: p.cands[idx]})
			p.predWOff[idx] = int32(len(p.predW))
			ww := p.writers[s*pw : (s+1)*pw]
			for i := 0; i < pw; i++ {
				p.predW = append(p.predW, ww[i]&aw[i])
			}
		}
		p.nodeCons[u] = p.conBacking[start:len(p.conBacking):len(p.conBacking)]
	}
	for s := 0; s < numSlots; s++ {
		start := len(p.nodeBacking)
		for u := 0; u < n; u++ {
			if p.cands[s*n+u] != nil && p.writeSlot[u] != int32(s) {
				p.nodeBacking = append(p.nodeBacking, dag.Node(u))
			}
		}
		p.consNodes[s] = p.nodeBacking[start:len(p.nodeBacking):len(p.nodeBacking)]
	}
	if p.gate != nil {
		// Gated specs never sleep (see Spec.Gate), so the conflict
		// matrix would be dead weight.
		return
	}
	// Pass 3: the placement dependence relation for sleep-set pruning,
	// built word-parallel (a per-cell Comparable loop costs more than
	// small unsat searches save). A node x touches slot s when placing
	// it reads or writes s: it writes s, or it carries a dynamic
	// constraint on s (own-slot write constraints were compiled away
	// and depend on no state). conflict(u,v) holds when u==v, the
	// closure orders them, or one writes a slot the other touches.
	p.sleepSlab = reuse(p.sleepSlab, (n+numSlots)*pw)
	p.conflict = p.sleepSlab[:n*pw]
	touch := p.sleepSlab[n*pw:] // touch[s*pw..]: nodes touching slot s
	for x := 0; x < n; x++ {
		bit := uint64(1) << (uint(x) & 63)
		for s := 0; s < numSlots; s++ {
			if p.writeSlot[x] == int32(s) || p.predWOff[s*n+x] >= 0 {
				touch[s*pw+x>>6] |= bit
			}
		}
	}
	for u := 0; u < n; u++ {
		row := p.conflict[u*pw : (u+1)*pw]
		aw := cl.Ancestors(dag.Node(u)).Words()
		dw := cl.Descendants(dag.Node(u)).Words()
		for i := range row {
			row[i] = aw[i] | dw[i]
		}
		row[u>>6] |= 1 << (uint(u) & 63)
		if ws := int(p.writeSlot[u]); ws >= 0 {
			for i := range row {
				row[i] |= touch[ws*pw+i]
			}
		}
		for s := 0; s < numSlots; s++ {
			if p.writeSlot[u] == int32(s) || p.predWOff[s*n+u] >= 0 {
				for i := range row {
					row[i] |= p.writers[s*pw+i]
				}
			}
		}
	}
}

// filterCandidates drops candidates that no topological sort can
// realize as u's last writer at the slot, using the closure:
//
//   - a non-writer of the slot (the last-writer function never yields it);
//   - a candidate u strictly precedes (it would be placed after u);
//   - ⊥ when some slot-writer precedes u (that writer lands first in
//     every sort);
//   - a candidate w with another slot-writer x forced strictly between
//     them (w ≺ x ≺ u): x overwrites w before u in every sort.
//
// When nothing is dropped the raw slice is returned as-is — the common
// case (singleton observer constraints, trace candidate sets); the
// survivors of a filtered set go to keptBacking.
func (p *problem) filterCandidates(raw []dag.Node, u dag.Node, slot int, cl *dag.Closure) []dag.Node {
	pw := p.placedWords
	writers := p.writers[slot*pw : (slot+1)*pw]
	anc := cl.Ancestors(u).Words()
	keep := func(w dag.Node) bool {
		if w == dag.None {
			for i, x := range writers {
				if x&anc[i] != 0 {
					return false
				}
			}
			return true
		}
		if int(w) < 0 || int(w) >= p.n || p.writeSlot[w] != int32(slot) {
			return false
		}
		if cl.Precedes(u, w) {
			return false
		}
		desc := cl.Descendants(w).Words()
		for i, x := range writers {
			if x&desc[i]&anc[i] != 0 {
				return false
			}
		}
		return true
	}
	for i, w := range raw {
		if keep(w) {
			continue
		}
		start := len(p.keptBacking)
		p.keptBacking = append(p.keptBacking, raw[:i]...)
		for _, w := range raw[i+1:] {
			if keep(w) {
				p.keptBacking = append(p.keptBacking, w)
			}
		}
		return p.keptBacking[start:len(p.keptBacking):len(p.keptBacking)]
	}
	return raw
}

func containsNode(set []dag.Node, u dag.Node) bool {
	for _, w := range set {
		if w == u {
			return true
		}
	}
	return false
}
