// Package expt drives the paper's experiments: the Figure 1 lattice of
// models, the constructible-version fixpoints of Section 6 (Theorem 23
// and the Section 7 open problems about NW* and WN*), and universe-wide
// checks of completeness, monotonicity and constructibility
// (Theorems 19, 21, 22). The cmd tools and the benchmark harness are
// thin wrappers around this package.
package expt

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/computation"
	"repro/internal/enum"
	"repro/internal/memmodel"
	"repro/internal/obs"
	"repro/internal/observer"
)

// Edge is one claimed relation of the lattice (Figure 1 plus the
// extended edges for TSO/RA/CAUSAL).
type Edge struct {
	A, B string // model names
	// Want is the claimed relation: "⊊" (A strictly stronger than B) or
	// "incomparable".
	Want string
	// MinNodes is the smallest universe (node bound) at which the full
	// relation manifests. Below it, a "⊊" claim degrades to "⊆" (the
	// inclusion must still hold; strictness witnesses are too big) and
	// an incomparability claim is unfalsifiable.
	MinNodes int
	// MinLocs is the smallest number of locations at which the full
	// relation manifests. Below it the claim degrades the same way as
	// below MinNodes. With no location every model holds the same pairs,
	// so every edge needs at least one; SC/LC alone keeps 0, because the
	// lattice check decides it on a two-location auxiliary universe
	// whenever the swept one has fewer.
	MinLocs int
}

// edgeOK classifies r against e's claim over a universe of maxNodes
// nodes and numLocs locations: at or above the edge's witness size the
// classification must match Want exactly; below it, "⊊" degrades to
// the inclusion half (A∖B must still be empty) and an incomparability
// claim is unfalsifiable.
func edgeOK(e Edge, r enum.Relation, maxNodes, numLocs int) (got string, ok bool) {
	got = classify(r)
	ok = got == e.Want
	if maxNodes < e.MinNodes || numLocs < e.MinLocs {
		switch e.Want {
		case "⊊":
			ok = r.AOnly == 0
		case "incomparable":
			ok = true
		}
	}
	return got, ok
}

// Figure1Edges returns the relations Figure 1 asserts. The LC/NN
// strictness and the NW/WN incomparability both need computations with
// ≥4 nodes (the Figure 4 crossing and the Figure 2 anomaly).
func Figure1Edges() []Edge {
	return []Edge{
		{A: "SC", B: "LC", Want: "⊊", MinNodes: 2},
		{A: "LC", B: "NN", Want: "⊊", MinNodes: 4, MinLocs: 1},
		{A: "NN", B: "NW", Want: "⊊", MinNodes: 3, MinLocs: 1},
		{A: "NN", B: "WN", Want: "⊊", MinNodes: 3, MinLocs: 1},
		{A: "NW", B: "WW", Want: "⊊", MinNodes: 3, MinLocs: 1},
		{A: "WN", B: "WW", Want: "⊊", MinNodes: 4, MinLocs: 1},
		{A: "NW", B: "WN", Want: "incomparable", MinNodes: 4, MinLocs: 1},
	}
}

// ExtendedEdges returns the machine-checked relations between the
// hardware/language models (TSO, RA, CAUSAL) and the paper's lattice.
// Every MinNodes/MinLocs bound below is the exact witness size found
// by exhaustive sweeps; the two MinNodes: 5 entries are the cautionary
// tale of DESIGN.md §16 — TSO ⊆ CAUSAL and RA ⊆ CAUSAL hold
// exhaustively over every computation with ≤4 nodes and first break at
// 5 (witnesses in testdata/litmus, machine-checked by cmd/lattice), so
// a default -n 4 sweep checks only the surviving inclusion half.
func ExtendedEdges() []Edge {
	return []Edge{
		{A: "SC", B: "TSO", Want: "⊊", MinNodes: 4, MinLocs: 1},
		{A: "SC", B: "RA", Want: "⊊", MinNodes: 4, MinLocs: 2},
		{A: "SC", B: "CAUSAL", Want: "⊊", MinNodes: 4, MinLocs: 1},
		{A: "RA", B: "LC", Want: "⊊", MinNodes: 4, MinLocs: 2},
		{A: "TSO", B: "RA", Want: "incomparable", MinNodes: 4, MinLocs: 2},
		{A: "TSO", B: "CAUSAL", Want: "incomparable", MinNodes: 5, MinLocs: 2},
		{A: "TSO", B: "LC", Want: "incomparable", MinNodes: 4, MinLocs: 2},
		{A: "RA", B: "CAUSAL", Want: "incomparable", MinNodes: 5, MinLocs: 2},
		{A: "CAUSAL", B: "LC", Want: "incomparable", MinNodes: 4, MinLocs: 2},
	}
}

// LatticeEdges returns every claimed relation the lattice check
// verifies: Figure 1 followed by the extended edges.
func LatticeEdges() []Edge {
	return append(Figure1Edges(), ExtendedEdges()...)
}

// EdgeResult is the verdict for one lattice edge over a universe.
type EdgeResult struct {
	Edge     Edge
	Relation enum.Relation
	Got      string // classification of Relation
	OK       bool   // Got matches Edge.Want
}

// LatticeReport is the machine-checked Figure 1.
type LatticeReport struct {
	MaxNodes, NumLocs int
	Pairs             int // total pairs in the universe
	Edges             []EdgeResult
}

// classify names the relation from A's point of view.
func classify(r enum.Relation) string {
	switch {
	case r.Equal():
		return "="
	case r.StrictlyStronger():
		return "⊊"
	case r.Incomparable():
		return "incomparable"
	default:
		return "⊋"
	}
}

// sclcAuxMaxNodes caps the auxiliary two-location universe behind the
// SC/LC edge. The edge's strictness already manifests at 2 nodes (its
// MinNodes), and the auxiliary universe grows about 40× per added
// node: at 5 nodes it holds 26,210,791 representative pairs, 51× the
// 514,100 of the main n = 5 sweep. Past this size the auxiliary sweep
// would dwarf the main one while adding no information. Up to 4 nodes
// the edge covers its whole auxiliary universe.
const sclcAuxMaxNodes = 4

// RunLatticeReduced machine-checks every lattice edge (Figure 1 and the
// extended edges) over the universe of all computations with at most
// maxNodes nodes and numLocs locations. One fused sweep, sharded over
// workers (<= 0 means GOMAXPROCS), classifies every canonical
// representative pair into its membership pattern
// (memmodel.PatternDecider), and every edge's relation is derived from
// the orbit-weighted pattern census, so the counts are those of the
// whole ordered-node universe. The SC/LC edge needs numLocs ≥ 2 to be
// strict, matching the paper's remark that SC ⊋ LC "as long as there
// is more than one location"; below that it is decided on a
// two-location auxiliary universe of min(maxNodes, sclcAuxMaxNodes)
// nodes. rec (nil = off) receives a PhaseStart per sweep, and each
// sweep runs under its own run label.
func RunLatticeReduced(maxNodes, numLocs, workers int, rec obs.Recorder) LatticeReport {
	names := memmodel.ModelNames()
	bit := func(name string) int {
		for i, n := range names {
			if n == name {
				return i
			}
		}
		panic("expt: unknown model " + name)
	}
	edges := LatticeEdges()
	pes := make([]enum.PatternEdge, len(edges))
	for i, e := range edges {
		pes[i] = enum.PatternEdge{A: bit(e.A), B: bit(e.B)}
	}
	obs.Emit(rec, obs.Event{Kind: obs.PhaseStart, Str: "pattern sweep"})
	main, _ := enum.PatternSweepParallel(context.Background(), pes, maxNodes, numLocs, workers,
		obs.WithRun(rec, "lattice-reduced"))
	rep := LatticeReport{MaxNodes: maxNodes, NumLocs: numLocs, Pairs: int(main.Pairs)}
	for i, e := range edges {
		r := main.Edges[i]
		if e.A == "SC" && e.B == "LC" && numLocs < 2 {
			// The SC/LC edge is only strict with ≥2 locations (the paper's
			// remark); rerun just that edge on the auxiliary universe.
			aux := maxNodes
			if aux > sclcAuxMaxNodes {
				aux = sclcAuxMaxNodes
			}
			label := e.A + " vs " + e.B
			obs.Emit(rec, obs.Event{Kind: obs.PhaseStart, Str: label})
			side, _ := enum.PatternSweepParallel(context.Background(),
				[]enum.PatternEdge{{A: bit(e.A), B: bit(e.B)}}, aux, 2, workers,
				obs.WithRun(rec, label))
			r = side.Edges[0]
		}
		got, ok := edgeOK(e, r, maxNodes, numLocs)
		rep.Edges = append(rep.Edges, EdgeResult{Edge: e, Relation: r, Got: got, OK: ok})
	}
	return rep
}

// AllOK reports whether every edge matched Figure 1.
func (r LatticeReport) AllOK() bool {
	for _, e := range r.Edges {
		if !e.OK {
			return false
		}
	}
	return true
}

// String renders the report as the Figure 1 table.
func (r LatticeReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 1 lattice + TSO/RA/CAUSAL over all computations ≤%d nodes, %d location(s): %d pairs\n",
		r.MaxNodes, r.NumLocs, r.Pairs)
	fmt.Fprintf(&b, "%-6s %-14s %-6s  %-8s %-8s %-8s  %s\n", "A", "relation", "B", "|A∖B|", "|B∖A|", "|A∩B|", "verdict")
	for _, e := range r.Edges {
		verdict := "OK"
		if !e.OK {
			verdict = fmt.Sprintf("MISMATCH (want %s)", e.Edge.Want)
		}
		fmt.Fprintf(&b, "%-6s %-14s %-6s  %-8d %-8d %-8d  %s\n",
			e.Edge.A, e.Got, e.Edge.B, e.Relation.AOnly, e.Relation.BOnly, e.Relation.Both, verdict)
	}
	return b.String()
}

// StarReport is the result of a constructible-version fixpoint
// experiment for one base model.
type StarReport struct {
	Base              string
	MaxNodes, NumLocs int
	// BasePairs and StarPairs count pairs by computation size.
	BasePairs, StarPairs []int
	// LCEqualUpTo is the largest interior size s ≤ MaxNodes-1 such that
	// survivors(≤s) = LC(≤s); -1 if they differ already at size 0.
	LCEqualUpTo int
	// FirstMismatch describes the smallest survivor/LC disagreement in
	// the interior, if any.
	FirstMismatch string
	Star          *memmodel.PairSet
	// lcLost marks a first mismatch that is an LC pair outside the
	// survivors, and so outside Base*.
	lcLost bool
}

// lcBelow names the bases Δ known to contain LC: LC itself, and NN, NW,
// WN and WW (Theorem 22 and Figure 1). LC is constructible, so for them
// LC ⊆ Δ* ⊆ survivors, and survivors = LC proves Δ* = LC.
var lcBelow = map[string]bool{"LC": true, "NN": true, "NW": true, "WN": true, "WW": true}

// RunStar computes the constructible version of the named base model
// over the universe of computations with at most maxNodes nodes and
// compares it with LC on the interior. For base = NN this is the
// Theorem 23 experiment; for WN and NW it probes the open problems of
// Section 7. Only the interior (below maxNodes nodes) is materialized:
// the boundary is counted over canonical representatives weighted by
// orbit, so base must be isomorphism-invariant, as every registered
// model is. For a base that reads only writers (every registry row but
// TSO), one representative of each writer-signature group is decided,
// weighted by the group's summed orbit. The fixpoint and the LC
// comparison run on workers goroutines (<= 0 means GOMAXPROCS); the
// report does not depend on workers. rec (nil = off) receives one PhaseStart per stage: the
// fixpoint's three, then "LC comparison".
func RunStar(base memmodel.Model, maxNodes, numLocs, workers int, rec obs.Recorder) StarReport {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	interior := enum.AllComputations(maxNodes-1, numLocs)
	boundary := func(workers int, fn func(worker int, c *computation.Computation, orbit int64) bool) {
		if e, ok := base.(*memmodel.Entry); ok && e.ReadsOnlyWriters() {
			// A group's members share every verdict: count one, at
			// their summed orbit.
			enum.EachGroupReducedParallel(maxNodes, numLocs, workers, func(w int, g *enum.Group) bool {
				return fn(w, g.C, g.Weight())
			})
			return
		}
		enum.EachComputationReducedParallel(maxNodes, numLocs, workers, fn)
	}
	star := memmodel.ConstructibleFixpoint(base, interior, maxNodes, computation.AllOps(numLocs), workers, boundary, rec)

	rep := StarReport{
		Base:     base.Name(),
		MaxNodes: maxNodes,
		NumLocs:  numLocs,
		Star:     star,
	}
	rep.BasePairs, rep.StarPairs = star.SizeCounts()
	obs.Emit(rec, obs.Event{Kind: obs.PhaseStart, Str: "LC comparison"})
	rep.compareLC(interior, workers)
	return rep
}

// compareLC sets LCEqualUpTo and FirstMismatch by comparing r.Star with
// LC on interior, the slice the set was built from, which lists smaller
// computations first. Boundary pairs are never pruned, so only the
// interior is compared. The mismatch reported is the first in
// enumeration order, so at the smallest size: the one at the lowest
// interior index, then at the lowest rank. workers goroutines claim the
// computations in order, each deciding LC on its own PatternDecider
// (the enumerated observers are valid), and stop claiming past the
// lowest mismatch found so far.
func (r *StarReport) compareLC(interior []*computation.Computation, workers int) {
	var (
		next atomic.Int64
		best atomic.Int64 // the lowest interior index of a mismatch found so far
		mu   sync.Mutex   // held to replace the reported mismatch
		wg   sync.WaitGroup
	)
	best.Store(int64(len(interior)))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pd := memmodel.NewPatternDecider()
			for i := next.Add(1) - 1; i < best.Load(); i = next.Add(1) - 1 {
				c := interior[i]
				pd.Reset(c)
				rank := 0
				observer.Enumerate(c, func(o *observer.Observer) bool {
					inStar := r.Star.ContainsAt(int(i), rank)
					rank++
					if inStar == (pd.Masked(o, memmodel.PatternLC) != 0) {
						return true
					}
					mu.Lock()
					if i < best.Load() {
						best.Store(i)
						r.FirstMismatch = fmt.Sprintf("size %d: %v / %v (star=%v, LC=%v)",
							c.NumNodes(), c, o, inStar, !inStar)
						r.lcLost = !inStar
					}
					mu.Unlock()
					return false
				})
			}
		}()
	}
	wg.Wait()
	mismatchSize := r.MaxNodes + 1
	if b := best.Load(); b < int64(len(interior)) {
		mismatchSize = interior[b].NumNodes()
	}
	r.LCEqualUpTo = min(mismatchSize, r.MaxNodes) - 1
}

// OK reports whether the experiment confirmed the conjecture the star
// fixpoint probes: survivors = LC everywhere on the interior. CLIs map
// !OK to a nonzero exit so scripted sweeps can't mistake a mismatch
// table for success.
func (r StarReport) OK() bool { return r.FirstMismatch == "" }

// String renders the fixpoint report.
func (r StarReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s* over computations ≤%d nodes, %d location(s)\n", r.Base, r.MaxNodes, r.NumLocs)
	fmt.Fprintf(&b, "%-6s %-12s %-12s\n", "size", "|"+r.Base+"|", "|"+r.Base+"*|")
	for s := range r.BasePairs {
		fmt.Fprintf(&b, "%-6d %-12d %-12d\n", s, r.BasePairs[s], r.StarPairs[s])
	}
	base := r.Base
	switch {
	case r.FirstMismatch != "":
		fmt.Fprintf(&b, "survivors ≠ LC: first mismatch at %s\n", r.FirstMismatch)
		if r.lcLost {
			fmt.Fprintf(&b, "(an LC pair outside the survivors, which contain %s*, lies outside %s*: this PROVES %s* ≠ LC)\n", base, base, base)
		} else {
			fmt.Fprintf(&b, "(survivors over-approximate %s*, so a mismatch is inconclusive about %s* ≠ LC)\n", base, base)
		}
	case lcBelow[base]:
		fmt.Fprintf(&b, "survivors = LC on the interior (sizes ≤ %d): with LC ⊆ %s* ⊆ survivors, this PROVES %s* = LC for those sizes\n",
			r.LCEqualUpTo, base, base)
	default:
		fmt.Fprintf(&b, "survivors = LC on the interior (sizes ≤ %d): with %s* ⊆ survivors, %s* ⊆ LC for those sizes; without LC ⊆ %s this does not prove %s* = LC\n",
			r.LCEqualUpTo, base, base, base, base)
	}
	return b.String()
}

// PropertyReport summarizes universe-wide property checks for a model.
type PropertyReport struct {
	Model             string
	MaxNodes, NumLocs int
	Computations      int
	Pairs             int // pairs in the model
	Complete          bool
	Monotonic         bool
	// ConstructibleAug reports whether the Theorem 12 criterion held at
	// every pair of the model in the universe: each augmentation (one
	// node larger than the pair, possibly exceeding MaxNodes) admits an
	// extending observer in the model.
	ConstructibleAug bool
	FirstFailure     string
}

// RunProperties machine-checks completeness, monotonicity, and the
// Theorem 12 augmentation criterion for m over the universe. It checks
// canonical representatives only and scales the counts by orbit, so m
// must be isomorphism-invariant, as every registered model is. Every
// checked property is then isomorphism-invariant too, and FirstFailure
// is the one of the first failing computation in enumeration order,
// since that computation is canonical (its representative fails too
// and precedes it).
func RunProperties(m memmodel.Model, maxNodes, numLocs int) PropertyReport {
	rep := PropertyReport{
		Model: m.Name(), MaxNodes: maxNodes, NumLocs: numLocs,
		Complete: true, Monotonic: true, ConstructibleAug: true,
	}
	ops := computation.AllOps(numLocs)
	enum.EachComputationReducedUpTo(maxNodes, numLocs, func(c *computation.Computation, orbit int64) bool {
		rep.Computations += int(orbit)
		if rep.Complete && !memmodel.HasObserver(m, c) {
			rep.Complete = false
			if rep.FirstFailure == "" {
				rep.FirstFailure = fmt.Sprintf("incomplete at %v", c)
			}
		}
		observer.Enumerate(c, func(o *observer.Observer) bool {
			if !m.Contains(c, o) {
				return true
			}
			rep.Pairs += int(orbit)
			if rep.Monotonic && !memmodel.MonotonicAt(m, c, o) {
				rep.Monotonic = false
				if rep.FirstFailure == "" {
					rep.FirstFailure = fmt.Sprintf("non-monotonic at %v / %v", c, o)
				}
			}
			if rep.ConstructibleAug {
				if op, ok := memmodel.ConstructibleAtAug(m, c, o.Clone(), ops); !ok {
					rep.ConstructibleAug = false
					if rep.FirstFailure == "" {
						rep.FirstFailure = fmt.Sprintf("aug by %s fails at %v / %v", op, c, o)
					}
				}
			}
			return true
		})
		return true
	})
	return rep
}

// OK reports whether every checked property held over the universe.
// Like StarReport.OK, this is the CLI exit-status hook.
func (r PropertyReport) OK() bool { return r.Complete && r.Monotonic && r.ConstructibleAug }

// String renders the property report as one line per property.
func (r PropertyReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s over ≤%d nodes, %d location(s): %d computations, %d pairs\n",
		r.Model, r.MaxNodes, r.NumLocs, r.Computations, r.Pairs)
	fmt.Fprintf(&b, "  complete:            %v\n", r.Complete)
	fmt.Fprintf(&b, "  monotonic:           %v\n", r.Monotonic)
	fmt.Fprintf(&b, "  constructible (aug): %v\n", r.ConstructibleAug)
	if r.FirstFailure != "" {
		fmt.Fprintf(&b, "  first failure:       %s\n", r.FirstFailure)
	}
	return b.String()
}

// Trap is a witness of non-constructibility: a model pair that cannot
// be extended across the augmentation by Op. Revealing the pair's
// computation and then Op is an adversary strategy (Section 3) that
// defeats every online algorithm for the model, since the algorithm
// may end up having produced exactly this observer.
type Trap struct {
	Pair memmodel.Pair
	Op   computation.Op
}

// FindTrap searches the universe for the smallest non-constructibility
// witness of the model, or reports that none exists up to the bound
// (the model passed the Theorem 12 criterion everywhere). For NN it
// rediscovers Figure 4 automatically.
func FindTrap(m memmodel.Model, maxNodes, numLocs int) (Trap, bool) {
	ops := computation.AllOps(numLocs)
	var trap Trap
	found := false
	for n := 0; n <= maxNodes && !found; n++ {
		enum.EachComputation(n, numLocs, func(c *computation.Computation) bool {
			observer.Enumerate(c, func(o *observer.Observer) bool {
				if !m.Contains(c, o) {
					return true
				}
				if op, ok := memmodel.ConstructibleAtAug(m, c, o.Clone(), ops); !ok {
					trap = Trap{Pair: memmodel.Pair{C: c, O: o.Clone()}, Op: op}
					found = true
					return false
				}
				return true
			})
			return !found
		})
	}
	return trap, found
}

// MembershipCensus counts, for every registered model, the pairs it
// contains in the universe, as a quick overview table. One fused
// pattern sweep over canonical representatives, sharded over workers
// (<= 0 means GOMAXPROCS), yields every model's count from the
// orbit-weighted pattern census; it reports progress and symmetry
// gauges to rec under the run label "census". err is ctx's error when
// the sweep was cut short, and the table is then empty.
func MembershipCensus(ctx context.Context, maxNodes, numLocs, workers int, rec obs.Recorder) (string, error) {
	models := memmodel.PatternModels()
	sweep, err := enum.PatternSweepParallel(ctx, nil, maxNodes, numLocs, workers, obs.WithRun(rec, "census"))
	if err != nil {
		return "", err
	}
	counts := make([]int, len(models))
	for p, n := range sweep.Counts {
		for i := range models {
			if p&(1<<uint(i)) != 0 {
				counts[i] += int(n)
			}
		}
	}
	return censusTable(models, counts, int(sweep.Pairs), maxNodes, numLocs), nil
}

func censusTable(models []memmodel.Model, counts []int, total, maxNodes, numLocs int) string {
	type row struct {
		name  string
		count int
	}
	rows := make([]row, len(models))
	for i, m := range models {
		rows[i] = row{m.Name(), counts[i]}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].count < rows[j].count })
	var b strings.Builder
	fmt.Fprintf(&b, "membership census over ≤%d nodes, %d location(s): %d pairs total\n", maxNodes, numLocs, total)
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-4s %8d\n", r.name, r.count)
	}
	return b.String()
}
