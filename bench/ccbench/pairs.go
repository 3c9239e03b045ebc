package main

import (
	"encoding/json"
	"hash/fnv"
	"io"
	"math/rand"
	"strconv"
	"strings"

	"repro/internal/computation"
	"repro/internal/dag"
	"repro/internal/memmodel"
	"repro/internal/observer"
)

// The miss workloads' inputs: seeded random (computation, observer)
// pairs in three equal families, each built so that its verdicts are
// known without running a decider.
//
//   - lastwriter: Φ is the last-writer function of a random topological
//     sort, so the pair is SC (Theorem 16 / Definition 17) and therefore
//     in every model.
//   - stale: a last-writer pair with one read w of location l re-pointed
//     to a write u with u ≺ v ≺ w, where v also writes l. The triple
//     violates Condition 20.1 even under WW's predicate, so the pair is
//     outside SC, LC, NN, NW, WN and WW.
//   - perturbed: a last-writer pair whose non-write entries are each
//     re-pointed, with probability 0.15, to another legal candidate. Its
//     verdicts are unknown, but they must respect the lattice inclusions.

const (
	familyLastWriter uint8 = iota
	familyStale
	familyPerturbed
	numFamilies
)

var familyNames = [numFamilies]string{"lastwriter", "stale", "perturbed"}

const (
	minNodes       = 12
	maxNodes       = 24
	numLocs        = 2
	edgeProb       = 0.25
	perturbProb    = 0.15
	warmupSeedSalt = 0x5eed_3a11_7f0d_c0de // separates the warm-up stream from the timed one
)

var locNames = [numLocs]string{"x", "y"}

// pairSet holds generated pairs back to back in one pointer-free buffer,
// so the load generator's garbage collector has nothing to scan while it
// is being timed. Each pair is stored once, as the JSON string literal of
// its canonical text (observer.FormatPair); a request body is that
// literal framed as /v1/check or /v1/batch wants it (appendCheckBody,
// appendBatchBody). A batch body repeats the pair once per model, so
// storing whole batch bodies would take about 10 KiB per pair.
type pairSet struct {
	buf    []byte   // JSON string literals of the pair texts, concatenated
	ends   []uint32 // ends[i] is the end offset of pair i in buf
	family []uint8  // family[i] is pair i's family
	roots  []int32  // roots[i] is the size of pair i's SC root frontier (batch sets only)
}

func (p *pairSet) len() int { return len(p.ends) }

// lit returns pair i's JSON string literal.
func (p *pairSet) lit(i int) []byte {
	start := uint32(0)
	if i > 0 {
		start = p.ends[i-1]
	}
	return p.buf[start:p.ends[i]]
}

// genPairs returns the warm-up set and the timed set for seed. The two
// come from disjoint streams and share no pair. With roots, each pair
// also gets the size of its SC root frontier, which a batch body names.
func genPairs(seed int64, warmup, timed int, roots bool) (warm, main *pairSet) {
	seen := make(map[uint64]struct{}, warmup+timed)
	warm = newPairGen(seed^warmupSeedSalt, seen).fill(warmup, roots)
	main = newPairGen(seed, seen).fill(timed, roots)
	return warm, main
}

// pairGen draws pairs from one seeded stream and refuses any pair whose
// text it (or a generator sharing its seen set) has produced before, so
// every pair is a distinct cache key.
type pairGen struct {
	rng  *rand.Rand
	seen map[uint64]struct{}
}

func newPairGen(seed int64, seen map[uint64]struct{}) *pairGen {
	return &pairGen{rng: rand.New(rand.NewSource(seed)), seen: seen}
}

// litSizeHint is a little above the mean literal size, so fill rarely
// regrows its buffer.
const litSizeHint = 1300

// fill generates n pairs, cycling through the families.
func (g *pairGen) fill(n int, roots bool) *pairSet {
	ps := &pairSet{
		buf:    make([]byte, 0, n*litSizeHint),
		ends:   make([]uint32, 0, n),
		family: make([]uint8, 0, n),
	}
	var text strings.Builder
	for i := 0; i < n; i++ {
		fam := uint8(i % int(numFamilies))
		for {
			named, _, o := g.pair(fam)
			text.Reset()
			if err := observer.FormatPair(&text, named, o); err != nil {
				panic(err) // strings.Builder never errors
			}
			h := fnv.New64a()
			io.WriteString(h, text.String())
			sum := h.Sum64()
			if _, dup := g.seen[sum]; dup {
				continue
			}
			g.seen[sum] = struct{}{}
			lit, err := json.Marshal(text.String())
			if err != nil {
				panic(err) // a string always marshals
			}
			ps.buf = append(ps.buf, lit...)
			ps.ends = append(ps.ends, uint32(len(ps.buf)))
			ps.family = append(ps.family, fam)
			if roots {
				total, _ := memmodel.SCShardPlan(named.Comp, o)
				ps.roots = append(ps.roots, int32(total))
			}
			break
		}
	}
	return ps
}

// pair draws one pair of family fam, with the topological sort its
// observer starts from.
func (g *pairGen) pair(fam uint8) (*computation.Named, []dag.Node, *observer.Observer) {
	for {
		named := g.computation()
		c := named.Comp
		order := g.topoSort(c.Dag())
		o := observer.FromLastWriter(c, order)
		switch fam {
		case familyStale:
			t, ok := g.staleTriple(c)
			if !ok {
				continue // no write-write-read chain on one location; redraw
			}
			o.Set(t.loc, t.w, t.u)
		case familyPerturbed:
			g.perturb(c, o)
		}
		return named, order, o
	}
}

// computation draws a dag.Random dag with 12–24 nodes n0, n1, … over
// locations x and y, each node labelled uniformly from N, R(x), W(x),
// R(y), W(y).
func (g *pairGen) computation() *computation.Named {
	n := minNodes + g.rng.Intn(maxNodes-minNodes+1)
	d := dag.Random(g.rng, n, edgeProb)
	all := computation.AllOps(numLocs)
	named := computation.NewNamed(locNames[:]...)
	for u := 0; u < n; u++ {
		named.AddNode("n"+strconv.Itoa(u), all[g.rng.Intn(len(all))])
	}
	for _, e := range d.Edges() {
		named.Comp.MustAddEdge(e[0], e[1])
	}
	return named
}

// topoSort draws a random topological sort: Kahn's algorithm with a
// uniformly random choice among the ready nodes.
func (g *pairGen) topoSort(d *dag.Dag) []dag.Node {
	n := d.NumNodes()
	indeg := make([]int, n)
	var ready []dag.Node
	for u := 0; u < n; u++ {
		indeg[u] = len(d.Preds(dag.Node(u)))
		if indeg[u] == 0 {
			ready = append(ready, dag.Node(u))
		}
	}
	order := make([]dag.Node, 0, n)
	for len(ready) > 0 {
		i := g.rng.Intn(len(ready))
		u := ready[i]
		ready[i] = ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		order = append(order, u)
		for _, v := range d.Succs(u) {
			indeg[v]--
			if indeg[v] == 0 {
				ready = append(ready, v)
			}
		}
	}
	return order
}

// triple is a stale-read site: writes u ≺ v to loc and a read w of loc
// with v ≺ w.
type triple struct {
	loc     computation.Loc
	u, v, w dag.Node
}

// staleTriple picks one stale-read site of c uniformly, if any exists.
func (g *pairGen) staleTriple(c *computation.Computation) (triple, bool) {
	cl := c.Closure()
	var sites []triple
	for l := computation.Loc(0); int(l) < c.NumLocs(); l++ {
		writers := c.Writers(l)
		for _, w := range c.Readers(l) {
			for _, v := range writers {
				if !cl.Precedes(v, w) {
					continue
				}
				for _, u := range writers {
					if cl.Precedes(u, v) {
						sites = append(sites, triple{loc: l, u: u, v: v, w: w})
					}
				}
			}
		}
	}
	if len(sites) == 0 {
		return triple{}, false
	}
	return sites[g.rng.Intn(len(sites))], true
}

// perturb re-points each non-write entry of o, with probability
// perturbProb, to a different legal candidate: ⊥ or a write to the
// location that the node does not precede (conditions 2.1–2.3).
func (g *pairGen) perturb(c *computation.Computation, o *observer.Observer) {
	cl := c.Closure()
	var others []dag.Node
	for l := computation.Loc(0); int(l) < c.NumLocs(); l++ {
		writers := c.Writers(l)
		for u := dag.Node(0); int(u) < c.NumNodes(); u++ {
			if c.Op(u).IsWriteTo(l) || g.rng.Float64() >= perturbProb {
				continue
			}
			cur := o.Get(l, u)
			others = others[:0]
			if cur != observer.Bottom {
				others = append(others, observer.Bottom)
			}
			for _, w := range writers {
				if w != cur && !cl.Precedes(u, w) {
					others = append(others, w)
				}
			}
			if len(others) > 0 {
				o.Set(l, u, others[g.rng.Intn(len(others))])
			}
		}
	}
}

// The request bodies are framed by hand around the stored literals, so a
// body costs the load generator a copy, not an encoding; the tests pin
// both framings to json.Marshal and to the bytes internal/fleet sends.

// appendCheckBody appends pair i's POST /v1/check body: the
// serve.CheckRequest with the pair and empty options, every model asked.
func (p *pairSet) appendCheckBody(dst []byte, i int) []byte {
	dst = append(dst, `{"pair":`...)
	dst = append(dst, p.lit(i)...)
	return append(dst, `,"options":{}}`...)
}

// appendBatchBody appends pair i's POST /v1/batch body as internal/fleet's
// coordinator sends it to a fleet of one replica under fleetctl's default
// flags: one item per model in ModelNames order, the SC question as a
// single shard over the whole root frontier (sent as the full-range 0,0
// form, with the shard's ID naming the frontier's size), empty options.
func (p *pairSet) appendBatchBody(dst []byte, i int) []byte {
	dst = append(dst, `{"items":[`...)
	for k, m := range models {
		if k > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"id":"`...)
		if m == "SC" {
			dst = append(dst, "SC:0:0-"...)
			dst = strconv.AppendInt(dst, int64(p.roots[i]), 10)
		} else {
			dst = append(dst, m...)
		}
		dst = append(dst, `","pair":`...)
		dst = append(dst, p.lit(i)...)
		dst = append(dst, `,"model":"`...)
		dst = append(dst, m...)
		dst = append(dst, `"}`...)
	}
	return append(dst, `],"options":{}}`...)
}
