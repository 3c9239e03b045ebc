// Package memory implements online shared-memory algorithms: systems
// that are revealed a computation one node at a time — the adversary of
// Section 3 of the paper — and must fix each node's observer values
// immediately and irrevocably.
//
// An online memory implements a model Δ when every (revealed prefix,
// produced observer) pair lies in Δ. Constructibility (Definition 6) is
// exactly the property that makes the obvious greedy algorithm total:
// if Δ is constructible, any in-model choice leaves an in-model
// extension for every future reveal, so the greedy Universal memory
// never gets stuck; if Δ is not constructible the adversary can drive
// it into a member pair with no extension — operationally, the memory
// deadlocks. The tests stage exactly that: Universal(SC), Universal(LC)
// and Universal(WW) run forever, while Universal(NN) is driven stuck by
// the Figure 4 computation, and any online algorithm for NN must
// instead maintain the stronger model NN*, which Theorem 23 equates
// with LC. cmd/lattice -star NN proves that equality for computations
// of at most 4 nodes, under the literal reading of Definition 6 (every
// pair extends to every extension of its computation).
package memory

import (
	"errors"
	"fmt"

	"repro/internal/computation"
	"repro/internal/dag"
	"repro/internal/memmodel"
	"repro/internal/observer"
)

// ErrStuck is returned when an online memory cannot assign observer
// values to the newly revealed node without leaving its model.
var ErrStuck = errors.New("memory: no valid observer extension (model not constructible here)")

// Memory is an online shared-memory algorithm. Implementations must
// return, for each revealed node, the write observed at every location
// (a full observer row), never revising earlier rows.
type Memory interface {
	// Name identifies the algorithm.
	Name() string
	// Reset prepares for a new computation over numLocs locations.
	Reset(numLocs int)
	// Step reveals the next node (ids are assigned densely in reveal
	// order) with its instruction and predecessors, and returns the
	// observer row: row[l] is the write observed at location l.
	Step(op computation.Op, preds []dag.Node) ([]dag.Node, error)
}

// Run reveals the computation to the memory in the given order (which
// must be a topological sort) and assembles the resulting observer
// function. Node ids are translated so that the returned observer is
// directly comparable against c. Returns ErrStuck (wrapped) if the
// memory deadlocks.
func Run(m Memory, c *computation.Computation, order []dag.Node) (*observer.Observer, error) {
	if !c.Dag().IsTopoSort(order) {
		return nil, fmt.Errorf("memory: reveal order %v is not a topological sort", order)
	}
	m.Reset(c.NumLocs())
	revealPos := make([]int, c.NumNodes()) // original id -> reveal index
	revealed := make([]dag.Node, 0, c.NumNodes())
	o := observer.New(c)
	for i, u := range order {
		revealPos[u] = i
		var preds []dag.Node
		for _, p := range c.Dag().Preds(u) {
			preds = append(preds, dag.Node(revealPos[p]))
		}
		row, err := m.Step(c.Op(u), preds)
		if err != nil {
			return nil, fmt.Errorf("memory %s: node %d (%s): %w", m.Name(), u, c.Op(u), err)
		}
		if len(row) != c.NumLocs() {
			return nil, fmt.Errorf("memory %s: row has %d entries for %d locations", m.Name(), len(row), c.NumLocs())
		}
		revealed = append(revealed, u) // a row may reference the node itself
		for l := computation.Loc(0); int(l) < c.NumLocs(); l++ {
			v := row[l]
			if v == observer.Bottom {
				o.Set(l, u, observer.Bottom)
				continue
			}
			if int(v) >= len(revealed) {
				return nil, fmt.Errorf("memory %s: row points at unrevealed node %d", m.Name(), v)
			}
			o.Set(l, u, revealed[v])
		}
	}
	return o, nil
}

// Serial is the textbook sequentially consistent memory: one global
// serialization — the reveal order itself — with every node observing
// the latest write so far at each location. It implements SC: its
// observer is the last-writer function of the reveal order.
type Serial struct {
	last []dag.Node
	next dag.Node
}

// NewSerial returns a Serial memory.
func NewSerial() *Serial { return &Serial{} }

// Name implements Memory.
func (s *Serial) Name() string { return "serial" }

// Reset implements Memory.
func (s *Serial) Reset(numLocs int) {
	s.last = make([]dag.Node, numLocs)
	for l := range s.last {
		s.last[l] = observer.Bottom
	}
	s.next = 0
}

// Step implements Memory.
func (s *Serial) Step(op computation.Op, _ []dag.Node) ([]dag.Node, error) {
	u := s.next
	s.next++
	if op.Kind == computation.Write {
		s.last[op.Loc] = u
	}
	row := make([]dag.Node, len(s.last))
	copy(row, s.last)
	return row, nil
}

// Universal is the generic greedy online algorithm for an arbitrary
// model: it maintains the revealed computation and the observer built
// so far, and assigns the newly revealed node the first observer row
// that keeps the pair inside the model. By the theory of Section 3 it
// never gets stuck iff every reachable pair can be extended — in
// particular it is total for constructible models and can deadlock for
// non-constructible ones.
//
// Universal re-decides model membership on every step, so it is an
// executable specification rather than an efficient memory.
type Universal struct {
	model memmodel.Model
	comp  *computation.Computation
	obs   *observer.Observer
}

// NewUniversal returns the greedy online algorithm for the model.
func NewUniversal(m memmodel.Model) *Universal { return &Universal{model: m} }

// Name implements Memory.
func (g *Universal) Name() string { return "universal(" + g.model.Name() + ")" }

// Reset implements Memory.
func (g *Universal) Reset(numLocs int) {
	g.comp = computation.New(numLocs)
	g.obs = observer.New(g.comp)
}

// Step implements Memory.
func (g *Universal) Step(op computation.Op, preds []dag.Node) ([]dag.Node, error) {
	ext, u := g.comp.Extend(op, preds)
	next := memmodel.ExtendObserver(g.model, g.comp, g.obs, ext)
	if next == nil {
		return nil, ErrStuck
	}
	row := make([]dag.Node, ext.NumLocs())
	for l := range row {
		row[l] = next.Get(computation.Loc(l), u)
	}
	g.comp = ext
	g.obs = next
	return row, nil
}

// Pair returns the revealed computation and observer built so far, for
// inspection in tests.
func (g *Universal) Pair() (*computation.Computation, *observer.Observer) {
	return g.comp, g.obs
}
