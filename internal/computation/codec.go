package computation

import (
	"fmt"
	"io"
	"slices"
	"strings"
	"unicode/utf8"

	"repro/internal/dag"
)

// This file implements a small line-oriented text format for
// computations, so the cmd/ tools can exchange the paper's objects as
// files; the pair (observer), trace and schedule (sched) formats extend
// it through ParseWith:
//
//	# Figure 2 of the paper
//	locs x
//	node A W(x)
//	node B W(x)
//	node C R(x)
//	node D R(x)
//	edge A B
//	edge B C
//	edge C D
//
// Node and location names are arbitrary identifiers; ops are N, R(loc),
// or W(loc), spelled by ParseOp and AppendOp alone. Nodes are numbered
// in order of declaration; locations in order of appearance on the locs
// line.

// Named is a Computation together with the symbol tables used by the
// text format.
type Named struct {
	Comp     *Computation
	NodeName []string // node id -> name
	NodeID   map[string]dag.Node
	LocName  []string // loc id -> name
	LocID    map[string]Loc
}

// NewNamed returns an empty named computation with the given location
// names (which fix NumLocs).
func NewNamed(locNames ...string) *Named {
	n := &Named{
		Comp:    New(len(locNames)),
		NodeID:  make(map[string]dag.Node),
		LocID:   make(map[string]Loc),
		LocName: append([]string(nil), locNames...),
	}
	for i, name := range locNames {
		if _, dup := n.LocID[name]; dup {
			panic(fmt.Sprintf("computation: duplicate location name %q", name))
		}
		n.LocID[name] = Loc(i)
	}
	return n
}

// AddNode appends a named node.
func (n *Named) AddNode(name string, op Op) dag.Node {
	if _, dup := n.NodeID[name]; dup {
		panic(fmt.Sprintf("computation: duplicate node name %q", name))
	}
	u := n.Comp.AddNode(op)
	n.NodeName = append(n.NodeName, name)
	n.NodeID[name] = u
	return u
}

// AddEdge inserts an edge between named nodes.
func (n *Named) AddEdge(from, to string) error {
	u, ok := n.NodeID[from]
	if !ok {
		return fmt.Errorf("computation: unknown node %q", from)
	}
	v, ok := n.NodeID[to]
	if !ok {
		return fmt.Errorf("computation: unknown node %q", to)
	}
	return n.Comp.AddEdge(u, v)
}

// ParseOp parses an op as the text formats spell it, "N", "R(loc)" or
// "W(loc)", against the location table.
func (n *Named) ParseOp(s string) (Op, error) {
	if s == "N" {
		return N, nil
	}
	if len(s) < 4 || s[len(s)-1] != ')' || s[1] != '(' {
		return Op{}, fmt.Errorf("computation: malformed op %q", s)
	}
	locName := s[2 : len(s)-1]
	l, ok := n.LocID[locName]
	if !ok {
		return Op{}, fmt.Errorf("computation: unknown location %q", locName)
	}
	switch s[0] {
	case 'R':
		return R(l), nil
	case 'W':
		return W(l), nil
	default:
		return Op{}, fmt.Errorf("computation: unknown op kind %q", s[0])
	}
}

// AppendOp appends the spelling of op that ParseOp reads to b.
func (n *Named) AppendOp(b []byte, op Op) []byte {
	if op.Kind == Noop {
		return append(b, 'N')
	}
	return append(append(append(append(b, op.Kind.String()...), '('), n.LocName[op.Loc]...), ')')
}

// Parse reads the text format from r and parses it as ParseString
// does.
func Parse(r io.Reader) (*Named, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return ParseString(string(b))
}

// ParseString parses the text format. Malformed input of any shape
// returns an error, never a panic: the parser is an input boundary
// (files, stdin, fuzzers), so the panicking constructors used by
// programmatic builders are guarded here — explicitly for the known
// cases, and by a recover fence for anything a hostile file finds that
// we didn't.
func ParseString(s string) (*Named, error) {
	return ParseWith(s, nil)
}

// ParseWith is ParseString for a text that also carries lines of
// another format. The text is walked once. Every line that is neither
// blank nor a whole-line '#' comment goes first to other, with its
// 1-based number, the offset of its first byte in s and its fields;
// other returns the fields the computation parses, none for a line of
// its own format, or an error, which is ParseWith's. A nil other hands
// every line to the computation. other must not retain fields, which
// are split into a slice reused from line to line (strings.Fields takes
// the rare line with a non-ASCII byte, so Unicode spaces separate
// fields there as they always have). Node and edge lines apply as they
// come, so a line error is the first in line order, and the closure's
// topological sort is the cycle check.
func ParseWith(s string, other func(line, offset int, fields []string) ([]string, error)) (named *Named, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			named, err = nil, fmt.Errorf("computation: invalid input: %v", rec)
		}
	}()
	// The line count bounds the node tables; sizing them from it spares
	// their regrowth. A pair's text has about three edge and observe
	// lines per node, so the tables start at a quarter of it, and never
	// above maxHint/4, so blank lines cannot make a small text allocate
	// much; larger tables grow with what they hold.
	const maxHint = 256
	nodes := min(strings.Count(s, "\n")+1, maxHint)/4 + 1
	buf := make([]string, 0, 8)
	for pos, lineNo := 0, 1; pos < len(s); lineNo++ {
		start := pos
		line, _, _ := strings.Cut(s[pos:], "\n")
		pos += len(line) + 1
		buf = AppendFields(buf[:0], line)
		if len(buf) == 0 || buf[0][0] == '#' {
			continue
		}
		fields := buf
		if other != nil {
			if fields, err = other(lineNo, start, fields); err != nil {
				return nil, err
			}
			if len(fields) == 0 {
				continue
			}
		}
		switch fields[0] {
		case "locs":
			if named != nil {
				return nil, fmt.Errorf("line %d: duplicate locs directive", lineNo)
			}
			named = newParsedNamed(fields[1:], nodes)
			for i, name := range named.LocName {
				if _, dup := named.LocID[name]; dup {
					return nil, fmt.Errorf("line %d: duplicate location name %q", lineNo, name)
				}
				named.LocID[name] = Loc(i)
			}
		case "node":
			if named == nil {
				named = newParsedNamed(nil, nodes)
			}
			if len(fields) != 3 {
				return nil, fmt.Errorf("line %d: want `node NAME OP`", lineNo)
			}
			// One map write both claims the name and finds a duplicate.
			before := len(named.NodeID)
			if named.NodeID[fields[1]] = dag.Node(named.Comp.NumNodes()); len(named.NodeID) == before {
				return nil, fmt.Errorf("line %d: duplicate node %q", lineNo, fields[1])
			}
			op, err := named.ParseOp(fields[2])
			if err != nil {
				return nil, fmt.Errorf("line %d: %v", lineNo, err)
			}
			named.NodeName = append(named.NodeName, fields[1])
			named.Comp.AddNode(op)
		case "edge":
			if named == nil || len(fields) != 3 {
				return nil, fmt.Errorf("line %d: want `edge FROM TO`", lineNo)
			}
			if err := named.AddEdge(fields[1], fields[2]); err != nil {
				return nil, fmt.Errorf("line %d: %v", lineNo, err)
			}
		default:
			return nil, fmt.Errorf("line %d: unknown directive %q", lineNo, fields[0])
		}
	}
	if named == nil {
		named = NewNamed()
	}
	// The closure's topological sort is the cycle check Validate runs.
	c := named.Comp
	if c.closure, err = dag.NewClosure(c.g); err != nil {
		return nil, err
	}
	return named, nil
}

// newParsedNamed returns the empty computation of a parse and its
// symbol tables, with room for the given number of nodes; the caller
// fills LocID.
func newParsedNamed(locNames []string, nodes int) *Named {
	return &Named{
		Comp:     New(len(locNames)),
		NodeName: make([]string, 0, nodes),
		NodeID:   make(map[string]dag.Node, nodes),
		LocName:  append([]string(nil), locNames...),
		LocID:    make(map[string]Loc, len(locNames)),
	}
}

// asciiSpace marks the bytes strings.TrimSpace and strings.Fields treat
// as space in ASCII text.
var asciiSpace = [256]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// AppendFields appends the fields of line, as strings.Fields splits it,
// to fields: the split every line of the text format gets. An ASCII
// line is split in place; a line with any other byte goes to
// strings.Fields.
func AppendFields(fields []string, line string) []string {
	n, start := len(fields), -1
	for i := 0; i < len(line); i++ {
		switch b := line[i]; {
		case b >= utf8.RuneSelf:
			return append(fields[:n], strings.Fields(line)...)
		case asciiSpace[b]:
			if start >= 0 {
				fields, start = append(fields, line[start:i]), -1
			}
		case start < 0:
			start = i
		}
	}
	if start >= 0 {
		fields = append(fields, line[start:])
	}
	return fields
}

// Format writes the computation in the text format accepted by Parse.
func (n *Named) Format(w io.Writer) error {
	_, err := w.Write(n.AppendText(nil))
	return err
}

// AppendText appends the text Format writes to b: the locs line, the
// nodes in id order and the edges in lexicographic order.
func (n *Named) AppendText(b []byte) []byte {
	if len(n.LocName) > 0 {
		b = append(b, "locs"...)
		for _, name := range n.LocName {
			b = append(append(b, ' '), name...)
		}
		b = append(b, '\n')
	}
	for u, name := range n.NodeName {
		b = append(append(append(b, "node "...), name...), ' ')
		b = append(n.AppendOp(b, n.Comp.Op(dag.Node(u))), '\n')
	}
	var buf [32]dag.Node
	g := n.Comp.Dag()
	for u := 0; u < g.NumNodes(); u++ {
		succs := append(buf[:0], g.Succs(dag.Node(u))...)
		slices.Sort(succs)
		for _, v := range succs {
			b = append(append(append(append(b, "edge "...), n.NodeName[u]...), ' '), n.NodeName[v]...)
			b = append(b, '\n')
		}
	}
	return b
}

// FormatString renders the computation via Format.
func (n *Named) FormatString() string {
	var b strings.Builder
	if err := n.Format(&b); err != nil {
		panic(err) // strings.Builder never errors
	}
	return b.String()
}
