package trace

import (
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"

	"repro/internal/computation"
	"repro/internal/dag"
)

// This file implements a text format for executed traces, extending the
// computation format with values, so post-mortem verification can be
// driven from files (cmd/verify):
//
//	locs x y
//	node A W(x) = 1
//	# B's read returned Undefined
//	node B R(y) = ?
//	node C R(x) = 1
//	edge A B
//	edge B C
//
// Writes carry the stored value after "="; reads carry the returned
// value, with "?" (or "⊥") for Undefined. No-ops carry no value. As in
// the computation format, a comment is a whole line whose first field
// starts with '#'.

// NamedTrace couples a trace with the symbol tables of its text form.
type NamedTrace struct {
	Named *computation.Named
	Trace *Trace
}

// ParseTrace reads the trace text format from r and parses it as
// ParseTraceString does.
func ParseTrace(r io.Reader) (*NamedTrace, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return ParseTraceString(string(b))
}

// ParseTraceString parses the trace text format in one pass over s
// (computation.ParseWith): a node line with a value hands the
// computation its first three fields, and the value applies once the
// computation has parsed. Errors name the input's own line: the first
// line error in line order, then a value on a no-op, then Validate's.
// Like computation.Parse, it is an input boundary: malformed text
// returns an error, and a recover fence converts any panic a hostile
// file provokes into one.
func ParseTraceString(s string) (nt *NamedTrace, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			nt, err = nil, fmt.Errorf("trace: invalid input: %v", rec)
		}
	}()
	type valued struct {
		line int
		node string
		val  Value
	}
	var values []valued
	named, err := computation.ParseWith(s, func(line, _ int, fields []string) ([]string, error) {
		if fields[0] != "node" {
			return fields, nil
		}
		// node NAME OP [= VALUE]
		eq := slices.Index(fields, "=")
		if eq == -1 {
			return fields, nil
		}
		if eq != 3 || len(fields) != 5 {
			return nil, fmt.Errorf("line %d: want `node NAME OP = VALUE`", line)
		}
		v := valued{line: line, node: fields[1], val: Undefined}
		if fields[4] != "?" && fields[4] != "⊥" {
			n, err := strconv.ParseInt(fields[4], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("line %d: bad value %q", line, fields[4])
			}
			// The Undefined (⊥) sentinel is an in-band reservation of
			// math.MinInt64. A literal value equal to it would silently
			// change the read's candidate semantics (a numeric read would
			// become "observed no write"), so the boundary rejects it
			// instead; ⊥ is spelled "?" in this format.
			if Value(n) == Undefined {
				return nil, fmt.Errorf("line %d: value %d is reserved for the Undefined sentinel (spell ⊥ as \"?\")", line, n)
			}
			v.val = Value(n)
		}
		values = append(values, v)
		return fields[:3], nil
	})
	if err != nil {
		return nil, err
	}
	tr := New(named.Comp)
	for _, v := range values {
		// The value's own line declared the node.
		u := named.NodeID[v.node]
		switch named.Comp.Op(u).Kind {
		case computation.Write:
			tr.WriteVal[u] = v.val
		case computation.Read:
			tr.ReadVal[u] = v.val
		default:
			return nil, fmt.Errorf("line %d: no-op node %q cannot carry a value", v.line, v.node)
		}
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	return &NamedTrace{Named: named, Trace: tr}, nil
}

// Format writes the trace in the format accepted by ParseTrace. No node
// may be named "=", which the reader takes for the value separator.
func (nt *NamedTrace) Format(w io.Writer) error {
	named, tr := nt.Named, nt.Trace
	c := named.Comp
	if slices.Contains(named.NodeName, "=") {
		return fmt.Errorf(`trace: node "=" cannot be written: "=" separates a node line's value`)
	}
	if len(named.LocName) > 0 {
		if _, err := fmt.Fprintf(w, "locs %s\n", strings.Join(named.LocName, " ")); err != nil {
			return err
		}
	}
	var opStr []byte
	for u, name := range named.NodeName {
		op := c.Op(dag.Node(u))
		opStr = named.AppendOp(opStr[:0], op)
		switch op.Kind {
		case computation.Write:
			if _, err := fmt.Fprintf(w, "node %s %s = %d\n", name, opStr, tr.WriteVal[u]); err != nil {
				return err
			}
		case computation.Read:
			val := "?"
			if tr.ReadVal[u] != Undefined {
				val = strconv.FormatInt(int64(tr.ReadVal[u]), 10)
			}
			if _, err := fmt.Fprintf(w, "node %s %s = %s\n", name, opStr, val); err != nil {
				return err
			}
		default:
			if _, err := fmt.Fprintf(w, "node %s %s\n", name, opStr); err != nil {
				return err
			}
		}
	}
	for _, e := range c.Dag().Edges() {
		if _, err := fmt.Fprintf(w, "edge %s %s\n", named.NodeName[e[0]], named.NodeName[e[1]]); err != nil {
			return err
		}
	}
	return nil
}
