package observer

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/computation"
	"repro/internal/dag"
)

// This file extends the computation text format with observer lines, so
// the cmd tools can check (computation, observer) pairs from files:
//
//	locs x
//	node A W(x)
//	node B R(x)
//	edge A B
//	observe B x A      # Φ(x, B) = A
//	observe B x bottom # Φ(x, B) = ⊥
//
// Entries not mentioned keep the canonical defaults of New: writes
// observe themselves, everything else observes ⊥.

// ParsePair reads a computation and an observer function from the
// combined text format and parses them as ParsePairString does.
func ParsePair(r io.Reader) (*computation.Named, *Observer, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, nil, err
	}
	return ParsePairString(string(b))
}

// ParsePairString parses a computation and an observer function from
// the combined text format, in one pass over s: a line whose first
// field is exactly "observe" is an observer entry, and every other line
// belongs to the computation (computation.ParseWith). Observer entries
// apply once the computation has parsed, so they may name nodes
// declared below them. Errors name the input's own line. Like
// computation.ParseString, it is an input boundary: malformed text
// returns an error, and a recover fence converts any panic a hostile
// file provokes into one.
func ParsePairString(s string) (named *computation.Named, o *Observer, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			named, o, err = nil, nil, fmt.Errorf("observer: invalid input: %v", rec)
		}
	}()
	// An observe line is set aside as its number and the offset of its
	// first byte, and split again when its turn comes.
	type observeLine struct{ no, offset int }
	var observes []observeLine
	named, err = computation.ParseWith(s, func(line, offset int, fields []string) ([]string, error) {
		if fields[0] != "observe" {
			return fields, nil
		}
		if observes == nil {
			// Room for every line from here on that starts with "observe".
			observes = make([]observeLine, 0, strings.Count(s[offset:], "\nobserve")+1)
		}
		observes = append(observes, observeLine{line, offset})
		return nil, nil
	})
	if err != nil {
		return nil, nil, err
	}
	o = New(named.Comp)
	var buf [4]string
	for _, ob := range observes {
		text, _, _ := strings.Cut(s[ob.offset:], "\n")
		fields := computation.AppendFields(buf[:0], text)
		if len(fields) != 4 {
			return nil, nil, fmt.Errorf("line %d: want `observe NODE LOC WRITER`", ob.no)
		}
		u, ok := named.NodeID[fields[1]]
		if !ok {
			return nil, nil, fmt.Errorf("line %d: unknown node %q", ob.no, fields[1])
		}
		l, ok := named.LocID[fields[2]]
		if !ok {
			return nil, nil, fmt.Errorf("line %d: unknown location %q", ob.no, fields[2])
		}
		w := Bottom
		if fields[3] != "bottom" && fields[3] != "⊥" {
			if w, ok = named.NodeID[fields[3]]; !ok {
				return nil, nil, fmt.Errorf("line %d: unknown writer %q", ob.no, fields[3])
			}
		}
		o.Set(l, u, w)
	}
	if err := o.Validate(named.Comp); err != nil {
		return nil, nil, err
	}
	return named, o, nil
}

// FormatPair writes the computation and the observer's non-default
// entries in the format accepted by ParsePair: AppendPair's text.
func FormatPair(w io.Writer, named *computation.Named, o *Observer) error {
	// Room for the usual text: node, edge and observe lines of about
	// 24 bytes, some three of them per node.
	_, err := w.Write(AppendPair(make([]byte, 0, 64+72*len(named.NodeName)), named, o))
	return err
}

// AppendPair appends the pair's canonical text to b: the computation
// as computation.Named.AppendText writes it, then one observe line per
// entry that differs from its default — a write observes itself and
// every other entry observes ⊥ — by location, then node.
func AppendPair(b []byte, named *computation.Named, o *Observer) []byte {
	b = named.AppendText(b)
	c := named.Comp
	for l := computation.Loc(0); int(l) < c.NumLocs(); l++ {
		for u := dag.Node(0); int(u) < c.NumNodes(); u++ {
			v, def := o.Get(l, u), Bottom
			if c.Op(u).IsWriteTo(l) {
				def = u
			}
			if v == def {
				continue
			}
			b = append(append(append(append(b, "observe "...), named.NodeName[u]...), ' '), named.LocName[l]...)
			if v == Bottom {
				b = append(b, " bottom\n"...)
			} else {
				b = append(append(append(b, ' '), named.NodeName[v]...), '\n')
			}
		}
	}
	return b
}
