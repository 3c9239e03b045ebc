package sched

import (
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"

	"repro/internal/computation"
	"repro/internal/dag"
)

// This file implements a self-contained text format for schedules, so
// executions are replayable from files: the computation (in its own
// text format) is embedded alongside the processor assignment and the
// completion order. A schedule file fully determines a BACKER run —
// together with a fault plan (internal/chaos) it is a byte-replayable
// repro.
//
//	schedule 2              # processor count
//	steals 1                # optional bookkeeping
//	locs x
//	node A R(x)
//	node B W(x)
//	node C R(x)
//	edge A C
//	edge B C
//	assign A 0 0 1          # node proc start finish
//	assign B 1 0 1
//	assign C 0 1 2
//	order A B C
//
// Blank lines are ignored, and a '#' anywhere on a line starts a
// comment (the computation format knows only whole-line comments).
// ParseSchedule validates the result, so a file that parses is a
// runnable schedule.

// FormatSchedule writes the schedule in the text format accepted by
// ParseSchedule. named supplies the node/location names; its
// computation must be the schedule's, and no name may hold a '#', which
// the reader takes for the start of a comment.
func FormatSchedule(w io.Writer, named *computation.Named, s *Schedule) error {
	if named.Comp.NumNodes() != s.Comp.NumNodes() {
		return fmt.Errorf("sched: symbol table for %d nodes, schedule has %d",
			named.Comp.NumNodes(), s.Comp.NumNodes())
	}
	for _, names := range [][]string{named.NodeName, named.LocName} {
		if i := slices.IndexFunc(names, func(name string) bool { return strings.Contains(name, "#") }); i >= 0 {
			return fmt.Errorf("sched: name %q cannot be written: '#' starts a schedule comment", names[i])
		}
	}
	if _, err := fmt.Fprintf(w, "schedule %d\n", s.P); err != nil {
		return err
	}
	if s.Steals > 0 {
		if _, err := fmt.Fprintf(w, "steals %d\n", s.Steals); err != nil {
			return err
		}
	}
	if err := named.Format(w); err != nil {
		return err
	}
	for u, name := range named.NodeName {
		if _, err := fmt.Fprintf(w, "assign %s %d %d %d\n", name, s.Proc[u], s.Start[u], s.Finish[u]); err != nil {
			return err
		}
	}
	names := make([]string, len(s.Order))
	for i, u := range s.Order {
		names[i] = named.NodeName[u]
	}
	if len(names) > 0 {
		if _, err := fmt.Fprintf(w, "order %s\n", strings.Join(names, " ")); err != nil {
			return err
		}
	}
	return nil
}

// ParseSchedule reads the schedule text format from r and parses it as
// ParseScheduleString does.
func ParseSchedule(r io.Reader) (*computation.Named, *Schedule, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, nil, err
	}
	return ParseScheduleString(string(b))
}

// ParseScheduleString parses the schedule text format in one pass over
// str (computation.ParseWith): schedule, steals, assign and order lines
// are read as they come, every other line belongs to the computation,
// and the node names of assign and order lines resolve once it has
// parsed. The first line error in line order is reported, naming the
// input's own line, then an assign line's unknown or repeated node, and
// last the whole-text checks: a missing `schedule P`, the assign and
// order counts, the order line's names (naming that line) and
// Validate. Like the other codecs it is an input boundary: malformed
// text returns an error (a recover fence converts hostile-input
// panics), and the returned schedule has passed Validate.
func ParseScheduleString(str string) (named *computation.Named, s *Schedule, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			named, s, err = nil, nil, fmt.Errorf("sched: invalid input: %v", rec)
		}
	}()
	type assign struct {
		line, proc    int
		node          string
		start, finish Tick
	}
	var (
		assigns   []assign
		order     []string
		orderLine int // 0 until an order line is read
		p         = -1
		steals    = 0
	)
	named, err = computation.ParseWith(str, func(line, _ int, fields []string) ([]string, error) {
		for i, f := range fields {
			if j := strings.IndexByte(f, '#'); j >= 0 {
				if fields = fields[:i]; j > 0 {
					fields = append(fields, f[:j])
				}
				break
			}
		}
		if len(fields) == 0 {
			return nil, nil
		}
		switch fields[0] {
		case "schedule":
			if len(fields) != 2 || p >= 0 {
				return nil, fmt.Errorf("line %d: want one `schedule P`", line)
			}
			v, err := strconv.Atoi(fields[1])
			if err != nil || v < 1 {
				return nil, fmt.Errorf("line %d: bad processor count %q", line, fields[1])
			}
			p = v
		case "steals":
			if len(fields) != 2 {
				return nil, fmt.Errorf("line %d: want `steals N`", line)
			}
			v, err := strconv.Atoi(fields[1])
			if err != nil || v < 0 {
				return nil, fmt.Errorf("line %d: bad steal count %q", line, fields[1])
			}
			steals = v
		case "assign":
			if len(fields) != 5 {
				return nil, fmt.Errorf("line %d: want `assign NODE PROC START FINISH`", line)
			}
			proc, e1 := strconv.Atoi(fields[2])
			start, e2 := strconv.ParseInt(fields[3], 10, 64)
			finish, e3 := strconv.ParseInt(fields[4], 10, 64)
			if e1 != nil || e2 != nil || e3 != nil {
				return nil, fmt.Errorf("line %d: bad assign numbers", line)
			}
			assigns = append(assigns, assign{line: line, proc: proc, node: fields[1], start: Tick(start), finish: Tick(finish)})
		case "order":
			if orderLine > 0 {
				return nil, fmt.Errorf("line %d: duplicate order directive", line)
			}
			orderLine = line
			order = slices.Clone(fields[1:])
		default:
			return fields, nil
		}
		return nil, nil
	})
	if err != nil {
		return nil, nil, err
	}
	c := named.Comp
	n := c.NumNodes()
	s = &Schedule{
		Comp:   c,
		P:      p,
		Proc:   make([]int, n),
		Start:  make([]Tick, n),
		Finish: make([]Tick, n),
		Order:  make([]dag.Node, 0, n),
		Steals: steals,
	}
	seen := make([]bool, n)
	for _, a := range assigns {
		u, ok := named.NodeID[a.node]
		if !ok {
			return nil, nil, fmt.Errorf("line %d: unknown node %q", a.line, a.node)
		}
		if seen[u] {
			return nil, nil, fmt.Errorf("line %d: duplicate assign for %q", a.line, a.node)
		}
		seen[u] = true
		s.Proc[u], s.Start[u], s.Finish[u] = a.proc, a.start, a.finish
		s.Makespan = max(s.Makespan, a.finish)
	}
	switch {
	case p < 0:
		return nil, nil, fmt.Errorf("sched: missing `schedule P` directive")
	case len(assigns) != n:
		return nil, nil, fmt.Errorf("sched: %d assign lines for %d nodes", len(assigns), n)
	case len(order) != n:
		return nil, nil, fmt.Errorf("sched: order lists %d nodes, computation has %d", len(order), n)
	}
	for _, name := range order {
		u, ok := named.NodeID[name]
		if !ok {
			return nil, nil, fmt.Errorf("line %d: unknown node %q in order", orderLine, name)
		}
		s.Order = append(s.Order, u)
	}
	if err := s.Validate(); err != nil {
		return nil, nil, err
	}
	return named, s, nil
}
