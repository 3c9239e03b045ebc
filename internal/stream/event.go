// Package stream implements online trace verification: an incremental
// checker that consumes an executed trace as a stream of events — one
// per completed memory operation, delivered in an order consistent
// with the computation dag — and reports a violation at the first
// point where one is observable, instead of only after the complete
// trace has been assembled (the post-mortem mode of internal/checker).
//
// # Event model
//
// A trace stream is newline-delimited JSON. The first event declares
// the locations; each subsequent event reports one completed node with
// its instruction, its value, and its already-delivered predecessors;
// a final event closes the trace:
//
//	{"ev":"locs","locs":["data","flag"]}
//	{"ev":"node","name":"Wd","op":"W(data)","val":1}
//	{"ev":"node","name":"Rf","op":"R(flag)","val":1}
//	{"ev":"node","name":"Rd","op":"R(data)","bottom":true,"pred":["Rf"]}
//	{"ev":"end"}
//
// Reads carry either "val" or "bottom":true (the ⊥ of the paper:
// observed no write). Every pred must name an earlier event, so the
// delivery order is forced to be a topological sort of the execution —
// exactly what a live system reports, since an operation's
// dependencies complete before it does. Edges between two
// already-delivered nodes cannot arrive later; that prefix-ideal
// property is what makes mid-stream violations stable (see checker.go).
//
// # Verdict discipline
//
// Mid-stream, the checker reports only *stable* violations: outcomes
// that hold in every completion of the stream, however many concurrent
// writes, reads, and dependencies arrive later. At end-of-stream
// Checker.Finish runs the exact post-mortem decision over the assembled
// trace and returns the same checker.Verdicts as checker.Verify, so the
// final verdict is byte-identical to offline verification of the
// completed trace. A stream cut short is never searched: its undecided
// models finish INCONCLUSIVE with the cut's reason.
package stream

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"

	"repro/internal/computation"
	"repro/internal/dag"
	"repro/internal/trace"
)

// Event kinds on the wire.
const (
	EvLocs = "locs"
	EvNode = "node"
	EvEnd  = "end"
)

// Event is one line of a trace stream.
type Event struct {
	// Ev is the kind: "locs", "node", or "end".
	Ev string `json:"ev"`
	// Locs names the locations (locs events; fixes the location set).
	Locs []string `json:"locs,omitempty"`
	// Name is the node's identifier (node events; must be fresh).
	Name string `json:"name,omitempty"`
	// Op is the instruction: "N", "R(loc)", or "W(loc)".
	Op string `json:"op,omitempty"`
	// Val is the stored (write) or returned (read) value.
	Val *int64 `json:"val,omitempty"`
	// Bottom marks a read that observed no write (⊥).
	Bottom bool `json:"bottom,omitempty"`
	// Pred names the node's immediate predecessors, all of which must
	// have been delivered already.
	Pred []string `json:"pred,omitempty"`
}

// ParseEvent decodes one NDJSON line. Unknown fields are rejected so a
// misspelled key fails loudly instead of silently changing the trace.
// Shape validation beyond the protocol state (fresh names, known
// predecessors, location arity) happens at ingest.
func ParseEvent(line []byte) (Event, error) {
	var ev Event
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&ev); err != nil {
		return Event{}, fmt.Errorf("stream: bad event: %w", err)
	}
	switch ev.Ev {
	case EvLocs:
		if ev.Name != "" || ev.Op != "" || ev.Val != nil || ev.Bottom || len(ev.Pred) != 0 {
			return Event{}, fmt.Errorf("stream: locs event carries node fields")
		}
	case EvNode:
		if ev.Name == "" {
			return Event{}, fmt.Errorf("stream: node event without a name")
		}
		if ev.Op == "" {
			return Event{}, fmt.Errorf("stream: node %q without an op", ev.Name)
		}
		// The Undefined sentinel is in-band (math.MinInt64); accepting it
		// as a literal value would silently flip the read's semantics to
		// "observed no write". ⊥ is spelled {"bottom":true}.
		if ev.Val != nil && trace.Value(*ev.Val) == trace.Undefined {
			return Event{}, fmt.Errorf("stream: node %q: value %d is reserved for the Undefined sentinel (use \"bottom\":true)", ev.Name, *ev.Val)
		}
		if ev.Val != nil && ev.Bottom {
			return Event{}, fmt.Errorf("stream: node %q carries both val and bottom", ev.Name)
		}
	case EvEnd:
		if ev.Name != "" || ev.Op != "" || ev.Val != nil || ev.Bottom || len(ev.Pred) != 0 || len(ev.Locs) != 0 {
			return Event{}, fmt.Errorf("stream: end event carries fields")
		}
	case "":
		return Event{}, fmt.Errorf("stream: event without an \"ev\" kind")
	default:
		return Event{}, fmt.Errorf("stream: unknown event kind %q", ev.Ev)
	}
	return ev, nil
}

// EventsFromTrace converts a parsed trace into an event stream
// delivered in a canonical topological order (the lexicographically
// least one), ending with an end event. It is the bridge from the
// post-mortem corpus to the streaming checker: cmd/verify -stream uses
// it to feed .trace files, and the differential tests replay corpus
// traces through it.
func EventsFromTrace(nt *trace.NamedTrace) ([]Event, error) {
	order, err := nt.Named.Comp.Dag().TopoSort()
	if err != nil {
		return nil, err
	}
	return EventsFromTraceOrder(nt, order)
}

// EventsFromTraceOrder is EventsFromTrace with an explicit delivery
// order, which must be a topological sort of the trace's computation.
func EventsFromTraceOrder(nt *trace.NamedTrace, order []dag.Node) ([]Event, error) {
	named, tr := nt.Named, nt.Trace
	c := named.Comp
	if !c.Dag().IsTopoSort(order) {
		return nil, fmt.Errorf("stream: delivery order is not a topological sort")
	}
	events := make([]Event, 0, c.NumNodes()+2)
	events = append(events, Event{Ev: EvLocs, Locs: append([]string(nil), named.LocName...)})
	var opBuf []byte
	for _, u := range order {
		op := c.Op(u)
		opBuf = named.AppendOp(opBuf[:0], op)
		ev := Event{Ev: EvNode, Name: named.NodeName[u], Op: string(opBuf)}
		for _, p := range c.Dag().Preds(u) {
			ev.Pred = append(ev.Pred, named.NodeName[p])
		}
		switch op.Kind {
		case computation.Write:
			v := int64(tr.WriteVal[u])
			ev.Val = &v
		case computation.Read:
			if tr.ReadVal[u] == trace.Undefined {
				ev.Bottom = true
			} else {
				v := int64(tr.ReadVal[u])
				ev.Val = &v
			}
		}
		events = append(events, ev)
	}
	events = append(events, Event{Ev: EvEnd})
	return events, nil
}

// WriteNDJSON renders events one JSON object per line.
func WriteNDJSON(w io.Writer, events []Event) error {
	enc := json.NewEncoder(w)
	for _, ev := range events {
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	return nil
}

// Compile-time pin of the sentinel this package rejects on the wire:
// if trace.Undefined ever moves away from math.MinInt64 this index
// goes out of range and the build breaks here, next to the check.
var _ = [1]struct{}{}[int64(trace.Undefined)-math.MinInt64]
