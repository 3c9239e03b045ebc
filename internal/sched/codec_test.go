package sched

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/computation"
	"repro/internal/dag"
)

const litmusSchedText = `schedule 2
steals 1
locs x
node A R(x)
node B W(x)
node C R(x)
edge A C
edge B C
assign A 0 0 1
assign B 1 0 1
assign C 0 1 2
order A B C
`

func TestParseScheduleLitmus(t *testing.T) {
	named, s, err := ParseScheduleString(litmusSchedText)
	if err != nil {
		t.Fatal(err)
	}
	if s.P != 2 || s.Steals != 1 || s.Makespan != 2 {
		t.Fatalf("P=%d steals=%d makespan=%d", s.P, s.Steals, s.Makespan)
	}
	b := named.NodeID["B"]
	c := named.NodeID["C"]
	if s.Proc[b] == s.Proc[c] {
		t.Fatal("parsed schedule lost the crossing edge")
	}
}

// TestScheduleCodecRoundTrip: format∘parse is the identity on
// schedules produced by the simulators.
func TestScheduleCodecRoundTrip(t *testing.T) {
	named, s, err := ParseScheduleString(litmusSchedText)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := FormatSchedule(&b, named, s); err != nil {
		t.Fatal(err)
	}
	_, again, err := ParseScheduleString(b.String())
	if err != nil {
		t.Fatalf("re-parse failed: %v\nformatted:\n%s", err, b.String())
	}
	if again.P != s.P || again.Makespan != s.Makespan || again.Steals != s.Steals {
		t.Fatal("roundtrip changed schedule header")
	}
	for u := 0; u < s.Comp.NumNodes(); u++ {
		if again.Proc[u] != s.Proc[u] || again.Start[u] != s.Start[u] || again.Finish[u] != s.Finish[u] {
			t.Fatalf("roundtrip changed node %d's assignment", u)
		}
	}
	for i := range s.Order {
		if again.Order[i] != s.Order[i] {
			t.Fatal("roundtrip changed execution order")
		}
	}

	// And a second roundtrip is byte-stable.
	var b2 strings.Builder
	named2, _, _ := ParseScheduleString(b.String())
	if err := FormatSchedule(&b2, named2, again); err != nil {
		t.Fatal(err)
	}
	if b.String() != b2.String() {
		t.Fatalf("format is not byte-stable:\n%s\nvs\n%s", b.String(), b2.String())
	}
}

// TestScheduleCodecWorkStealing round-trips a machine-generated
// schedule end to end.
func TestScheduleCodecWorkStealing(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := dag.Random(rng, 20, 0.3)
	ops := make([]computation.Op, g.NumNodes())
	for i := range ops {
		switch i % 3 {
		case 0:
			ops[i] = computation.W(0)
		case 1:
			ops[i] = computation.R(0)
		default:
			ops[i] = computation.N
		}
	}
	c := computation.MustFrom(g, ops, 1)
	s, err := WorkStealing(c, 4, nil, rng)
	if err != nil {
		t.Fatal(err)
	}
	named := autoNamedForTest(c)
	var b strings.Builder
	if err := FormatSchedule(&b, named, s); err != nil {
		t.Fatal(err)
	}
	_, again, err := ParseScheduleString(b.String())
	if err != nil {
		t.Fatalf("re-parse failed: %v", err)
	}
	if err := again.Validate(); err != nil {
		t.Fatalf("round-tripped schedule invalid: %v", err)
	}
}

func autoNamedForTest(c *computation.Computation) *computation.Named {
	locs := make([]string, c.NumLocs())
	for l := range locs {
		locs[l] = "l" + string(rune('a'+l))
	}
	named := computation.NewNamed(locs...)
	for u := 0; u < c.NumNodes(); u++ {
		named.AddNode("n"+itoa(u), c.Op(dag.Node(u)))
	}
	for _, e := range c.Dag().Edges() {
		named.Comp.MustAddEdge(e[0], e[1])
	}
	return named
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var digits []byte
	for ; n > 0; n /= 10 {
		digits = append([]byte{byte('0' + n%10)}, digits...)
	}
	return string(digits)
}

func TestParseScheduleErrors(t *testing.T) {
	cases := map[string]string{
		"missing schedule":  "locs x\nnode A N\nassign A 0 0 1\norder A\n",
		"bad proc count":    "schedule 0\nlocs x\nnode A N\nassign A 0 0 1\norder A\n",
		"missing assign":    "schedule 1\nlocs x\nnode A N\norder A\n",
		"duplicate assign":  "schedule 1\nlocs x\nnode A N\nassign A 0 0 1\nassign A 0 0 1\norder A\n",
		"unknown node":      "schedule 1\nlocs x\nnode A N\nassign B 0 0 1\norder A\n",
		"short order":       "schedule 1\nlocs x\nnode A N\nnode B N\nassign A 0 0 1\nassign B 0 1 2\norder A\n",
		"proc out of range": "schedule 1\nlocs x\nnode A N\nassign A 5 0 1\norder A\n",
		"order violates deps": "schedule 1\nlocs x\nnode A N\nnode B N\nedge A B\n" +
			"assign A 0 1 2\nassign B 0 0 1\norder B A\n",
	}
	for name, text := range cases {
		if _, _, err := ParseScheduleString(text); err == nil {
			t.Errorf("%s: parser accepted malformed input", name)
		}
	}
}

// TestParseScheduleErrorLines: every error names the input's own line,
// whatever comments, blank lines and schedule lines come before it, and
// of several errors the first in line order is reported, before the
// whole-text checks.
func TestParseScheduleErrorLines(t *testing.T) {
	cases := []struct{ src, want string }{
		{"schedule 1\n# c\n\nlocs x\nnode A N\nnode B Q(x)\n",
			"line 6: computation: unknown op kind 'Q'"},
		{"schedule 2 # processors\nsteals 1\nlocs x\nnode A N\nassign A 0 0 1\nedge A Z\n",
			`line 6: computation: unknown node "Z"`},
		{"# no schedule line\nlocs x\nnode A Q(x)\n",
			"line 3: computation: unknown op kind 'Q'"},
		{"schedule 1\nlocs x\nnode A N\nassign A 0 0 1\n\nassign Z 0 0 1\norder A\n",
			`line 6: unknown node "Z"`},
		{"schedule 1\nlocs x\nnode A N # the node\nassign A 0 0 1 # proc 0\nassign A 0 1 2\norder A\n",
			`line 5: duplicate assign for "A"`},
	}
	for _, c := range cases {
		_, _, err := ParseScheduleString(c.src)
		if err == nil || err.Error() != c.want {
			t.Errorf("%q: error %v, want %s", c.src, err, c.want)
		}
	}
}

// TestParseScheduleLongLine: a line over 64 KiB parses.
func TestParseScheduleLongLine(t *testing.T) {
	named, s, err := ParseScheduleString(strings.Replace(litmusSchedText, "locs x", longLocsLine("x"), 1))
	if err != nil {
		t.Fatal(err)
	}
	if s.Makespan != 2 || named.Comp.NumLocs() < 10000 {
		t.Fatalf("parsed %d locations, makespan %d", named.Comp.NumLocs(), s.Makespan)
	}
}

// TestFormatScheduleRefusesCommentNames: a '#' in a node or location
// name would start a comment when the text is read back, so the writer
// refuses the name, before writing anything, instead of writing text
// its reader rejects.
func TestFormatScheduleRefusesCommentNames(t *testing.T) {
	for _, c := range []struct{ src, want string }{
		{"locs x\nnode a#b W(x)\nnode C R(x)\nedge a#b C\n",
			`sched: name "a#b" cannot be written: '#' starts a schedule comment`},
		{"locs x#y\nnode A W(x#y)\n",
			`sched: name "x#y" cannot be written: '#' starts a schedule comment`},
	} {
		named, err := computation.ParseString(c.src)
		if err != nil {
			t.Fatal(err)
		}
		s, err := ListSchedule(named.Comp, 2, UnitCost)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		if err := FormatSchedule(&b, named, s); err == nil || err.Error() != c.want || b.Len() > 0 {
			t.Errorf("%q: error %v after writing %q, want %s", c.src, err, b.String(), c.want)
		}
	}
}

// TestParseScheduleOrderErrorLine: an unknown name on the order line
// names that line, as an assign line's does.
func TestParseScheduleOrderErrorLine(t *testing.T) {
	_, _, err := ParseScheduleString("schedule 1\nlocs x\nnode A W(x)\nassign A 0 0 1\norder Z\n")
	if want := `line 5: unknown node "Z" in order`; err == nil || err.Error() != want {
		t.Fatalf("error %v, want %s", err, want)
	}
}
