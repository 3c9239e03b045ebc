package observer

import (
	"strings"
	"testing"
)

const pairText = `locs x
node A W(x)
node B R(x)
node C R(x)
edge A B
edge B C
observe B x A
observe C x bottom
`

func TestParsePair(t *testing.T) {
	named, o, err := ParsePairString(pairText)
	if err != nil {
		t.Fatal(err)
	}
	if o.Get(0, named.NodeID["B"]) != named.NodeID["A"] {
		t.Fatal("observe line not applied")
	}
	if o.Get(0, named.NodeID["C"]) != Bottom {
		t.Fatal("bottom observe not applied")
	}
	if o.Get(0, named.NodeID["A"]) != named.NodeID["A"] {
		t.Fatal("default self-observation lost")
	}
}

func TestParsePairUnicodeBottom(t *testing.T) {
	_, o, err := ParsePairString("locs x\nnode A R(x)\nobserve A x ⊥\n")
	if err != nil {
		t.Fatal(err)
	}
	if o.Get(0, 0) != Bottom {
		t.Fatal("⊥ spelling not accepted")
	}
}

func TestParsePairErrors(t *testing.T) {
	cases := []string{
		"locs x\nnode A R(x)\nobserve A x",                   // short line
		"locs x\nnode A R(x)\nobserve Z x bottom",            // unknown node
		"locs x\nnode A R(x)\nobserve A y bottom",            // unknown loc
		"locs x\nnode A R(x)\nobserve A x Z",                 // unknown writer
		"locs x\nnode A R(x)\nobserve A x A",                 // invalid: read observes itself
		"locs x\nnode A W(x)\nobserve A x bottom",            // invalid: write must observe itself
		"bogus\nobserve A x bottom",                          // computation parse error
		"locs x\nnode A W(x)\nnode B R(x)\nobserveXYZ B x A", // misspelled directive
		"locs x\nnode A W(x)\nnode B R(x)\nobserver B x A",   // misspelled directive
	}
	for _, src := range cases {
		if _, _, err := ParsePairString(src); err == nil {
			t.Errorf("no error for %q", src)
		}
	}
}

// TestParsePairErrorLines pins that a pair error names the input's own
// line, whichever kind of line fails and whatever lines precede it.
func TestParsePairErrorLines(t *testing.T) {
	cases := []struct{ src, want string }{
		{"locs x\nnode A W(x)\nobserve A x A\nobserve A x A\nnode B Q(x)\n",
			`line 5: computation: unknown op kind 'Q'`},
		{"locs x\nnode A W(x)\nnode B R(x)\nobserve B x A\nedge A B\nobserve B x Z\n",
			`line 6: unknown writer "Z"`},
		{"locs x\n\n# a comment\nnode B R(x)\nobserve B\n",
			"line 5: want `observe NODE LOC WRITER`"},
		{"observe B x A\nlocs x\nnode A W(x)\nnode B R(x)\nobserve C x A\n",
			`line 5: unknown node "C"`},
		{"locs x\nnode A W(x)\nnode B R(x)\nobserver B x A\n",
			`line 4: unknown directive "observer"`},
		{"locs x\nnode A W(x)\nnode B R(x)\n  observeXYZ B x A\n",
			`line 4: unknown directive "observeXYZ"`},
	}
	for _, tc := range cases {
		_, _, err := ParsePairString(tc.src)
		if err == nil || err.Error() != tc.want {
			t.Errorf("ParsePairString(%q) = %v, want %s", tc.src, err, tc.want)
		}
	}
}

func TestFormatPairRoundTrip(t *testing.T) {
	named, o, err := ParsePairString(pairText)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := FormatPair(&b, named, o); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	// Only the non-default entry appears.
	if !strings.Contains(out, "observe B x A") {
		t.Fatalf("missing observe line:\n%s", out)
	}
	if strings.Contains(out, "observe C") || strings.Contains(out, "observe A") {
		t.Fatalf("default entries should not be emitted:\n%s", out)
	}
	named2, o2, err := ParsePairString(out)
	if err != nil {
		t.Fatal(err)
	}
	if !named.Comp.Equal(named2.Comp) || !o.Equal(o2) {
		t.Fatal("round trip changed the pair")
	}
}
