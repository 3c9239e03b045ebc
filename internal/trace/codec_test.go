package trace

import (
	"os"
	"strings"
	"testing"

	"repro/internal/computation"
)

const mpTrace = `# message passing, stale data
locs data flag
node Wd W(data) = 1
node Wf W(flag) = 1
node Rf R(flag) = 1
node Rd R(data) = ?
edge Wd Wf
edge Rf Rd
`

func TestParseTrace(t *testing.T) {
	nt, err := ParseTraceString(mpTrace)
	if err != nil {
		t.Fatal(err)
	}
	tr := nt.Trace
	if tr.Comp.NumNodes() != 4 || tr.Comp.NumLocs() != 2 {
		t.Fatalf("shape: %v", tr.Comp)
	}
	if tr.WriteVal[0] != 1 || tr.WriteVal[1] != 1 {
		t.Fatal("write values wrong")
	}
	if tr.ReadVal[2] != 1 || tr.ReadVal[3] != Undefined {
		t.Fatal("read values wrong")
	}
}

func TestParseTraceBottomSpelling(t *testing.T) {
	nt, err := ParseTraceString("locs x\nnode R R(x) = ⊥\n")
	if err != nil {
		t.Fatal(err)
	}
	if nt.Trace.ReadVal[0] != Undefined {
		t.Fatal("⊥ not parsed")
	}
}

func TestParseTraceNodeWithoutValue(t *testing.T) {
	nt, err := ParseTraceString("locs x\nnode A W(x)\nnode B N\n")
	if err != nil {
		t.Fatal(err)
	}
	if nt.Trace.WriteVal[0] != 0 {
		t.Fatal("default write value wrong")
	}
}

func TestParseTraceErrors(t *testing.T) {
	cases := []string{
		"locs x\nnode A W(x) = abc",     // bad value
		"locs x\nnode A N = 3",          // value on a no-op
		"locs x\nnode A W(x) = 1 extra", // malformed
		"locs x\nnode A W(x) =",         // malformed
		"bogus",                         // computation error
	}
	for _, src := range cases {
		if _, err := ParseTraceString(src); err == nil {
			t.Errorf("no error for %q", src)
		}
	}
}

func TestTraceRoundTrip(t *testing.T) {
	nt, err := ParseTraceString(mpTrace)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := nt.Format(&b); err != nil {
		t.Fatal(err)
	}
	nt2, err := ParseTraceString(b.String())
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, b.String())
	}
	if !nt.Trace.Comp.Equal(nt2.Trace.Comp) {
		t.Fatal("round trip changed computation")
	}
	for u := range nt.Trace.ReadVal {
		if nt.Trace.ReadVal[u] != nt2.Trace.ReadVal[u] || nt.Trace.WriteVal[u] != nt2.Trace.WriteVal[u] {
			t.Fatal("round trip changed values")
		}
	}
}

// TestParseTraceErrorLines: every error names the input's own line,
// whatever comments, blank lines and value lines come before it, and
// of several errors the first in line order is reported.
func TestParseTraceErrorLines(t *testing.T) {
	cases := []struct{ src, want string }{
		{"# c\n\nlocs x\nnode A W(x) = 1\nnode B R(x) = 1\nnode C Q(x)\n",
			"line 6: computation: unknown op kind 'Q'"},
		{"# header\n# more\n\nlocs x\nnode A W(x) = 1\n\nnode B R(x) = 1\nedge A Z\n",
			`line 8: computation: unknown node "Z"`},
		{"locs x\n# a comment\nnode A W(x) = 1\nnode A R(x) = 1\n",
			`line 4: duplicate node "A"`},
		{"# c\nlocs x\n\nnode A W(x) = zz\nnode B Q(x)\n",
			`line 4: bad value "zz"`},
		{"# c\nlocs x\nnode A N = 1\nedge A Z\n",
			`line 4: computation: unknown node "Z"`},
	}
	for _, c := range cases {
		_, err := ParseTraceString(c.src)
		if err == nil || err.Error() != c.want {
			t.Errorf("%q: error %v, want %s", c.src, err, c.want)
		}
	}
}

// TestParseTraceLongAndTabbedLines: a line over 64 KiB parses, and so
// does a value line whose fields tabs separate.
func TestParseTraceLongAndTabbedLines(t *testing.T) {
	nt, err := ParseTraceString(longLocsLine("x") + "\nnode\tA\tW(x)\t=\t1\nnode B R(x) = 1\nedge A B\n")
	if err != nil {
		t.Fatal(err)
	}
	if nt.Trace.WriteVal[0] != 1 || nt.Trace.ReadVal[1] != 1 || nt.Trace.Comp.NumLocs() < 10000 {
		t.Fatalf("parsed %d locations, values %v %v", nt.Trace.Comp.NumLocs(), nt.Trace.WriteVal, nt.Trace.ReadVal)
	}
}

// TestDocExampleParses parses the format example of this file's
// package comment verbatim.
func TestDocExampleParses(t *testing.T) {
	nt, err := ParseTraceString(docExample(t, "codec.go", "// This file implements a text format for executed traces"))
	if err != nil {
		t.Fatal(err)
	}
	if nt.Trace.Comp.NumNodes() != 3 || nt.Trace.ReadVal[nt.Named.NodeID["B"]] != Undefined {
		t.Fatalf("example parsed to %v", nt.Trace)
	}
}

// docExample returns the first block of tab-indented comment lines
// after marker in file: a format example of a doc comment.
func docExample(t *testing.T, file, marker string) string {
	b, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	_, rest, ok := strings.Cut(string(b), marker)
	if !ok {
		t.Fatalf("%s has no %q", file, marker)
	}
	var example strings.Builder
	for _, line := range strings.Split(rest, "\n") {
		if text, ok := strings.CutPrefix(line, "//\t"); ok {
			example.WriteString(text + "\n")
		} else if example.Len() > 0 {
			break
		}
	}
	return example.String()
}

// TestFormatRefusesEqualsName: a node named "=" would read back as the
// value separator, so Format refuses it, before writing anything,
// instead of writing text ParseTrace rejects.
func TestFormatRefusesEqualsName(t *testing.T) {
	named, err := computation.ParseString("locs x\nnode = W(x)\n")
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	err = (&NamedTrace{Named: named, Trace: New(named.Comp)}).Format(&b)
	if want := `trace: node "=" cannot be written: "=" separates a node line's value`; err == nil || err.Error() != want || b.Len() > 0 {
		t.Fatalf("error %v after writing %q, want %s", err, b.String(), want)
	}
}
