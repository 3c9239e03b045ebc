package trace

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// FuzzParseTrace drives the trace parser with arbitrary input. The
// contract of the input boundary: any byte sequence either parses into
// a trace that validates, or returns an error that names, if any line,
// one that is neither blank nor a comment — never a panic. Parsed
// traces must survive a format/re-parse roundtrip.
func FuzzParseTrace(f *testing.F) {
	seeds, _ := filepath.Glob(filepath.Join("..", "..", "testdata", "*.trace"))
	for _, p := range seeds {
		if b, err := os.ReadFile(p); err == nil {
			f.Add(string(b))
		}
	}
	f.Add("locs x\nnode A W(x) = 1\nnode B R(x) = 1\nedge A B\n")
	f.Add("locs x\nnode A R(x) = ?\n")     // undefined read
	f.Add("locs x\nnode A N = 3\n")        // value on a no-op (invalid)
	f.Add("locs x\nnode A W(x) = zzz\n")   // non-numeric value
	f.Add("locs x\nnode A W(x) = 1 = 2\n") // double assignment
	f.Add("# c\n\nlocs x\nnode A Q(x)\n")  // an error past a comment and a blank line
	f.Fuzz(func(t *testing.T, input string) {
		nt, err := ParseTraceString(input)
		if err != nil {
			checkErrorLine(t, input, err)
			return
		}
		if verr := nt.Trace.Validate(); verr != nil {
			t.Fatalf("parsed trace fails validation: %v", verr)
		}
		var b strings.Builder
		if ferr := nt.Format(&b); ferr != nil {
			t.Fatalf("format failed: %v", ferr)
		}
		again, rerr := ParseTraceString(b.String())
		if rerr != nil {
			t.Fatalf("roundtrip re-parse failed: %v\nformatted:\n%s", rerr, b.String())
		}
		if again.Trace.Comp.NumNodes() != nt.Trace.Comp.NumNodes() {
			t.Fatalf("roundtrip changed node count")
		}
		for u, v := range nt.Trace.ReadVal {
			if again.Trace.ReadVal[u] != v {
				t.Fatalf("roundtrip changed read value of node %d: %d -> %d", u, v, again.Trace.ReadVal[u])
			}
		}
		for u, v := range nt.Trace.WriteVal {
			if again.Trace.WriteVal[u] != v {
				t.Fatalf("roundtrip changed write value of node %d: %d -> %d", u, v, again.Trace.WriteVal[u])
			}
		}
	})
}

// checkErrorLine fails t when err names a line of input that is blank
// or a whole-line comment, or no line of input at all.
func checkErrorLine(t *testing.T, input string, err error) {
	m := pinLineErr.FindStringSubmatch(err.Error())
	if m == nil {
		return
	}
	n, _ := strconv.Atoi(m[1])
	lines := strings.Split(input, "\n")
	if n < 1 || n > len(lines) {
		t.Fatalf("error %q names line %d of %d", err, n, len(lines))
	}
	if f := strings.Fields(lines[n-1]); len(f) == 0 || f[0][0] == '#' {
		t.Fatalf("error %q names a blank or comment line: %q", err, lines[n-1])
	}
}
