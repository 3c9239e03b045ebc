package computation

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzParseComputation drives the text-format parser with arbitrary
// input. Parse is an input boundary, so the contract is: any byte
// sequence either parses into a computation that validates, or returns
// an error — never a panic. Parsed computations must survive a
// format/re-parse roundtrip.
func FuzzParseComputation(f *testing.F) {
	seeds, _ := filepath.Glob(filepath.Join("..", "..", "testdata", "*.ccm"))
	for _, p := range seeds {
		if b, err := os.ReadFile(p); err == nil {
			f.Add(string(b))
		}
	}
	f.Add("locs x\nnode A W(x)\nnode B R(x)\nedge A B\n")
	f.Add("locs x x\n")                   // duplicate location (historical crasher)
	f.Add("node A W(x)\n")                // op before any locs
	f.Add("edge A B\n")                   // edge before nodes
	f.Add("locs x\nnode A R()\n")         // malformed op
	f.Add("# comment\n\nlocs x\n")        // blanks and comments
	f.Add("locs x\nnode A N\nnode A N\n") // duplicate node
	f.Fuzz(func(t *testing.T, input string) {
		named, err := ParseString(input)
		if err != nil {
			return
		}
		if verr := named.Comp.Validate(); verr != nil {
			t.Fatalf("parsed computation fails validation: %v", verr)
		}
		out := named.FormatString()
		again, rerr := ParseString(out)
		if rerr != nil {
			t.Fatalf("roundtrip re-parse failed: %v\nformatted:\n%s", rerr, out)
		}
		if again.Comp.NumNodes() != named.Comp.NumNodes() {
			t.Fatalf("roundtrip changed node count: %d -> %d", named.Comp.NumNodes(), again.Comp.NumNodes())
		}
		if again.Comp.NumLocs() != named.Comp.NumLocs() {
			t.Fatalf("roundtrip changed location count: %d -> %d", named.Comp.NumLocs(), again.Comp.NumLocs())
		}
		if len(again.Comp.Dag().Edges()) != len(named.Comp.Dag().Edges()) {
			t.Fatalf("roundtrip changed edge count")
		}
	})
}
