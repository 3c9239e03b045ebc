package observer

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"
)

// FuzzParsePair drives the combined computation+observer parser with
// arbitrary input. The contract of the input boundary: any byte
// sequence either parses into a pair whose observer validates against
// its computation, or returns an error that names, if any line, one
// that is neither blank nor a comment — never a panic. Reading the
// input through an io.Reader parses it exactly as the string does, and
// the canonical text is a fixpoint: FormatPair's output re-parses to
// an equal pair and formats to the same bytes, which is what lets the
// daemon key its cache on it.
func FuzzParsePair(f *testing.F) {
	seeds, _ := filepath.Glob(filepath.Join("..", "..", "testdata", "*.ccm"))
	for _, p := range seeds {
		if b, err := os.ReadFile(p); err == nil {
			f.Add(string(b))
		}
	}
	f.Add("locs x\nnode A W(x)\nnode B R(x)\nedge A B\nobserve B x A\n")
	f.Add("locs x\nnode A W(x)\nobserve A x bottom\n") // write observing ⊥ (invalid)
	f.Add("observe A x A\n")                           // observe with no computation
	f.Add("locs x x\nobserve A x A\n")                 // duplicate location
	f.Add("locs x\nnode A W(x)\nnode B R(x)\nobserveXYZ B x A\n")
	f.Add("locs x\nnode A W(x)\nnode B R(x)\nobserver B x A\n")
	f.Add(pin24())
	f.Fuzz(func(t *testing.T, input string) {
		named, o, err := ParsePairString(input)
		rnamed, ro, rerr := ParsePair(iotest.OneByteReader(strings.NewReader(input)))
		if (err == nil) != (rerr == nil) || (err != nil && err.Error() != rerr.Error()) {
			t.Fatalf("ParsePairString error %v, ParsePair error %v", err, rerr)
		}
		if err != nil {
			// An error that names a line names one that is neither blank
			// nor a comment.
			if m := lineErr.FindStringSubmatch(err.Error()); m != nil {
				n, _ := strconv.Atoi(m[1])
				if lines := strings.Split(input, "\n"); n < 1 || n > len(lines) {
					t.Fatalf("error %q names line %d of %d", err, n, len(lines))
				} else if f := strings.Fields(lines[n-1]); len(f) == 0 || f[0][0] == '#' {
					t.Fatalf("error %q names a blank or comment line: %q", err, lines[n-1])
				}
			}
			return
		}
		if !samePair(named.Comp.Equal(rnamed.Comp), o, ro, named.NodeName, rnamed.NodeName) {
			t.Fatal("ParsePair and ParsePairString parse different pairs")
		}
		// ParsePair validates before returning; re-check the
		// postcondition explicitly so fuzzing pins it.
		if verr := o.Validate(named.Comp); verr != nil {
			t.Fatalf("parsed observer fails validation: %v", verr)
		}
		canon := AppendPair(nil, named, o)
		again, o2, err := ParsePairString(string(canon))
		if err != nil {
			t.Fatalf("canonical text does not re-parse: %v\n%s", err, canon)
		}
		if !samePair(named.Comp.Equal(again.Comp), o, o2, named.NodeName, again.NodeName) {
			t.Fatalf("canonical text re-parses to a different pair:\n%s", canon)
		}
		if twice := AppendPair(nil, again, o2); !bytes.Equal(canon, twice) {
			t.Fatalf("canonical text is not a fixpoint:\n%s\nformats to\n%s", canon, twice)
		}
	})
}

func samePair(compEqual bool, o, p *Observer, names, pnames []string) bool {
	return compEqual && o.Equal(p) && slices.Equal(names, pnames)
}
