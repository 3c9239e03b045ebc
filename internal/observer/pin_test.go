package observer

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/computation"
)

// The codec pins: testdata/codec_pins.txt holds, for every pin input
// (the testdata pairs, a 24-node two-location pair and seeded mutations
// of them), a hash of what ParsePairString and computation.ParseString
// make of it: the canonical text of the parsed pair or computation, or
// the error text. The file was recorded with the line-by-line codec
// that the one-pass codec replaced, so an output that differs from it
// is a behaviour change. Exactly two are expected, and
// TestCodecPinned checks that every difference is one of them:
//
//   - a line whose first field merely starts with "observe" (observer,
//     observeXYZ) was an observe line; now it is an unknown directive;
//   - pair errors counted computation lines and observe lines apart;
//     now both name the input's own line.
//
// CODEC_PINS_RECORD=1 rewrites the file from the code under test.

const pinMutations = 2400

// pin24 is a 24-node pair over two locations, written out in full
// (default observer entries included) so that canonicalization has
// something to erase.
func pin24() string {
	rng := rand.New(rand.NewSource(24))
	ops := []string{"N", "R(x)", "W(x)", "R(y)", "W(y)"}
	var b strings.Builder
	b.WriteString("# a 24-node pair\nlocs x y\n")
	kinds := make([]string, 24)
	for u := range kinds {
		kinds[u] = ops[rng.Intn(len(ops))]
		fmt.Fprintf(&b, "node n%d %s\n", u, kinds[u])
	}
	for u := 0; u < 24; u++ {
		for v := u + 1; v < 24; v++ {
			if rng.Float64() < 0.25 {
				fmt.Fprintf(&b, "edge n%d n%d\n", u, v)
			}
		}
	}
	for _, loc := range []string{"x", "y"} {
		last := "bottom"
		for u := 0; u < 24; u++ {
			if kinds[u] == "W("+loc+")" {
				last = "n" + strconv.Itoa(u)
			}
			fmt.Fprintf(&b, "observe n%d %s %s\n", u, loc, last)
		}
	}
	return b.String()
}

// pinInputs returns the pin inputs in a fixed order.
func pinInputs(t testing.TB) []string {
	var paths []string
	for _, glob := range []string{"*.ccm", "litmus/*.ccm"} {
		ps, err := filepath.Glob(filepath.Join("..", "..", "testdata", glob))
		if err != nil {
			t.Fatal(err)
		}
		paths = append(paths, ps...)
	}
	sort.Strings(paths)
	var base []string
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		base = append(base, string(b))
	}
	base = append(base, pin24())
	rng := rand.New(rand.NewSource(23))
	inputs := append([]string(nil), base...)
	for i := 0; i < pinMutations; i++ {
		src := base[rng.Intn(len(base))]
		for k := 1 + rng.Intn(3); k > 0; k-- {
			src = mutatePair(rng, src)
		}
		inputs = append(inputs, src)
	}
	return inputs
}

var (
	pinTokens     = []string{"A", "B", "Z", "x", "y", "z", "bottom", "⊥", "N", "R(x)", "W(y)", "R()", "W(q)", "X(x)", "R(x", "é", "n3", "n30"}
	pinDirectives = []string{"observe", "observer", "observeXYZ", "Observe", "node", "nodes", "edge", "locs", "bogus", "#observe"}
	pinLines      = []string{"observe A x bottom", "observe B x A", "# comment", "", "   ", "locs z", "node Q N", "edge A B",
		"observe", "\tobserve\tB\tx\t⊥", "observe B x A extra", "node Q W(x)", "edge Q Q", "observer B x A", "observeXYZ n1 y n0"}
	pinSpaces = []string{"\t", "  ", "\v", "\f", "\r", "\u00a0", "\u2003", "\u0085", "\u2028"}
)

// mutatePair applies one seeded edit to a pair text: a line deleted,
// duplicated, swapped, inserted or retyped, a field replaced, dropped
// or added, a space respelled, the text truncated, or its line ends
// changed.
func mutatePair(rng *rand.Rand, src string) string {
	lines := strings.Split(src, "\n")
	i := rng.Intn(len(lines))
	fields := strings.Fields(lines[i])
	switch rng.Intn(11) {
	case 0:
		lines = append(lines[:i], lines[i+1:]...)
	case 1:
		j := rng.Intn(len(lines))
		lines = append(lines[:j], append([]string{lines[i]}, lines[j:]...)...)
	case 2:
		j := rng.Intn(len(lines))
		lines[i], lines[j] = lines[j], lines[i]
	case 3:
		if len(fields) > 0 {
			k := rng.Intn(len(fields))
			if rng.Intn(2) == 0 {
				// A token from elsewhere in the text keeps names valid.
				other := strings.Fields(lines[rng.Intn(len(lines))])
				if len(other) > 0 {
					fields[k] = other[rng.Intn(len(other))]
				}
			} else {
				fields[k] = pinTokens[rng.Intn(len(pinTokens))]
			}
			lines[i] = strings.Join(fields, " ")
		}
	case 4:
		if len(fields) > 0 {
			fields[0] = pinDirectives[rng.Intn(len(pinDirectives))]
			lines[i] = strings.Join(fields, " ")
		}
	case 5:
		l := pinLines[rng.Intn(len(pinLines))]
		lines = append(lines[:i], append([]string{l}, lines[i:]...)...)
	case 6:
		if k := strings.IndexByte(lines[i], ' '); k >= 0 {
			lines[i] = lines[i][:k] + pinSpaces[rng.Intn(len(pinSpaces))] + lines[i][k+1:]
		} else {
			lines[i] = pinSpaces[rng.Intn(len(pinSpaces))] + lines[i]
		}
	case 7:
		s := strings.Join(lines, "\n")
		return s[:rng.Intn(len(s)+1)]
	case 8:
		if rng.Intn(2) == 0 {
			return strings.ReplaceAll(strings.Join(lines, "\n"), "\n", "\r\n")
		}
		lines[i] += pinSpaces[rng.Intn(len(pinSpaces))]
	case 9:
		if len(fields) > 1 {
			k := 1 + rng.Intn(len(fields)-1)
			lines[i] = strings.Join(append(fields[:k:k], fields[k+1:]...), " ")
		}
	case 10:
		lines[i] += " " + pinTokens[rng.Intn(len(pinTokens))]
	}
	return strings.Join(lines, "\n")
}

// pinOutput renders what the codec makes of input: the pair and the
// computation parses, each as its canonical text or its error.
func pinOutput(input string) string {
	var b strings.Builder
	if named, o, err := ParsePairString(input); err != nil {
		b.WriteString("E " + err.Error())
	} else {
		b.WriteString("P ")
		if err := FormatPair(&b, named, o); err != nil {
			panic(err)
		}
	}
	b.WriteByte(0)
	if named, err := computation.ParseString(input); err != nil {
		b.WriteString("E " + err.Error())
	} else {
		b.WriteString("C " + named.FormatString())
	}
	return b.String()
}

func pinHash(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:6])
}

// routedToObserve reports whether the line-by-line codec sent line to
// the observer parser: every line that starts with "observe" once
// trimmed.
func routedToObserve(line string) bool {
	return strings.HasPrefix(strings.TrimSpace(line), "observe")
}

var lineErr = regexp.MustCompile(`^line (\d+): `)

// legacyOutput is what the line-by-line codec made of input, derived
// from the code under test by undoing the two fixes: misspelled observe
// directives are spelled "observe" (the old codec read them so), and a
// pair error's line number counts only the lines of its own kind.
func legacyOutput(input string) string {
	lines := strings.Split(input, "\n")
	for i, line := range lines {
		if f := strings.Fields(line); routedToObserve(line) && len(f) > 0 && f[0] != "observe" {
			lines[i] = strings.Replace(line, f[0], "observe", 1)
		}
	}
	// The computation parser never read observe lines, so its output is
	// the input's own.
	pair, _, _ := strings.Cut(pinOutput(strings.Join(lines, "\n")), "\x00")
	_, comp, _ := strings.Cut(pinOutput(input), "\x00")
	m := lineErr.FindStringSubmatch(strings.TrimPrefix(pair, "E "))
	if !strings.HasPrefix(pair, "E ") || m == nil {
		return pair + "\x00" + comp
	}
	at, _ := strconv.Atoi(m[1])
	// Number the lines as bufio.Scanner split them.
	sc := bufio.NewScanner(strings.NewReader(input))
	obsLine, compLine := 0, 0
	for n := 1; sc.Scan() && n <= at; n++ {
		if routedToObserve(sc.Text()) {
			obsLine++
		} else {
			compLine++
		}
		if n == at {
			rest := strings.TrimPrefix(pair, "E "+m[0])
			if routedToObserve(sc.Text()) {
				pair = fmt.Sprintf("E observe line %d: %s", obsLine, rest)
			} else {
				pair = fmt.Sprintf("E line %d: %s", compLine, rest)
			}
		}
	}
	return pair + "\x00" + comp
}

func TestCodecPinned(t *testing.T) {
	inputs := pinInputs(t)
	path := filepath.Join("testdata", "codec_pins.txt")
	if os.Getenv("CODEC_PINS_RECORD") == "1" {
		var b strings.Builder
		for _, in := range inputs {
			b.WriteString(pinHash(pinOutput(in)) + "\n")
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	pins := strings.Fields(string(data))
	if len(pins) != len(inputs) {
		t.Fatalf("%d pins for %d inputs", len(pins), len(inputs))
	}
	fixed := 0
	for i, in := range inputs {
		got := pinOutput(in)
		if named, o, err := ParsePair(strings.NewReader(in)); err != nil {
			if _, _, err2 := ParsePairString(in); err2 == nil || err.Error() != err2.Error() {
				t.Errorf("input %d: ParsePair error %v, ParsePairString error %v", i, err, err2)
			}
		} else if n2, o2, err2 := ParsePairString(in); err2 != nil || !named.Comp.Equal(n2.Comp) || !o.Equal(o2) {
			t.Errorf("input %d: ParsePair and ParsePairString disagree", i)
		}
		if pinHash(got) == pins[i] {
			continue
		}
		if pinHash(legacyOutput(in)) != pins[i] {
			t.Errorf("input %d drifted from its pin:\n%q\ngot %q", i, in, got)
			continue
		}
		fixed++
	}
	t.Logf("%d inputs, %d differ from the line-by-line codec only by the two fixes", len(inputs), fixed)
}
