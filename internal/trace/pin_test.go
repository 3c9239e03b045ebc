package trace

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// The codec pins: testdata/codec_pins.txt holds, for every pin input
// (the testdata traces, one with a 128 KiB locs line, and seeded
// mutations of them), what ParseTraceString makes of it: a hash of the
// parsed trace's Format text, or the full error text. The file was
// recorded with the codec that scanned its input with bufio.Scanner
// and parsed the computation's lines again once joined, so an output
// that differs from it is a behaviour change. TestTraceCodecPinned
// accepts three:
//
//   - line: an error names the input's own line, where the old codec
//     counted a computation error among the lines that were neither
//     blank nor comments;
//   - several: an input with several errors reports the first in the
//     new order (line errors in line order, then a value on a no-op,
//     then Validate) where the old one reported the first in its own
//     (value-line shapes, the computation, values, Validate);
//   - widened: the input has a line over 64 KiB, where the old codec
//     stopped, or a value line whose fields a tab (or any space but
//     ' ') separates, which it read as a computation line; the input
//     now parses, or fails with another error.
//
// In every class an error that names a line names one that is neither
// blank nor a comment. TRACE_PINS_RECORD=1 rewrites the file from the
// code under test.

const tracePinMutations = 2000

// longLocsLine returns a locs line of at least 128 KiB that names locs
// first.
func longLocsLine(locs string) string {
	var b strings.Builder
	b.WriteString("locs " + locs)
	for i := 0; b.Len() < 128<<10; i++ {
		fmt.Fprintf(&b, " pad%d", i)
	}
	return b.String()
}

// tracePinInputs returns the pin inputs in a fixed order.
func tracePinInputs(t testing.TB) []string {
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.trace"))
	if err != nil {
		t.Fatal(err)
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
	rng := rand.New(rand.NewSource(24))
	inputs := append([]string(nil), base...)
	inputs = append(inputs, strings.Replace(base[0], "locs x", longLocsLine("x"), 1))
	for i := 0; i < tracePinMutations; i++ {
		src := base[rng.Intn(len(base))]
		for k := 1 + rng.Intn(3); k > 0; k-- {
			src = mutateText(rng, src)
		}
		inputs = append(inputs, src)
	}
	return inputs
}

var (
	traceTokens = []string{"A", "Z", "x", "y", "data", "RX", "WX", "R1", "=", "?", "⊥", "1", "0", "-7", "abc",
		"N", "R(x)", "W(y)", "Q(y)", "R()", "R(x", "-9223372036854775808", "9223372036854775808",
		"#", "#c", "é", "node", "edge", "locs", "nodes", "observe"}
	traceLines = []string{"# comment", "", "   ", "\t", "#", "node Q N", "node Q W(x) = 3", "node Q R(y) = ?",
		"node\tQ\tR(x)\t=\t1", "node Q N = 1", "edge RX WX", "locs z", "edge Q Q", "node Q R(x) = 1 # note"}
	traceSpaces = []string{"\t", "  ", "\v", "\f", "\r", "\u00a0", "\u2003", "\u0085"}
)

// mutateText applies one seeded edit to a trace: a line deleted,
// duplicated, swapped or inserted (comments and blanks among them), a
// field retyped, dropped or added, a space respelled, the text
// truncated, or its line ends changed.
func mutateText(rng *rand.Rand, src string) string {
	lines := strings.Split(src, "\n")
	i := rng.Intn(len(lines))
	fields := strings.Fields(lines[i])
	switch rng.Intn(10) {
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
			if other := strings.Fields(lines[rng.Intn(len(lines))]); len(other) > 0 && rng.Intn(2) == 0 {
				fields[k] = other[rng.Intn(len(other))]
			} else {
				fields[k] = traceTokens[rng.Intn(len(traceTokens))]
			}
			lines[i] = strings.Join(fields, " ")
		}
	case 4:
		lines = append(lines[:i], append([]string{traceLines[rng.Intn(len(traceLines))]}, lines[i:]...)...)
	case 5:
		if k := strings.IndexByte(lines[i], ' '); k >= 0 {
			lines[i] = lines[i][:k] + traceSpaces[rng.Intn(len(traceSpaces))] + lines[i][k+1:]
		} else {
			lines[i] = traceSpaces[rng.Intn(len(traceSpaces))] + lines[i]
		}
	case 6:
		s := strings.Join(lines, "\n")
		return s[:rng.Intn(len(s)+1)]
	case 7:
		if rng.Intn(2) == 0 {
			return strings.ReplaceAll(strings.Join(lines, "\n"), "\n", "\r\n")
		}
		lines[i] += traceSpaces[rng.Intn(len(traceSpaces))]
	case 8:
		if len(fields) > 1 {
			k := 1 + rng.Intn(len(fields)-1)
			lines[i] = strings.Join(append(fields[:k:k], fields[k+1:]...), " ")
		}
	case 9:
		lines[i] += " " + traceTokens[rng.Intn(len(traceTokens))]
	}
	return strings.Join(lines, "\n")
}

// tracePinOutput renders a parse's result: "P" and a hash of the
// parsed trace's Format text, or "E" and the quoted error.
func tracePinOutput(nt *NamedTrace, err error) string {
	if err != nil {
		return "E " + strconv.Quote(err.Error())
	}
	var b strings.Builder
	if err := nt.Format(&b); err != nil {
		panic(err)
	}
	sum := sha256.Sum256([]byte(b.String()))
	return "P " + hex.EncodeToString(sum[:6])
}

// contentLines returns the numbers of the lines of input that are
// neither blank nor a whole-line comment.
func contentLines(input string) []int {
	var nums []int
	for i, line := range strings.Split(input, "\n") {
		if f := strings.Fields(line); len(f) > 0 && f[0][0] != '#' {
			nums = append(nums, i+1)
		}
	}
	return nums
}

var pinLineErr = regexp.MustCompile(`(?s)^line (\d+): (.*)$`)

// pinErr is an error text read into the kind of check that made it and
// the input line it concerns (noLine for a whole-text check).
type pinErr struct {
	kind, msg string
	line      int
}

const noLine = 1 << 30

// readTraceErr classifies an error text. The old codec numbered a
// computation error among the content lines; numbered maps such a
// number back to the input's line when text came from it.
func readTraceErr(text string, numbered []int) pinErr {
	m := pinLineErr.FindStringSubmatch(text)
	if m == nil {
		kind := "whole" // the cycle check, or the computation's recover fence
		switch {
		case text == bufio.ErrTooLong.Error():
			kind = "toolong"
		case strings.HasPrefix(text, "trace: "):
			kind = "validate"
		}
		return pinErr{kind: kind, msg: text, line: noLine}
	}
	n, _ := strconv.Atoi(m[1])
	e := pinErr{msg: m[2], line: n}
	switch {
	case e.msg == "want `node NAME OP = VALUE`":
		e.kind = "shape"
	case strings.HasPrefix(e.msg, "bad value ") || strings.HasPrefix(e.msg, "value "):
		e.kind = "value"
	case strings.HasPrefix(e.msg, "no-op node "):
		e.kind = "noop"
	default:
		e.kind = "comp"
		if n <= len(numbered) {
			e.line = numbered[n-1]
		}
	}
	return e
}

// Where each kind of error falls in the old and the new order: a phase,
// then the line, then the order of checks within one line.
var (
	traceOldOrder = map[string][2]int{"shape": {0, 0}, "comp": {1, 0}, "whole": {1, 0},
		"value": {2, 0}, "noop": {2, 1}, "validate": {3, 0}}
	traceNewOrder = map[string][2]int{"shape": {0, 0}, "value": {0, 0}, "comp": {0, 1}, "whole": {1, 0},
		"noop": {2, 0}, "validate": {3, 0}}
)

// before reports whether a comes before b in the order.
func before(order map[string][2]int, a, b pinErr) bool {
	ka, kb := order[a.kind], order[b.kind]
	if ka[0] != kb[0] {
		return ka[0] < kb[0]
	}
	if a.line != b.line {
		return a.line < b.line
	}
	return ka[1] < kb[1]
}

// judgeTrace names the class of the difference between an input's pin
// (want) and what the code under test makes of it (got), or returns
// why the difference is not one TestTraceCodecPinned accepts.
func judgeTrace(input, want, got string) (string, error) {
	if got == want {
		return "same", nil
	}
	wantText, ok := strings.CutPrefix(want, "E ")
	if !ok {
		return "", fmt.Errorf("parsed at the pin, now %s", got)
	}
	wantErr, err := strconv.Unquote(wantText)
	if err != nil {
		return "", err
	}
	nums := contentLines(input)
	lines := strings.Split(input, "\n")
	old := readTraceErr(wantErr, nums)
	var now *pinErr
	if gotText, ok := strings.CutPrefix(got, "E "); ok {
		gotErr, err := strconv.Unquote(gotText)
		if err != nil {
			return "", err
		}
		e := readTraceErr(gotErr, nil)
		if i := sort.SearchInts(nums, e.line); e.line != noLine && (i == len(nums) || nums[i] != e.line) {
			return "", fmt.Errorf("error %q names no content line", gotErr)
		}
		now = &e
	}
	widened := false
	for _, l := range lines {
		f := strings.Fields(l)
		widened = widened || len(l) >= bufio.MaxScanTokenSize ||
			len(f) > 0 && f[0] == "node" && slices.Contains(f, "=") && !strings.HasPrefix(strings.TrimSpace(l), "node ")
	}
	switch {
	case widened:
		return "widened", nil
	case now == nil:
		return "", fmt.Errorf("rejected at the pin (%s), now parses", wantErr)
	case now.kind == old.kind && now.msg == old.msg && now.line == old.line:
		return "line", nil
	case before(traceNewOrder, *now, old) && before(traceOldOrder, old, *now):
		return "several", nil
	}
	return "", fmt.Errorf("error %q, pinned %q", now.msg, wantErr)
}

func TestTraceCodecPinned(t *testing.T) {
	inputs := tracePinInputs(t)
	path := filepath.Join("testdata", "codec_pins.txt")
	if os.Getenv("TRACE_PINS_RECORD") == "1" {
		var b strings.Builder
		for _, in := range inputs {
			b.WriteString(tracePinOutput(ParseTraceString(in)) + "\n")
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
	pins := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(pins) != len(inputs) {
		t.Fatalf("%d pins for %d inputs", len(pins), len(inputs))
	}
	classes := map[string]int{}
	for i, in := range inputs {
		got := tracePinOutput(ParseTraceString(in))
		if tracePinOutput(ParseTrace(strings.NewReader(in))) != got {
			t.Errorf("input %d: ParseTrace and ParseTraceString disagree", i)
		}
		class, err := judgeTrace(in, pins[i], got)
		if err != nil {
			t.Errorf("input %d drifted from its pin: %v\n%q", i, err, in)
			continue
		}
		classes[class]++
	}
	t.Logf("%d inputs: %d same, %d line, %d several, %d widened", len(inputs),
		classes["same"], classes["line"], classes["several"], classes["widened"])
}
