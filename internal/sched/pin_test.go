package sched

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
// (the schedule FormatSchedule writes for testdata/stale_read.ccm
// list-scheduled on P = 2, the same with comments, one with a 128 KiB
// locs line, and seeded mutations of the first two), what
// ParseScheduleString makes of it: a hash of the parsed schedule's
// FormatSchedule text, or the full error text. The file was recorded
// with the codec that scanned its input with bufio.Scanner and parsed
// the computation's lines again once joined, so an output that differs
// from it is a behaviour change. TestScheduleCodecPinned accepts four:
//
//   - line: an error names the input's own line, where the old codec
//     counted a computation error among the computation's lines only;
//   - several: an input with several errors reports the first in the
//     new order (line errors in line order, then assign names, then the
//     whole-text checks) where the old one reported the first in its
//     own (schedule lines, `schedule P`, the computation, the assign
//     count, assign names, the order, Validate);
//   - widened: the input has a line over 64 KiB, where the old codec
//     stopped; the input now parses, or fails with another error;
//   - order line: an unknown name on the order line names that line,
//     where the old codec reported it without a line.
//
// In every class an error that names a line names one that is neither
// blank nor a comment. SCHED_PINS_RECORD=1 rewrites the file from the
// code under test.

const schedPinMutations = 2000

// staleReadSchedule returns the schedule text of testdata/stale_read.ccm
// list-scheduled on two processors, the shape of a chaos artifact.
func staleReadSchedule(t testing.TB) string {
	b, err := os.ReadFile(filepath.Join("..", "..", "testdata", "stale_read.ccm"))
	if err != nil {
		t.Fatal(err)
	}
	named, err := computation.ParseString(string(b))
	if err != nil {
		t.Fatal(err)
	}
	s, err := ListSchedule(named.Comp, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	var w strings.Builder
	if err := FormatSchedule(&w, named, s); err != nil {
		t.Fatal(err)
	}
	return w.String()
}

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

// schedPinInputs returns the pin inputs in a fixed order.
func schedPinInputs(t testing.TB) []string {
	plain := staleReadSchedule(t)
	commented := "# stale read on two processors\n\n" +
		strings.Replace(strings.Replace(plain, "schedule 2\n", "schedule 2 # processors\n", 1),
			"\nassign", "\n# node proc start finish\nassign", 1)
	base := []string{plain, commented}
	rng := rand.New(rand.NewSource(24))
	inputs := append(append([]string(nil), base...), strings.Replace(plain, "locs x", longLocsLine("x"), 1))
	for i := 0; i < schedPinMutations; i++ {
		src := base[rng.Intn(len(base))]
		for k := 1 + rng.Intn(3); k > 0; k-- {
			src = mutateSchedule(rng, src)
		}
		inputs = append(inputs, src)
	}
	return inputs
}

var (
	schedTokens = []string{"A", "B", "C", "Z", "x", "0", "1", "2", "-1", "3", "9223372036854775808", "abc",
		"N", "R(x)", "W(x)", "Q(x)", "#", "#c", "a#b", "schedule", "steals", "assign", "order", "node", "edge"}
	schedLines = []string{"# comment", "", "  ", "\t", "#", "schedule 2", "steals 1", "steals -1", "order",
		"assign A 0 0 1", "assign Z 0 0 1", "order A B C", "node Q N", "node Q N # a note", "edge A B # a note",
		"locs y", "assign A 0 0 1 # a note"}
	schedSpaces = []string{"\t", "  ", "\v", "\f", "\r", "\u00a0", "\u2003", "\u0085"}
)

// mutateSchedule applies one seeded edit to a schedule: a line deleted,
// duplicated, swapped or inserted (comments and blanks among them), a
// field retyped, dropped or added, a space respelled, the text
// truncated, or its line ends changed.
func mutateSchedule(rng *rand.Rand, src string) string {
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
				fields[k] = schedTokens[rng.Intn(len(schedTokens))]
			}
			lines[i] = strings.Join(fields, " ")
		}
	case 4:
		lines = append(lines[:i], append([]string{schedLines[rng.Intn(len(schedLines))]}, lines[i:]...)...)
	case 5:
		if k := strings.IndexByte(lines[i], ' '); k >= 0 {
			lines[i] = lines[i][:k] + schedSpaces[rng.Intn(len(schedSpaces))] + lines[i][k+1:]
		} else {
			lines[i] = schedSpaces[rng.Intn(len(schedSpaces))] + lines[i]
		}
	case 6:
		s := strings.Join(lines, "\n")
		return s[:rng.Intn(len(s)+1)]
	case 7:
		if rng.Intn(2) == 0 {
			return strings.ReplaceAll(strings.Join(lines, "\n"), "\n", "\r\n")
		}
		lines[i] += schedSpaces[rng.Intn(len(schedSpaces))]
	case 8:
		if len(fields) > 1 {
			k := 1 + rng.Intn(len(fields)-1)
			lines[i] = strings.Join(append(fields[:k:k], fields[k+1:]...), " ")
		}
	case 9:
		lines[i] += " " + schedTokens[rng.Intn(len(schedTokens))]
	}
	return strings.Join(lines, "\n")
}

// schedPinOutput renders a parse's result: "P" and a hash of the parsed
// schedule's FormatSchedule text, or "E" and the quoted error.
func schedPinOutput(named *computation.Named, s *Schedule, err error) string {
	if err != nil {
		return "E " + strconv.Quote(err.Error())
	}
	var b strings.Builder
	if err := FormatSchedule(&b, named, s); err != nil {
		panic(err)
	}
	sum := sha256.Sum256([]byte(b.String()))
	return "P " + hex.EncodeToString(sum[:6])
}

var scheduleDirectives = map[string]bool{"schedule": true, "steals": true, "assign": true, "order": true}

// scheduleLines returns the numbers of the lines of input that are
// neither blank nor a comment once a '#' has cut them, of those the
// ones that belong to the computation, and the first order line's.
func scheduleLines(input string) (content, computation []int, order int) {
	for i, line := range strings.Split(input, "\n") {
		line, _, _ = strings.Cut(line, "#")
		if f := strings.Fields(line); len(f) > 0 {
			content = append(content, i+1)
			if !scheduleDirectives[f[0]] {
				computation = append(computation, i+1)
			}
			if f[0] == "order" && order == 0 {
				order = i + 1
			}
		}
	}
	return content, computation, order
}

var pinLineErr = regexp.MustCompile(`(?s)^line (\d+): (.*)$`)

// pinErr is an error text read into the kind of check that made it and
// the input line it concerns (noLine for a whole-text check).
type pinErr struct {
	kind, msg string
	line      int
}

const noLine = 1 << 30

var (
	schedLineMsg = regexp.MustCompile("^(want one `schedule P`|bad processor count |want `steals N`|bad steal count |" +
		"want `assign NODE PROC START FINISH`|bad assign numbers|duplicate order directive)")
	schedAssignMsg = regexp.MustCompile(`^(unknown node |duplicate assign for )`)
	schedWholeMsg  = []struct{ kind, prefix string }{
		{"toolong", bufio.ErrTooLong.Error()},
		{"missing", "sched: missing `schedule P`"},
		{"order", "sched: order lists "},
		{"ordername", "sched: unknown node "},
		{"validate", "sched: "}, // after the other sched: checks
	}
	schedAssignCount = regexp.MustCompile(`^sched: \d+ assign lines for `)
)

// readScheduleErr classifies an error text. The old codec numbered a
// computation error among the computation's lines; numbered maps such a
// number back to the input's line when text came from it.
func readScheduleErr(text string, numbered []int) pinErr {
	m := pinLineErr.FindStringSubmatch(text)
	if m == nil {
		e := pinErr{kind: "whole", msg: text, line: noLine} // the cycle check, or a recover fence
		if schedAssignCount.MatchString(text) {
			e.kind = "count"
			return e
		}
		for _, w := range schedWholeMsg {
			if strings.HasPrefix(text, w.prefix) {
				e.kind = w.kind
				break
			}
		}
		return e
	}
	n, _ := strconv.Atoi(m[1])
	e := pinErr{msg: m[2], line: n}
	switch {
	case schedLineMsg.MatchString(e.msg):
		e.kind = "directive"
	case strings.HasSuffix(e.msg, " in order"):
		e.kind = "ordername"
	case schedAssignMsg.MatchString(e.msg):
		e.kind = "assign"
	default:
		e.kind = "comp"
		if numbered != nil && n <= len(numbered) {
			e.line = numbered[n-1]
		}
	}
	return e
}

// The phase in which each kind of error falls in the old and the new
// order; within a phase, errors come in line order.
var (
	schedOldOrder = map[string]int{"directive": 0, "missing": 1, "comp": 2, "whole": 2,
		"count": 3, "assign": 4, "order": 5, "ordername": 6, "validate": 7}
	schedNewOrder = map[string]int{"directive": 0, "comp": 0, "whole": 1, "assign": 2, "missing": 3,
		"count": 4, "order": 5, "ordername": 6, "validate": 7}
)

// before reports whether a comes before b in the order.
func before(order map[string]int, a, b pinErr) bool {
	if order[a.kind] != order[b.kind] {
		return order[a.kind] < order[b.kind]
	}
	return a.line < b.line
}

// judgeSchedule names the class of the difference between an input's
// pin (want) and what the code under test makes of it (got), or returns
// why the difference is not one TestScheduleCodecPinned accepts.
func judgeSchedule(input, want, got string) (string, error) {
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
	content, comp, orderLine := scheduleLines(input)
	old := readScheduleErr(wantErr, comp)
	var now *pinErr
	if gotText, ok := strings.CutPrefix(got, "E "); ok {
		gotErr, err := strconv.Unquote(gotText)
		if err != nil {
			return "", err
		}
		e := readScheduleErr(gotErr, nil)
		if i := sort.SearchInts(content, e.line); e.line != noLine && (i == len(content) || content[i] != e.line) {
			return "", fmt.Errorf("error %q names no content line", gotErr)
		}
		now = &e
	}
	widened := false
	for _, l := range strings.Split(input, "\n") {
		widened = widened || len(l) >= bufio.MaxScanTokenSize
	}
	switch {
	case widened:
		return "widened", nil
	case now == nil:
		return "", fmt.Errorf("rejected at the pin (%s), now parses", wantErr)
	case now.kind == old.kind && now.msg == old.msg && now.line == old.line:
		return "line", nil
	case now.kind == "ordername" && old.kind == "ordername" && "sched: "+now.msg == old.msg && now.line == orderLine:
		return "order line", nil
	case before(schedNewOrder, *now, old) && before(schedOldOrder, old, *now):
		return "several", nil
	}
	return "", fmt.Errorf("error %q, pinned %q", now.msg, wantErr)
}

func TestScheduleCodecPinned(t *testing.T) {
	inputs := schedPinInputs(t)
	path := filepath.Join("testdata", "codec_pins.txt")
	if os.Getenv("SCHED_PINS_RECORD") == "1" {
		var b strings.Builder
		for _, in := range inputs {
			b.WriteString(schedPinOutput(ParseScheduleString(in)) + "\n")
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
		got := schedPinOutput(ParseScheduleString(in))
		if schedPinOutput(ParseSchedule(strings.NewReader(in))) != got {
			t.Errorf("input %d: ParseSchedule and ParseScheduleString disagree", i)
		}
		class, err := judgeSchedule(in, pins[i], got)
		if err != nil {
			t.Errorf("input %d drifted from its pin: %v\n%q", i, err, in)
			continue
		}
		classes[class]++
	}
	t.Logf("%d inputs: %d same, %d line, %d several, %d widened, %d order line", len(inputs),
		classes["same"], classes["line"], classes["several"], classes["widened"], classes["order line"])
}
