package sched

import (
	"strconv"
	"strings"
	"testing"
)

// FuzzParseSchedule drives the schedule parser with arbitrary input.
// The contract of the input boundary: any byte sequence either parses
// into a schedule that validates, or returns an error that names, if
// any line, one that is neither blank nor a comment — never a panic.
// FormatSchedule's text of a parsed schedule re-parses and formats to
// the same text, which is what lets backersim -replay load the
// schedules chaos artifacts carry.
func FuzzParseSchedule(f *testing.F) {
	f.Add(litmusSchedText)
	f.Add(staleReadSchedule(f))
	f.Add("schedule 1\n# c\n\nlocs x\nnode A N\nnode B Q(x)\n")                   // bad op after comments
	f.Add("schedule 2 # processors\nlocs x\nnode A N\nassign A 0 0 1\norder A\n") // trailing comment
	f.Add("locs x\nnode A N\nassign A 0 0 1\norder A\n")                          // no schedule line
	f.Add("schedule 1\nlocs x\nnode A N\nnode B N\nedge A B\n" +
		"assign A 0 1 2\nassign B 0 0 1\norder B A\n") // order violates the dag
	f.Fuzz(func(t *testing.T, input string) {
		named, s, err := ParseScheduleString(input)
		if err != nil {
			checkErrorLine(t, input, err)
			return
		}
		if verr := s.Validate(); verr != nil {
			t.Fatalf("parsed schedule fails validation: %v", verr)
		}
		var text strings.Builder
		if err := FormatSchedule(&text, named, s); err != nil {
			t.Fatal(err)
		}
		named2, s2, err := ParseScheduleString(text.String())
		if err != nil {
			t.Fatalf("formatted schedule does not re-parse: %v\n%s", err, text.String())
		}
		var again strings.Builder
		if err := FormatSchedule(&again, named2, s2); err != nil {
			t.Fatal(err)
		}
		if again.String() != text.String() {
			t.Fatalf("formatted schedule re-parses to another text:\n%s\nvs\n%s", text.String(), again.String())
		}
	})
}

// checkErrorLine fails t when err names a line of input that is blank
// or a comment once a '#' has cut it, or no line of input at all.
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
	if line, _, _ := strings.Cut(lines[n-1], "#"); strings.TrimSpace(line) == "" {
		t.Fatalf("error %q names a blank or comment line: %q", err, lines[n-1])
	}
}
