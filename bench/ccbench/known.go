package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/memmodel"
	"repro/internal/serve"
)

// Known answers: every workload checks each answer against one it knows
// without trusting the code under test.

// models is the order /v1/check reports models in when a request names
// none.
var models = memmodel.ModelNames()

// modelIndex maps a model name to its position in models.
func modelIndex(name string) int {
	for i, m := range models {
		if m == name {
			return i
		}
	}
	panic("ccbench: unknown model " + name)
}

var verdictMarker = []byte(`"verdict":{"text":"`)

// parseVerdicts extracts the verdict spellings ("IN", "OUT",
// "INCONCLUSIVE(...)") from a /v1/check response body, in response order.
// It scans instead of decoding so the load generator stays cheap next to
// the daemon it shares the cores with.
func parseVerdicts(body []byte) ([]string, error) {
	var out []string
	for {
		i := bytes.Index(body, verdictMarker)
		if i < 0 {
			break
		}
		body = body[i+len(verdictMarker):]
		j := bytes.IndexByte(body, '"')
		if j < 0 {
			return nil, fmt.Errorf("unterminated verdict in response")
		}
		out = append(out, string(body[:j]))
		body = body[j:]
	}
	if len(out) != len(models) {
		return nil, fmt.Errorf("response has %d verdicts, want %d", len(out), len(models))
	}
	return out, nil
}

// inclusions are the lattice inclusions every pair's verdicts must
// respect: SC is contained in every model, and
// LC ⊆ NN ⊆ NW, WN ⊆ WW (Figure 1).
var inclusions = func() [][2]int {
	var out [][2]int
	for _, m := range models[1:] {
		out = append(out, [2]int{modelIndex("SC"), modelIndex(m)})
	}
	for _, e := range [][2]string{{"LC", "NN"}, {"NN", "NW"}, {"NN", "WN"}, {"NW", "WW"}, {"WN", "WW"}} {
		out = append(out, [2]int{modelIndex(e[0]), modelIndex(e[1])})
	}
	return out
}()

// staleOut are the models a stale pair is never in.
var staleOut = []string{"SC", "LC", "NN", "NW", "WN", "WW"}

// checkFamily checks one check-miss answer against its family's known
// answer. Every verdict must be decided.
func checkFamily(fam uint8, verdicts []string) error {
	for i, v := range verdicts {
		if v != "IN" && v != "OUT" {
			return fmt.Errorf("%s: %s verdict %s", familyNames[fam], models[i], v)
		}
	}
	switch fam {
	case familyLastWriter:
		for i, v := range verdicts {
			if v != "IN" {
				return fmt.Errorf("lastwriter pair is %s of %s, want IN", v, models[i])
			}
		}
	case familyStale:
		for _, m := range staleOut {
			if verdicts[modelIndex(m)] != "OUT" {
				return fmt.Errorf("stale pair is IN %s, want OUT", m)
			}
		}
	}
	for _, inc := range inclusions {
		if verdicts[inc[0]] == "IN" && verdicts[inc[1]] != "IN" {
			return fmt.Errorf("%s pair is IN %s but OUT of %s", familyNames[fam], models[inc[0]], models[inc[1]])
		}
	}
	return nil
}

// fixture is one litmus pair with its golden verdict line.
type fixture struct {
	name string
	body []byte   // the POST /v1/check body
	want []string // golden verdicts in models order
}

// loadLitmus reads the litmus corpus and its golden verdicts.txt from
// dir. Every fixture must have a golden line.
func loadLitmus(dir string) ([]fixture, error) {
	golden, err := os.ReadFile(filepath.Join(dir, "verdicts.txt"))
	if err != nil {
		return nil, err
	}
	want := make(map[string][]string)
	for _, line := range strings.Split(strings.TrimSpace(string(golden)), "\n") {
		fields := strings.Fields(line)
		if len(fields) != len(models)+1 {
			return nil, fmt.Errorf("verdicts.txt: malformed line %q", line)
		}
		vs := make([]string, len(models))
		for i, f := range fields[1:] {
			m, v, ok := strings.Cut(f, "=")
			if !ok || m != models[i] {
				return nil, fmt.Errorf("verdicts.txt: line %q: want %s=... in position %d", line, models[i], i+1)
			}
			vs[i] = v
		}
		want[fields[0]] = vs
	}
	paths, err := filepath.Glob(filepath.Join(dir, "*.ccm"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	var out []fixture
	for _, p := range paths {
		name := strings.TrimSuffix(filepath.Base(p), ".ccm")
		vs, ok := want[name]
		if !ok {
			return nil, fmt.Errorf("verdicts.txt has no line for %s", name)
		}
		text, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		body, err := json.Marshal(serve.CheckRequest{Pair: string(text)})
		if err != nil {
			return nil, err
		}
		out = append(out, fixture{name: name, body: body, want: vs})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no litmus fixtures in %s", dir)
	}
	return out, nil
}

// checkLitmus checks one check-hit answer against the golden line.
func checkLitmus(f fixture, verdicts []string) error {
	for i, v := range verdicts {
		if v != f.want[i] {
			return fmt.Errorf("litmus %s: %s is %s, want %s", f.name, models[i], v, f.want[i])
		}
	}
	return nil
}
