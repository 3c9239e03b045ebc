package main

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"time"
)

// Machine-speed reference. On the shared machines this benchmark runs on,
// wall-clock speed drifts by more than 2× over minutes and by tens of
// percent within a run, and the drift moves every workload together. A
// fixed job that exercises the same machinery — allocation and garbage
// collection, a string-keyed map, sorting, a JSON round trip — drifts
// with them. So an end-to-end run measures in pieces (a stretch of the
// closed loop, one CLI run) and times the reference job, in a fresh child
// process, before the first piece and after each one. Each piece is
// reported as it would read on a machine where the job takes
// referenceMS: its times are multiplied by referenceMS over the mean of
// the two reference times around it. Timing the job around each piece
// rather than around the whole run matters: in five groups of five
// lattice runs, group medians rescaled by the job timed around each run
// varied 3.5%, rescaled by the job timed around each group 11.6%. The
// job uses only the standard library, and nothing of the code under test
// runs beside it (a server workload's daemon is stopped during each
// mark), so a change to the repository moves it only through what it
// leaves in the machine.

// referenceMS is the reference job's median time on the machine the
// benchmark was calibrated on (a two-core Xeon VM, Go 1.24).
const referenceMS = 185.0

type refRecord struct {
	Name  string
	Vals  []int
	Next  *refRecord
	Score float64
}

// referenceJob runs the fixed job once and returns a value that depends
// on all of its work.
func referenceJob() int {
	m := make(map[string]*refRecord)
	var head *refRecord
	for i := 0; i < 150000; i++ {
		r := &refRecord{Name: "k" + strconv.Itoa(i*7919%150000), Vals: make([]int, i%8), Next: head, Score: float64(i%977) / 3}
		head = r
		m[r.Name] = r
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	batch := make([]refRecord, 0, 20000)
	for _, k := range keys[:20000] {
		batch = append(batch, refRecord{Name: k, Vals: m[k].Vals, Score: m[k].Score})
	}
	data, err := json.Marshal(batch)
	if err != nil {
		panic(err) // the records always marshal
	}
	var back []refRecord
	if err := json.Unmarshal(data, &back); err != nil {
		panic(err)
	}
	return len(back) + len(keys)
}

// referenceStage is the child's side: the median of reps timed jobs.
func referenceStage(reps int, m map[string]float64) {
	times := make([]float64, reps)
	for i := range times {
		start := time.Now()
		referenceJob()
		times[i] = ms(time.Since(start))
	}
	m["reference_ms"] = median(times)
}

// meter times the reference job between the pieces of a measured phase.
// Each mark first times the workload's set-up a few times, so set-up is
// sampled across the whole run and rescaled by the job timed right
// after it.
type meter struct {
	root   string
	reps   int                           // timed jobs per mark; a mark reports their median
	setup  func() (time.Duration, error) // one set-up of the workload
	setups int                           // set-ups timed at each mark

	refs         []float64 // the marks so far, ms
	setupS, rawS []float64 // the set-ups so far, s: rescaled, and as measured
}

// mark times the set-up m.setups times, then the reference job m.reps
// times in a fresh child process.
func (m *meter) mark() error {
	ds := make([]time.Duration, m.setups)
	for i := range ds {
		d, err := m.setup()
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		ds[i] = d
	}
	r, err := stagesInChild(m.root, "ref", m.reps, nil)
	if err != nil {
		return err
	}
	ref := r["reference_ms"]
	m.refs = append(m.refs, ref)
	for _, d := range ds {
		m.rawS = append(m.rawS, d.Seconds())
		m.setupS = append(m.setupS, d.Seconds()*referenceMS/ref)
	}
	return nil
}

// factor rescales the piece between the last two marks to
// reference-machine time.
func (m *meter) factor() float64 {
	n := len(m.refs)
	return referenceMS / ((m.refs[n-2] + m.refs[n-1]) / 2)
}

// mean is the mean mark, ms.
func (m *meter) mean() float64 {
	sum := 0.0
	for _, r := range m.refs {
		sum += r
	}
	return sum / float64(len(m.refs))
}

// piece is one measured stretch: the exchanges of a stretch of the closed
// loop, or one CLI run, with the factor that rescales it.
type piece struct {
	loopResult
	f float64
}

// pieceMetrics returns throughput_per_s, latency_p50_ms and
// latency_p99_ms over pieces, in reference-machine time when scaled.
func pieceMetrics(pieces []piece, scaled bool) map[string]float64 {
	var lat []int64
	var ok int64
	var busy float64
	for _, p := range pieces {
		f := 1.0
		if scaled {
			f = p.f
		}
		for _, x := range p.lat {
			lat = append(lat, int64(float64(x)*f))
		}
		ok += p.ok()
		busy += p.elapsed.Seconds() * f
	}
	return map[string]float64{
		"throughput_per_s": float64(ok) / busy,
		"latency_p50_ms":   percentileMS(lat, 0.50),
		"latency_p99_ms":   percentileMS(lat, 0.99),
	}
}
