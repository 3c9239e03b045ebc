package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// traffic is a server workload's request stream: an untimed warm-up
// phase and the timed phase. The runner fills in the URLs.
type traffic struct {
	endpoint    string // the requests are POST /v1/ENDPOINT; /statsz counts them under it
	warm, timed loop
	// hit says every timed request is answered from the cache, so the
	// deciders and the renderer are not on its exchange path.
	hit bool
	// replay runs one request in-process, stage by stage (replay.go).
	replay func(body []byte, tr *tracer, req int) (stageTimes, error)
}

// missTraffic is check-miss: warmN warm-up pairs and timedN timed pairs,
// all distinct, each sent as one POST /v1/check asking every model, every
// answer checked against its family's known answer.
func missTraffic(seed int64, warmN, timedN int) traffic {
	warm, timed := genPairs(seed, warmN, timedN, false)
	return traffic{endpoint: "check", replay: replay,
		warm: missLoop(warm, warm.appendCheckBody), timed: missLoop(timed, timed.appendCheckBody)}
}

// batchTraffic is batch-miss: the same pairs, each sent as the one
// POST /v1/batch that fleetctl's coordinator sends a one-replica fleet,
// with the same known answers.
func batchTraffic(seed int64, warmN, timedN int) traffic {
	warm, timed := genPairs(seed, warmN, timedN, true)
	return traffic{endpoint: "batch", replay: replayBatch,
		warm: missLoop(warm, warm.appendBatchBody), timed: missLoop(timed, timed.appendBatchBody)}
}

func missLoop(ps *pairSet, body func(dst []byte, i int) []byte) loop {
	return loop{n: ps.len(), body: body, check: func(i int, resp []byte) error {
		vs, err := parseVerdicts(resp)
		if err != nil {
			return err
		}
		return checkFamily(ps.family[i], vs)
	}}
}

// hitTraffic is check-hit: one warm pass over the litmus corpus, whose
// answers are checked against verdicts.txt and remembered, then up to
// timedN requests cycling over it. A timed reply must repeat the warm
// reply byte for byte, or at least its verdicts.
func hitTraffic(root string, timedN int) (traffic, error) {
	fx, err := loadLitmus(filepath.Join(root, "testdata", "litmus"))
	if err != nil {
		return traffic{}, err
	}
	golden := make([][]byte, len(fx))
	check := func(i int, resp []byte) error {
		k := i % len(fx)
		if golden[k] != nil && bytes.Equal(resp, golden[k]) {
			return nil
		}
		vs, err := parseVerdicts(resp)
		if err != nil {
			return err
		}
		return checkLitmus(fx[k], vs)
	}
	body := func(dst []byte, i int) []byte { return append(dst, fx[i%len(fx)].body...) }
	warm := loop{n: len(fx), body: body, check: func(i int, resp []byte) error {
		if err := check(i, resp); err != nil {
			return err
		}
		golden[i] = bytes.Clone(resp) // each index is written by one worker, read after the phase
		return nil
	}}
	return traffic{endpoint: "check", replay: replay, warm: warm, timed: loop{n: timedN, body: body, check: check}, hit: true}, nil
}

func runCheckMiss(cfg config) (outcome, error) {
	return runServer(cfg, missTraffic(cfg.seed, cfg.missWarmup, cfg.missPairs))
}

func runBatchMiss(cfg config) (outcome, error) {
	return runServer(cfg, batchTraffic(cfg.seed, cfg.batchWarmup, cfg.batchPairs))
}

func runCheckHit(cfg config) (outcome, error) {
	t, err := hitTraffic(cfg.root, cfg.hitRequests)
	if err != nil {
		return outcome{}, err
	}
	return runServer(cfg, t)
}

// runServer is a server workload's end-to-end run: warm-up, then the
// closed loop for cfg.seconds against a fresh daemon, in cfg.pieces
// pieces with a mark (set-ups of other daemons, then the reference job)
// before and after each, then a drain whose rusage gives the peak RSS.
// The measured daemon is stopped while each mark runs, so its idle
// background work (garbage collection, returning heap to the system)
// cannot slow the reference job and hide a regression in the rescaling.
// A piece ends at its share of the run length or of the timed requests,
// whichever comes first. check-miss and check-hit have more requests
// than a run can send; batch-miss has a fixed number that a run sends
// well within its length, because its daemon's heap grows with every
// batch it caches and a fixed number keeps peak_rss_mb comparable.
func runServer(cfg config, t traffic) (outcome, error) {
	runtime.GC() // the inputs are built; keep their garbage out of the timed phase
	bin := cfg.binary("ccmd")
	d, err := startDaemon(bin)
	if err != nil {
		return outcome{}, err
	}
	client := newClient(conns)
	defer client.CloseIdleConnections()
	var o outcome
	url := d.base + "/v1/" + t.endpoint
	t.warm.url, t.timed.url = url, url
	o.merge(t.warm.run(client).tally)

	m := meter{root: cfg.root, reps: cfg.refReps, setup: func() (time.Duration, error) { return timeSetup(bin) }, setups: cfg.spawns}
	mark := func() error {
		if err := d.cmd.Process.Signal(syscall.SIGSTOP); err != nil {
			return fmt.Errorf("stop ccmd: %w", err)
		}
		err := m.mark()
		if e := d.cmd.Process.Signal(syscall.SIGCONT); e != nil && err == nil {
			err = fmt.Errorf("continue ccmd: %w", e)
		}
		return err
	}
	var pieces []piece
	share := (t.timed.n + cfg.pieces - 1) / cfg.pieces
	err = mark()
	for k := 0; err == nil && k < cfg.pieces && t.timed.from < t.timed.n; k++ {
		p := t.timed
		p.n = min(p.n, p.from+share)
		p.until = time.Now().Add(cfg.seconds / time.Duration(cfg.pieces))
		r := p.run(client)
		o.merge(r.tally)
		t.timed.from += int(r.attempted)
		if err = mark(); err == nil {
			pieces = append(pieces, piece{r, m.factor()})
		}
	}
	if err != nil {
		d.kill()
		return outcome{}, err
	}
	ru, err := d.stop()
	if err != nil {
		return outcome{}, err
	}
	o.finish(pieces, &m, rssMiB(ru))
	return o, nil
}

func traceCheckMiss(cfg config, tr *tracer) (outcome, error) {
	var o outcome
	o.metrics = map[string]float64{}
	t := missTraffic(cfg.seed, cfg.missWarmup, cfg.missSample+cfg.missPairs)
	if err := traceServer(cfg, tr, t, cfg.missSample, cfg.seconds, &o); err != nil {
		return o, err
	}
	traceProbes(cfg, tr, &o, cfg.probeN, cfg.probeN)
	return o, nil
}

func traceBatchMiss(cfg config, tr *tracer) (outcome, error) {
	var o outcome
	o.metrics = map[string]float64{}
	t := batchTraffic(cfg.seed, cfg.batchWarmup, cfg.batchSample+cfg.batchPairs)
	if err := traceServer(cfg, tr, t, cfg.batchSample, cfg.seconds, &o); err != nil {
		return o, err
	}
	traceProbes(cfg, tr, &o, cfg.probeN, cfg.probeN)
	return o, nil
}

func traceCheckHit(cfg config, tr *tracer) (outcome, error) {
	var o outcome
	o.metrics = map[string]float64{}
	t, err := hitTraffic(cfg.root, cfg.hitSample+cfg.hitRequests)
	if err != nil {
		return o, err
	}
	if err := traceServer(cfg, tr, t, cfg.hitSample, cfg.seconds, &o); err != nil {
		return o, err
	}
	traceProbes(cfg, tr, &o, cfg.probeN, cfg.probeN)
	return o, nil
}

// traceServer is the serve path's traced run against a fresh daemon:
// the warm-up, then the first `sample` timed requests sent one at a
// time over one connection and replayed in-process stage by stage, then
// the rest of the timed stream as a closed loop for dur, over which the
// /statsz deltas and CPU times are taken.
func traceServer(cfg config, tr *tracer, t traffic, sample int, dur time.Duration, o *outcome) error {
	runtime.GC()
	setupStart := time.Now()
	d, err := startDaemon(cfg.binary("ccmd"))
	if err != nil {
		return err
	}
	tr.span("daemon set-up", "phase", tidPhases, setupStart, time.Since(setupStart), nil)
	client := newClient(conns)
	defer client.CloseIdleConnections()
	serial := newClient(1)
	defer serial.CloseIdleConnections()
	url := d.base + "/v1/" + t.endpoint
	t.warm.url = url

	phase := time.Now()
	o.merge(t.warm.run(client).tally)
	tr.span("warm-up", "phase", tidPhases, phase, time.Since(phase), nil)

	phase = time.Now()
	var sum stageTimes
	var exch time.Duration
	var buf bytes.Buffer
	var body []byte
	for i := 0; i < sample; i++ {
		o.attempted++
		body = t.timed.body(body[:0], i)
		start := time.Now()
		dx, err := exchange(serial, url, body, &buf)
		if err != nil {
			o.fail(false, "sample %d: %v", i, err)
			body = nil // the transport may still be reading it
			continue
		}
		if err := t.timed.check(i, buf.Bytes()); err != nil {
			o.fail(true, "sample %d: %v", i, err)
			continue
		}
		var spans *tracer
		if i < maxTracedRequests {
			spans = tr
			tr.span("exchange", "request", tidExchange, start, dx, map[string]any{"req": i})
		}
		st, err := t.replay(body, spans, i)
		if err == nil {
			err = st.agrees(buf.Bytes())
		}
		if err != nil {
			o.fail(true, "sample %d replay: %v", i, err)
			continue
		}
		exch += dx
		sum.add(st)
	}
	tr.span("serial sample", "phase", tidPhases, phase, time.Since(phase), map[string]any{"requests": sample})
	n := sum.n
	if n == 0 {
		d.kill()
		return fmt.Errorf("no sampled request succeeded")
	}
	perNS := func(x time.Duration) float64 { return float64(x.Nanoseconds()) / 1e3 / float64(n) }
	m := o.metrics
	m["exchange_us"] = perNS(exch)
	m["http.decode_us"] = perNS(sum.decode)
	m["parse.pair_us"] = perNS(sum.parse)
	m["canon.key_us"] = perNS(sum.canon)
	attributed := sum.decode + sum.parse + sum.canon
	var decideAll time.Duration
	for k, name := range models {
		m["decide."+name+"_us"] = perNS(sum.decide[k])
		decideAll += sum.decide[k]
	}
	m["render.json_us"] = perNS(sum.render)
	if !t.hit {
		attributed += decideAll + sum.render
	}
	m["unattributed_us"] = perNS(exch - attributed)
	m["search.states"] = float64(sum.states) / float64(n)
	m["search.memo_hits"] = float64(sum.memoHits) / float64(n)
	m["search.pruned"] = float64(sum.pruned) / float64(n)
	m["search.sleep_set_pruned"] = float64(sum.sleepPruned) / float64(n)
	m["decide.in_ratio.SC"] = float64(sum.scIn) / float64(n)
	m["decide.in_ratio.TSO"] = float64(sum.tsoIn) / float64(n)

	// The closed loop over the rest of the stream.
	timed := t.timed
	timed.url = url
	timed.from = sample
	st0, err := d.statsz(client)
	if err != nil {
		d.kill()
		return err
	}
	var self0, self1 syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &self0)
	phase = time.Now()
	timed.until = phase.Add(dur)
	lr := timed.run(client)
	tr.span("closed loop", "phase", tidPhases, phase, time.Since(phase), map[string]any{"requests": lr.attempted})
	syscall.Getrusage(syscall.RUSAGE_SELF, &self1)
	o.merge(lr.tally)
	st1, err := d.statsz(client)
	if err != nil {
		d.kill()
		return err
	}
	ru, err := d.stop()
	if err != nil {
		return err
	}
	hits := st1.Cache.Hits - st0.Cache.Hits
	lookups := hits + st1.Cache.Misses - st0.Cache.Misses + st1.Cache.Shared - st0.Cache.Shared
	reqs := st1.Endpoints[t.endpoint].Requests - st0.Endpoints[t.endpoint].Requests
	m["cache.hit_ratio"] = float64(hits) / float64(max(lookups, 1))
	m["cache.evictions"] = float64(st1.Cache.Evictions - st0.Cache.Evictions)
	m["cache.bytes"] = float64(st1.Cache.Bytes)
	m["admission.shed"] = float64(st1.Admission.Shed - st0.Admission.Shed)
	m["engine.states_per_req"] = float64(st1.Engine.States-st0.Engine.States) / float64(max(reqs, 1))
	m["daemon.cpu_us_per_req"] = float64(cpuTime(ru).Nanoseconds()) / 1e3 / float64(max(st1.Endpoints[t.endpoint].Requests, 1))
	m["client.cpu_us_per_req"] = float64(cpuTime(&self1).Nanoseconds()-cpuTime(&self0).Nanoseconds()) / 1e3 / float64(max(lr.attempted, 1))
	o.samples = fmt.Sprintf("serial samples=%d, closed-loop requests=%d", n, lr.attempted)
	return nil
}
