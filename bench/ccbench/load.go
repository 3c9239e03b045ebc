package main

import (
	"bytes"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// conns is the load generator's width: at most this many connections
// and request goroutines, one per core of the two-core machine the
// benchmark is sized for.
const conns = 2

// newClient returns an HTTP client that opens at most n connections.
func newClient(n int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: n,
		MaxConnsPerHost:     n,
		DisableCompression:  true,
	}}
}

// tally counts checked operations and their failures. A failure is a
// transport error, a non-2xx response, a nonzero exit, or a wrong
// answer; wrong answers are also counted on their own.
type tally struct {
	attempted, failed, wrong int64
	errs                     []string // the first few failures, for stderr
}

const maxErrs = 5

func (t *tally) fail(wrong bool, format string, args ...any) {
	t.failed++
	if wrong {
		t.wrong++
	}
	if len(t.errs) < maxErrs {
		t.errs = append(t.errs, fmt.Sprintf(format, args...))
	}
}

func (t *tally) merge(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.wrong += o.wrong
	for _, e := range o.errs {
		if len(t.errs) < maxErrs {
			t.errs = append(t.errs, e)
		}
	}
}

// loop is one closed-loop phase: conns workers each send their next
// request only after the previous reply has been read and checked.
type loop struct {
	url   string
	n     int                            // requests available, indexed 0..n-1
	from  int                            // the first request to send
	body  func(dst []byte, i int) []byte // appends request i's body to dst
	check func(i int, resp []byte) error // request i's known answer
	until time.Time                      // stop starting requests after this (zero = send all n)
}

// loopResult is what one phase measured.
type loopResult struct {
	tally
	lat     []int64 // latency of each 2xx exchange, ns
	elapsed time.Duration
}

func (r *loopResult) ok() int64 { return r.attempted - r.failed }

// run drives the phase to completion over client. The requests it sends
// are from, from+1, …, from+attempted-1: a request index taken after
// until has passed is not sent, and neither is any later one.
func (l loop) run(client *http.Client) loopResult {
	var next atomic.Int64
	next.Store(int64(l.from))
	results := make([]loopResult, conns)
	start := time.Now()
	var wg sync.WaitGroup
	for w := range results {
		wg.Add(1)
		go func(r *loopResult) {
			defer wg.Done()
			var buf bytes.Buffer
			var body []byte
			for {
				i := int(next.Add(1) - 1)
				if i >= l.n || (!l.until.IsZero() && time.Now().After(l.until)) {
					return
				}
				r.attempted++
				body = l.body(body[:0], i)
				d, err := exchange(client, l.url, body, &buf)
				if err != nil {
					r.fail(false, "request %d: %v", i, err)
					body = nil // the transport may still be reading it
					continue
				}
				if err := l.check(i, buf.Bytes()); err != nil {
					r.fail(true, "request %d: %v", i, err)
					continue
				}
				r.lat = append(r.lat, int64(d))
			}
		}(&results[w])
	}
	wg.Wait()
	out := loopResult{elapsed: time.Since(start)}
	for _, r := range results {
		out.merge(r.tally)
		out.lat = append(out.lat, r.lat...)
	}
	return out
}

// exchange POSTs body and reads the whole reply into buf. The returned
// duration runs from just before the request is written until the last
// byte of the reply has been read. A non-2xx status is an error. After a
// 2xx reply the daemon has decoded the whole body, so the transport is
// done reading it and the caller may reuse it.
func exchange(client *http.Client, url string, body []byte, buf *bytes.Buffer) (time.Duration, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	buf.Reset()
	start := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	d := time.Since(start)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode/100 != 2 {
		return 0, fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(buf.Bytes()))
	}
	return d, nil
}
