package main

import (
	"bytes"
	"fmt"
	"hash/maphash"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// loopResult is what one load phase observed: per request, its latency
// (open loop: from its due time to the end of its response) and how
// late the generator sent it (open loop only).
type loopResult struct {
	lat    []float64 // µs; only completed requests
	late   []float64 // µs, send time minus due time
	failed int
	// tailLateUs is the median lateness of the phase's last 1% of
	// requests: a growing backlog shows as a large value here.
	tailLateUs float64
}

// openLoop sends n requests at a fixed rate from at most workers
// goroutines: request i is due at start + i/rate, whatever happened to
// earlier ones, and is timed from that due time, so a stall charges
// every request queued behind it. send performs request i and reports
// whether it succeeded; it runs on the worker goroutine.
func openLoop(rate float64, n, workers int, send func(i int) bool) loopResult {
	var res loopResult
	if n <= 0 {
		return res
	}
	lat := make([]float64, n)
	late := make([]float64, n)
	ok := make([]bool, n)
	var next atomic.Int64
	start := time.Now().Add(time.Millisecond)
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := newPacer()
			defer p.stop()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := start.Add(time.Duration(float64(i) / rate * 1e9))
				p.sleepUntil(due)
				sent := time.Now()
				ok[i] = send(i)
				lat[i] = durUs(time.Since(due))
				late[i] = durUs(sent.Sub(due))
			}
		}()
	}
	wg.Wait()
	res.late = late
	res.lat = make([]float64, 0, n)
	for i := range n {
		if ok[i] {
			res.lat = append(res.lat, lat[i])
		} else {
			res.failed++
		}
	}
	tail := late[n-max(1, n/100):]
	res.tailLateUs = median(tail)
	return res
}

// closedLoop runs workers goroutines for d, each sending its next pool
// read (a seeded draw) as soon as the previous one completes: the
// system is never idle, so the latency is the cost of a read under
// full load rather than the host's wake-up latency.
func closedLoop(d time.Duration, workers int, seed uint64, poolSize int, send func(idx int32) bool) loopResult {
	res := loopResult{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	end := time.Now().Add(d)
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := newRNG(seed, streamOrder+uint64(100+w))
			var lat []float64
			failed := 0
			for time.Now().Before(end) {
				t0 := time.Now()
				if send(int32(rng.IntN(poolSize))) {
					lat = append(lat, durUs(time.Since(t0)))
				} else {
					failed++
				}
			}
			mu.Lock()
			res.lat = append(res.lat, lat...)
			res.failed += failed
			mu.Unlock()
		}()
	}
	wg.Wait()
	return res
}

// ansKey identifies one answer: a pool read at one model generation.
type ansKey struct {
	idx int32
	gen int64
}

// answers collects every read's answer for verification after the
// timed phase. The first body per (read, generation) is kept with a
// count of the answers byte-identical to it; a body that differs is
// kept on its own, so every answer is checked while memory stays
// bounded by distinct answers.
type answers struct {
	seed  maphash.Seed
	mu    sync.Mutex
	first map[ansKey]*keyedBody
	hash  map[ansKey]uint64
	extra []*keyedBody
	fails []string
	count int
}

// keyedBody is one distinct answer and how many reads returned it.
type keyedBody struct {
	key  ansKey
	body []byte
	n    int
}

func newAnswers() *answers {
	return &answers{seed: maphash.MakeSeed(), first: map[ansKey]*keyedBody{}, hash: map[ansKey]uint64{}}
}

func (a *answers) record(key ansKey, body []byte) {
	h := maphash.Bytes(a.seed, body)
	a.mu.Lock()
	defer a.mu.Unlock()
	a.count++
	kb, seen := a.first[key]
	switch {
	case !seen:
		a.first[key] = &keyedBody{key, body, 1}
		a.hash[key] = h
	case a.hash[key] == h && bytes.Equal(kb.body, body):
		kb.n++
	default:
		a.extra = append(a.extra, &keyedBody{key, body, 1})
	}
}

func (a *answers) fail(msg string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.count++
	switch {
	case len(a.fails) < 20:
		a.fails = append(a.fails, msg)
	case len(a.fails) == 20:
		a.fails = append(a.fails, "...")
	}
}

// all returns every kept body, first bodies then differing ones.
func (a *answers) all() []*keyedBody {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]*keyedBody, 0, len(a.first)+len(a.extra))
	for _, kb := range a.first {
		out = append(out, kb)
	}
	return append(out, a.extra...)
}

// reader sends pool reads over HTTP and records their answers.
type reader struct {
	client *http.Client
	base   string
	pool   []readReq
	spans  *spanLog
	ans    *answers
	failed atomic.Int64
}

// send performs pool read idx and records the answer; it reports
// whether the read returned 200 with a generation header.
func (r *reader) send(idx int32) bool {
	q := &r.pool[idx]
	var body io.Reader
	if q.body != nil {
		body = bytes.NewReader(q.body)
	}
	req, err := http.NewRequest(q.method, r.base+q.path, body)
	if err != nil {
		r.failf("%s: %v", q.path, err)
		return false
	}
	if q.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	traced := r.spans.on.Load()
	var trace uint64
	var start int64
	if traced {
		trace = r.spans.nextTrace()
		req.Header.Set("traceparent", traceparent(trace))
		start = r.spans.now()
	}
	resp, err := r.client.Do(req)
	if err != nil {
		r.failf("%s %s: %v", q.method, q.path, err)
		return false
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if traced {
		r.spans.record(trace, layerClient, start, r.spans.now())
	}
	if err != nil || resp.StatusCode != http.StatusOK {
		r.failf("%s %s: status %d %s %v", q.method, q.path, resp.StatusCode, bytes.TrimSpace(b), err)
		return false
	}
	gen, err := strconv.ParseInt(resp.Header.Get("X-Model-Generation"), 10, 64)
	if err != nil {
		r.failf("%s %s: no X-Model-Generation", q.method, q.path)
		return false
	}
	r.ans.record(ansKey{idx, gen}, b)
	return true
}

func (r *reader) failf(format string, args ...any) {
	r.failed.Add(1)
	r.ans.fail(fmt.Sprintf(format, args...))
}

// loadClient is the generator's HTTP client: keep-alive, at most conns
// connections to any host.
func loadClient(conns int) *http.Client {
	return &http.Client{
		Timeout: time.Minute,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			IdleConnTimeout:     time.Minute,
		},
	}
}

func closeClient(c *http.Client) {
	if t, ok := c.Transport.(*http.Transport); ok {
		t.CloseIdleConnections()
	}
}
