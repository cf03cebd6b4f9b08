// Serving-contract tests: each drives a traced server, records every
// exchange in a check.History, and requires internal/check to find the
// contract held (identity, generations, the generation header, no lost
// write, the shedding contract, trace IDs).
package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"hypermine/internal/benchfix"
	"hypermine/internal/check"
	"hypermine/internal/core"
	"hypermine/internal/telemetry"
)

// contract is one contract test's traced server and the history its
// exchanges are recorded in.
type contract struct {
	t    *testing.T
	h    check.History
	ts   *httptest.Server
	snap []byte      // the served model's snapshot bytes, for re-PUTs
	info modelDetail // from the last state read
	gen  int64       // the generation of the last state read or re-PUT
}

// newContract boots a traced server with the test model as "demo" and
// reads its state.
func newContract(t *testing.T, opts ...Option) *contract {
	ts, srv := servingTraced(t, telemetry.TracerConfig{}, opts...)
	c := &contract{t: t, ts: ts}
	sv := srv.reg.Acquire("demo")
	var buf bytes.Buffer
	err := core.WriteSnapshot(&buf, sv.Model(), core.SaveOptions{})
	sv.Release()
	if err != nil {
		t.Fatal(err)
	}
	c.snap = buf.Bytes()
	c.state("setup")
	if !c.info.Classify || len(c.info.Targets) == 0 {
		t.Fatalf("test model cannot classify: %+v", c.info)
	}
	return c
}

// demo is a request scoped to the "demo" model.
func demo(method, path string, body []byte) check.Outcome {
	return check.Outcome{Model: "demo", Method: method, Path: "/v1/models/demo" + path, Body: body}
}

// send records one exchange as client.
func (c *contract) send(client string, o check.Outcome) check.Outcome {
	o.Client = client
	return c.h.Do(c.ts.Client(), c.ts.URL, o)
}

// state reads the model detail as a state read.
func (c *contract) state(client string) {
	o := demo(http.MethodGet, "", nil)
	o.Kind = check.State
	if o = c.send(client, o); o.Status != http.StatusOK {
		c.t.Fatalf("GET /v1/models/demo: %d %s%s", o.Status, o.Err, o.Resp)
	}
	if err := json.Unmarshal(o.Resp, &c.info); err != nil {
		c.t.Fatal(err)
	}
	c.gen = o.Gen
}

// reload re-PUTs the served snapshot bytes; the new generation serves
// the same content, so it is declared an alias of the one it replaced.
func (c *contract) reload(client string) error {
	o := demo(http.MethodPut, "", c.snap)
	o.Kind = check.Write
	if o = c.send(client, o); o.Status != http.StatusOK {
		return fmt.Errorf("re-PUT: %d %s%s", o.Status, o.Err, o.Resp)
	}
	c.h.Alias("demo", o.Gen, c.gen)
	c.gen = o.Gen
	return nil
}

// classifyBody draws a classify request: a value per dominator
// attribute, or that many rows of them when rows > 0, and a target.
func (c *contract) classifyBody(rng *rand.Rand, rows int) map[string]any {
	draw := func() int { return 1 + rng.Intn(c.info.K) }
	req := map[string]any{}
	if rows == 0 {
		values := map[string]int{}
		for _, a := range c.info.Dominator {
			values[a] = draw()
		}
		req["values"] = values
	} else {
		batch := make([][]int, rows)
		for i := range batch {
			for range c.info.Dominator {
				batch[i] = append(batch[i], draw())
			}
		}
		req["rows"] = batch
	}
	req["target"] = c.info.Targets[rng.Intn(len(c.info.Targets))]
	return req
}

// verify checks the whole history and returns the report.
func (c *contract) verify() *check.Report {
	rep := c.h.Check()
	c.t.Logf("check: %d outcomes (%d shed, %d traced)", rep.Outcomes, rep.Shed, rep.Traced)
	if err := rep.Err(); err != nil {
		c.t.Fatal(err)
	}
	if rep.Traced == 0 {
		c.t.Fatal("no answer carried X-Trace-Id")
	}
	return rep
}

func mustJSON(v any) []byte {
	js, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return js
}

// TestServeContract replays a seeded pool of classify, classify:batch,
// similar, rules and dominators requests, each on its own endpoint and
// multiplexed on :query, and re-PUTs the served snapshot between
// passes: every answer must match its earlier ones across the aliased
// generations.
func TestServeContract(t *testing.T) {
	c := newContract(t)
	rng := rand.New(rand.NewSource(7))
	dom, targets := c.info.Dominator, c.info.Targets
	var pool []check.Outcome
	for i := 0; i < 4; i++ {
		single, rows := c.classifyBody(rng, 0), c.classifyBody(rng, 4)
		a, head := dom[i%len(dom)], targets[i%len(targets)]
		pool = append(pool,
			demo(http.MethodPost, "/classify", mustJSON(single)),
			demo(http.MethodPost, "/classify:batch", mustJSON(rows)),
			demo(http.MethodGet, "/similar?a="+a+"&top=5", nil),
			demo(http.MethodGet, "/rules?head="+head+"&top=5", nil),
			demo(http.MethodGet, "/dominators", nil),
			demo(http.MethodPost, ":query", mustJSON(map[string]any{"batch": []map[string]any{
				{"classify": single},
				{"classify": rows},
				{"similar": map[string]any{"a": a, "top": 5}},
				{"similar": map[string]any{"a": a, "b": dom[(i+1)%len(dom)]}},
				{"rules": map[string]any{"head": head, "top": 5}},
				{"dominators": map[string]any{}},
			}})),
		)
	}
	const reloads, passes = 3, 2
	for gen := 0; gen <= reloads; gen++ {
		if gen > 0 {
			if err := c.reload("replay"); err != nil {
				t.Fatal(err)
			}
		}
		for pass := 0; pass < passes; pass++ {
			for _, i := range rng.Perm(len(pool)) {
				c.send("replay", pool[i])
			}
		}
	}
	c.verify()
}

// TestChurnContract posts 8 :append batches between fixed query counts
// while four workers replay a query pool, then reads the final state:
// no stale or phantom reads, monotonic generations, the generation
// header on every answer, and the final state at the last ack.
func TestChurnContract(t *testing.T) {
	c := newContract(t)
	rng := rand.New(rand.NewSource(7))
	var pool []check.Outcome
	for i := 0; i < 8; i++ {
		pool = append(pool, demo(http.MethodPost, "/classify", mustJSON(c.classifyBody(rng, 0))))
	}
	pool = append(pool, demo(http.MethodGet, "/dominators", nil))
	for i := 0; i < 4 && i < len(c.info.Dominator); i++ {
		pool = append(pool, demo(http.MethodGet, "/similar?a="+c.info.Dominator[i]+"&top=5", nil))
	}

	const appends, perStep, workers = 8, 16, 4
	sizes := [...]int{1, 5, 10, 25}
	batches := make([][][]int, appends)
	for s := range batches {
		batches[s] = make([][]int, sizes[s%len(sizes)])
		for i := range batches[s] {
			batches[s][i] = make([]int, c.info.Attrs)
			benchfix.CorrelatedRow(rng, batches[s][i], c.info.K)
		}
	}

	// Workers share (appends+1)*perStep queries; the driver fires append
	// s once (s+1)*perStep of them have completed, so every append lands
	// mid-traffic.
	const total = (appends + 1) * perStep
	var next atomic.Int64
	var mu sync.Mutex
	completed := 0
	progress := sync.NewCond(&mu)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := next.Add(1) - 1; i < total; i = next.Add(1) - 1 {
				c.send(fmt.Sprintf("worker-%d", w), pool[int(i)%len(pool)])
				mu.Lock()
				completed++
				progress.Broadcast()
				mu.Unlock()
			}
		}()
	}
	defer wg.Wait()

	for s, batch := range batches {
		mu.Lock()
		for completed < (s+1)*perStep {
			progress.Wait()
		}
		mu.Unlock()
		o := demo(http.MethodPost, ":append", mustJSON(map[string]any{"rows": batch}))
		o.Kind, o.Appended = check.Write, len(batch)
		if o = c.send("driver", o); o.Status != http.StatusOK {
			t.Fatalf("append %d not acked: %d %s%s", s, o.Status, o.Err, o.Resp)
		}
	}
	wg.Wait()
	c.state("driver")
	c.verify()
}
