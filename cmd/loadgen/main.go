// Command loadgen replays deterministic query mixes against a
// hypermined server and writes the results as machine-readable JSON
// (to stdout unless -out names a file).
//
// Two modes:
//
//   - Self-hosted (default): builds the shared benchfix serving model,
//     boots an in-process hypermined server on loopback with tracing
//     on, and replays the mix against it — hot-reloading the model
//     mid-run to prove serving continuity.
//   - Remote (-addr): replays the mix against an already running
//     hypermined (used by the CI serving smoke).
//
// loadgen only drives traffic. Every exchange is recorded in an
// internal/check History, and the run fails unless check finds the
// serving contract held: identical answers per request and
// generation, no stale or phantom generations, monotonic generations,
// the X-Model-Generation header, no lost acked write, the 429/503
// Retry-After contract, and well-formed X-Trace-Id headers. A hot
// reload re-PUTs the same snapshot bytes, so loadgen declares the new
// generation an alias of the old one and identity holds across it.
//
// Usage:
//
//	go run ./cmd/loadgen [-addr URL -model NAME] [-n 2000] [-quick] [-out FILE.json] [-cancel-every N] [-mix default|batch|overload|churn]
//
// The mixes:
//
//   - default: a serial weighted replay of classify, classify:batch,
//     similar, rules and dominators over pools of deterministic bodies.
//   - batch: the same workload multiplexed into typed batches on
//     :query.
//   - overload: the fault-injecting harness for admission control. A
//     deterministic concurrency ramp (2 -> 32 workers) drives a server
//     with tiny gates past capacity while slow clients stall half-open
//     connections and (self-hosted) the model hot-reloads between
//     waves. Shed answers are observed raw, never retried. The run
//     fails if nothing was shed, if /healthz stopped answering during
//     saturation, or if the server's shed counter is below what the
//     client saw. Self-hosted gates are cheap=2/queue=4,
//     expensive=1/queue=2; in remote mode boot hypermined with
//     -gate-*/-queue-* flags sized below the ramp.
//   - churn: four query workers replay a pool while a driver POSTs a
//     deterministic schedule of 8 :append batches between fixed query
//     counts, then reads the model's final state, which check holds
//     to the last ack.
//
// With -cancel-every N, every Nth request of a default or batch replay
// is replaced by a heavy rules query issued under a short client-side
// deadline — a client that goes away mid-request. The run then
// verifies the server survived the burst (healthz and a fresh query
// answer) and reports how many aborts the server observed (from
// /stats). That count depends on how fast the host delivers the
// disconnect: on a busy single-core machine a sub-10ms handler often
// finishes first, so the deterministic proof of in-flight abort lives
// in the internal/server unit tests.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hypermine/internal/admit"
	"hypermine/internal/benchfix"
	"hypermine/internal/check"
	"hypermine/internal/core"
	"hypermine/internal/registry"
	"hypermine/internal/server"
	"hypermine/internal/telemetry"
)

const (
	// seed drives every generated body and mix pick.
	seed = 7
	// reloads is the number of self-hosted hot reloads per run.
	reloads = 3
	// poolSize is the number of distinct classify bodies each mix
	// replays, so every body repeats many times at every generation.
	poolSize = 32
	// Bounded Retry-After backoff for every mix except overload, which
	// measures the shedding contract itself and observes rejections raw.
	maxBackoffRetries = 5
	backoffCap        = 2 * time.Second
)

type endpointReport struct {
	Endpoint string  `json:"endpoint"`
	Requests int     `json:"requests"`
	MeanNs   float64 `json:"mean_ns"`
	P50Ns    int64   `json:"p50_ns"`
	P90Ns    int64   `json:"p90_ns"`
	P99Ns    int64   `json:"p99_ns"`
	MaxNs    int64   `json:"max_ns"`
}

type report struct {
	PR         int    `json:"pr"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Note       string `json:"note"`
	Model      struct {
		Attrs int `json:"attrs"`
		Rows  int `json:"rows"`
		Edges int `json:"edges"`
		K     int `json:"k"`
	} `json:"model"`
	Serve []endpointReport `json:"serve"`
	Total struct {
		Requests int     `json:"requests"`
		WallNs   int64   `json:"wall_ns"`
		QPS      float64 `json:"qps"`
	} `json:"total"`
	Mix     string `json:"mix"`
	Reloads int    `json:"reloads"`
	// Check is internal/check's verdict on every recorded exchange.
	Check *check.Report `json:"check"`
	// Cancel reports the client-side timeout injection scenario
	// (-cancel-every); nil when disabled.
	Cancel *cancelReport `json:"cancel,omitempty"`
	// Overload reports the -mix overload scenario; nil otherwise.
	Overload *overloadReport `json:"overload,omitempty"`
	// Churn reports the -mix churn append/query scenario; nil otherwise.
	Churn *churnReport `json:"churn,omitempty"`
	// RetryBackoffs counts requests that were retried after honoring a
	// Retry-After hint on a 429/503.
	RetryBackoffs int `json:"retry_backoffs"`
}

// churnReport summarizes the append/query interleaving scenario.
type churnReport struct {
	Appends      int `json:"appends"` // acked
	AppendedRows int `json:"appended_rows"`
	Queries      int `json:"queries"`
}

// overloadReport summarizes the fault-injecting overload scenario.
type overloadReport struct {
	Gates      string       `json:"gates"`
	Waves      []waveReport `json:"waves"`
	StallConns int          `json:"stall_conns"`
	// HealthzDuringOK: the liveness probe kept answering while the
	// biggest wave saturated the gates and slow clients stalled.
	HealthzDuringOK bool `json:"healthz_during_saturation_ok"`
	Admitted        int  `json:"admitted"`
	Shed            int  `json:"shed"`
	// ServerShed is the server's own shed counter from /stats after
	// the run (cumulative for the process, so >= Shed on a shared
	// server).
	ServerShed int64 `json:"server_shed"`
	Reloads    int   `json:"reloads"`
}

// waveReport is one rung of the concurrency ramp.
type waveReport struct {
	Concurrency int `json:"concurrency"`
	Requests    int `json:"requests"`
	Admitted    int `json:"admitted"`
	Shed        int `json:"shed"`
}

// cancelReport summarizes the timeout-injection scenario.
type cancelReport struct {
	Every          int   `json:"every"`
	Injected       int   `json:"injected"`
	ClientTimeouts int   `json:"client_timeouts"`
	ServerCanceled int64 `json:"server_canceled"`
	ServerTimeouts int64 `json:"server_timeouts"`
	SurvivedBurst  bool  `json:"survived_burst"`
}

// modelInfo is the subset of the /v1/models/{name} response the
// generator needs.
type modelInfo struct {
	Attrs     int      `json:"attrs"`
	Edges     int      `json:"edges"`
	Rows      int      `json:"rows"`
	K         int      `json:"k"`
	Classify  bool     `json:"classify"`
	Dominator []string `json:"dominator"`
	Targets   []string `json:"targets"`
}

func main() {
	addr := flag.String("addr", "", "base URL of a running hypermined ('' = self-hosted)")
	model := flag.String("model", "bench", "model name to query")
	n := flag.Int("n", 2000, "total requests")
	out := flag.String("out", "-", "output JSON path ('-' for stdout only)")
	quick := flag.Bool("quick", false, "shrink workloads for CI smoke runs")
	cancelEvery := flag.Int("cancel-every", 0,
		"replace every Nth request with a rules query under a short client-side deadline (0 = off)")
	mixName := flag.String("mix", "default",
		"query mix: default (dedicated endpoints), batch (multiplexed typed batches via :query), overload (fault-injecting saturation ramp), or churn (concurrent queries during :append republishes)")
	flag.Parse()

	switch *mixName {
	case "default", "batch", "overload", "churn":
	default:
		fatal(fmt.Errorf("unknown -mix %q (want default, batch, overload, or churn)", *mixName))
	}

	attrs, rows := 30, 20000
	if *quick {
		*n, attrs, rows = 400, 12, 1500
		if *mixName == "overload" {
			// The saturation stimulus is cold rules mining; on this
			// model size one mine holds the expensive gate ~15ms, long
			// enough for the other workers to pile up behind it even
			// on a single-core host. The 12x1500 quick model mines in
			// ~1ms and never saturates anything.
			attrs, rows = 24, 10000
		}
	}

	rep := &report{
		PR:         3,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Mix:        *mixName,
		Note: "serving-path benchmark over real HTTP on loopback; latencies are " +
			"end-to-end (client encode + HTTP + handler + decode). Single-core " +
			"host: concurrency correctness is proven by race-enabled registry/server " +
			"tests and the byte-identity checks across hot reloads in this run, " +
			"not by parallel speedup numbers.",
	}

	r := &run{
		h:       &check.History{},
		client:  &http.Client{},
		base:    strings.TrimRight(*addr, "/"),
		model:   *model,
		rng:     rand.New(rand.NewSource(seed)),
		latency: map[string][]int64{},
	}
	if r.base == "" {
		// The overload mix needs something to saturate: tiny gates so
		// the ramp's upper rungs exceed capacity + queue by design.
		var ctl *admit.Controller
		if *mixName == "overload" {
			ctl = admit.NewController(admit.Config{
				CheapCapacity: 2, CheapQueue: 4,
				ExpensiveCapacity: 1, ExpensiveQueue: 2,
			})
		}
		if err := r.selfHost(attrs, rows, ctl); err != nil {
			fatal(err)
		}
	}

	info, err := r.fetchInfo("setup")
	if err != nil {
		fatal(err)
	}
	r.info = info
	rep.Model.Attrs, rep.Model.Rows, rep.Model.Edges, rep.Model.K = info.Attrs, info.Rows, info.Edges, info.K
	if !info.Classify || len(info.Targets) == 0 {
		fatal(fmt.Errorf("model %q cannot classify; loadgen needs a classifiable model", *model))
	}

	switch *mixName {
	case "overload":
		err = r.overload(rep, *n)
	case "churn":
		err = r.churn(rep, *n)
	default:
		err = r.replay(rep, *n, *cancelEvery, *mixName == "batch")
	}
	if err != nil {
		fatal(err)
	}

	rep.Check = r.h.Check()
	rep.RetryBackoffs = int(r.backoffs.Load())
	fmt.Printf("check: %d outcomes (%d shed, %d traced), violations %+v, %d Retry-After backoffs\n",
		rep.Check.Outcomes, rep.Check.Shed, rep.Check.Traced, rep.Check.Violations, rep.RetryBackoffs)

	js, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	js = append(js, '\n')
	if *out != "-" {
		if err := os.WriteFile(*out, js, 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *out)
	} else {
		os.Stdout.Write(js)
	}
	if err := rep.Check.Err(); err != nil {
		fatal(err)
	}
	// The self-hosted server runs with tracing on, as hypermined does
	// by default, so its answers must have carried trace IDs.
	if *addr == "" && rep.Check.Traced == 0 {
		fatal(errors.New("self-hosted server returned no X-Trace-Id headers"))
	}
}

// run is one loadgen run: where it sends, what it records, and the
// deterministic source every generated body draws from.
type run struct {
	h      *check.History
	client *http.Client
	base   string // server base URL
	model  string
	info   *modelInfo
	rng    *rand.Rand
	// snap holds the self-hosted snapshot bytes that hot reloads re-PUT
	// (nil in remote mode: remote servers are not reloaded from here);
	// gen is the model's generation as last read or reloaded.
	snap []byte
	gen  int64

	mu       sync.Mutex // guards latency
	latency  map[string][]int64
	backoffs atomic.Int64
}

// selfHost builds the benchfix model and boots an in-process server
// with tracing on (as hypermined runs by default) — with the given
// admission controller in front when ctl is non-nil.
func (r *run) selfHost(attrs, rows int, ctl *admit.Controller) error {
	fmt.Printf("building %dx%d serving model...\n", rows, attrs)
	m := benchfix.ModelWorkload(attrs, rows)
	var snap bytes.Buffer
	if err := core.WriteSnapshot(&snap, m, core.SaveOptions{}); err != nil {
		return err
	}
	r.snap = snap.Bytes()

	regOpts := registry.Options{}
	if ctl != nil {
		regOpts.LoadHook = ctl.RecordLoad
	}
	reg := registry.New(regOpts)
	if _, err := reg.Load(r.model, m); err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	tracer := telemetry.NewTracer(telemetry.TracerConfig{})
	go func() {
		_ = http.Serve(ln, server.New(reg,
			server.WithAdmission(ctl), server.WithTracer(tracer)).Handler())
	}()
	r.base = "http://" + ln.Addr().String()
	return nil
}

// send records one exchange, timing it under endpoint when that is
// non-empty. With backoff it retries a 429/503 after its Retry-After
// (at most maxBackoffRetries times, each wait capped at backoffCap);
// every attempt is recorded, so check sees the rejections too.
func (r *run) send(endpoint string, o check.Outcome, backoff bool) check.Outcome {
	t0 := time.Now()
	for attempt := 0; ; attempt++ {
		got := r.h.Do(r.client, r.base, o)
		retriable := got.Status == http.StatusTooManyRequests || got.Status == http.StatusServiceUnavailable
		if !backoff || !retriable || attempt >= maxBackoffRetries {
			if endpoint != "" && got.Status == http.StatusOK {
				r.mu.Lock()
				r.latency[endpoint] = append(r.latency[endpoint], time.Since(t0).Nanoseconds())
				r.mu.Unlock()
			}
			return got
		}
		wait := backoffCap
		if secs, err := strconv.Atoi(got.RetryAfter); err == nil && secs >= 0 && time.Duration(secs)*time.Second < wait {
			wait = time.Duration(secs) * time.Second
		}
		r.backoffs.Add(1)
		time.Sleep(wait)
	}
}

// scoped is an exchange with the run's model, for send.
func (r *run) scoped(client, method, path string, body []byte) check.Outcome {
	return check.Outcome{Client: client, Model: r.model, Method: method, Path: path, Body: body}
}

// fetchInfo reads the model detail, recorded as a state read.
func (r *run) fetchInfo(client string) (*modelInfo, error) {
	o := r.scoped(client, http.MethodGet, "/v1/models/"+r.model, nil)
	o.Kind = check.State
	o = r.send("", o, true)
	if o.Status != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/models/%s: %d %s%s", r.model, o.Status, o.Err, o.Resp)
	}
	var info modelInfo
	if err := json.Unmarshal(o.Resp, &info); err != nil {
		return nil, err
	}
	r.gen = o.Gen
	return &info, nil
}

// reload re-PUTs the self-hosted snapshot. The bytes are the ones the
// model already serves, so the new generation is declared an alias.
func (r *run) reload(client string) error {
	o := r.scoped(client, http.MethodPut, "/v1/models/"+r.model, r.snap)
	o.Kind = check.Write
	o = r.send("", o, true)
	if o.Status != http.StatusOK {
		return fmt.Errorf("hot reload: %d %s%s", o.Status, o.Err, o.Resp)
	}
	r.h.Alias(r.model, o.Gen, r.gen)
	r.gen = o.Gen
	return nil
}

// classifyBody draws one classify request: a value per dominator
// attribute (single) or batchRows rows of them (batch), then a target.
func (r *run) classifyBody(batchRows int) map[string]any {
	req := map[string]any{}
	if batchRows == 0 {
		values := map[string]int{}
		for _, a := range r.info.Dominator {
			values[a] = 1 + r.rng.Intn(r.info.K)
		}
		req["values"] = values
	} else {
		rows := make([][]int, batchRows)
		for i := range rows {
			rows[i] = make([]int, len(r.info.Dominator))
			for j := range rows[i] {
				rows[i][j] = 1 + r.rng.Intn(r.info.K)
			}
		}
		req["rows"] = rows
	}
	req["target"] = r.info.Targets[r.rng.Intn(len(r.info.Targets))]
	return req
}

// classifyPool marshals poolSize classify bodies.
func (r *run) classifyPool(batchRows int) [][]byte {
	pool := make([][]byte, poolSize)
	for i := range pool {
		pool[i], _ = json.Marshal(r.classifyBody(batchRows)) // plain maps of strings and ints
	}
	return pool
}

// summarize folds the recorded latencies into the report.
func (r *run) summarize(rep *report, served int, wall time.Duration) {
	names := make([]string, 0, len(r.latency))
	for name := range r.latency {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ls := r.latency[name]
		sort.Slice(ls, func(i, j int) bool { return ls[i] < ls[j] })
		var sum int64
		for _, l := range ls {
			sum += l
		}
		er := endpointReport{
			Endpoint: name,
			Requests: len(ls),
			MeanNs:   float64(sum) / float64(len(ls)),
			P50Ns:    ls[len(ls)/2],
			P90Ns:    ls[len(ls)*90/100],
			P99Ns:    ls[len(ls)*99/100],
			MaxNs:    ls[len(ls)-1],
		}
		rep.Serve = append(rep.Serve, er)
		fmt.Printf("%-16s %6d reqs  mean %8.1fus  p50 %8.1fus  p90 %8.1fus  p99 %8.1fus  max %8.1fus\n",
			name, er.Requests, er.MeanNs/1e3, float64(er.P50Ns)/1e3, float64(er.P90Ns)/1e3,
			float64(er.P99Ns)/1e3, float64(er.MaxNs)/1e3)
	}
	rep.Total.Requests = served
	rep.Total.WallNs = wall.Nanoseconds()
	rep.Total.QPS = float64(served) / wall.Seconds()
}

// query is one pre-generated request of a replay.
type query struct {
	endpoint, method, path string
	body                   []byte
}

// replay generates the deterministic default or batch mix and drives
// it serially, hot-reloading between equal slices when self-hosted.
func (r *run) replay(rep *report, n, cancelEvery int, batch bool) error {
	info, model := r.info, r.model

	// Weighted mix: classification dominates, as in a serving workload.
	type mixEntry struct {
		weight int
		build  func(i int) query
	}
	var mix []mixEntry
	if batch {
		// One multiplexed typed batch per request, POSTed to :query:
		// three single classifies, one batch classify, a similarity
		// pair, a ranking, the dominator, and (on every 4th pool slot)
		// a rules query — the whole default mix in one round trip.
		batchPool := make([][]byte, poolSize)
		for i := range batchPool {
			items := []map[string]any{
				{"classify": r.classifyBody(0)},
				{"classify": r.classifyBody(0)},
				{"classify": r.classifyBody(0)},
				{"classify": r.classifyBody(4)},
				{"similar": map[string]any{
					"a": info.Dominator[i%len(info.Dominator)],
					"b": info.Dominator[(i+1)%len(info.Dominator)],
				}},
				{"similar": map[string]any{"a": info.Dominator[i%len(info.Dominator)], "top": 5}},
				{"dominators": map[string]any{}},
			}
			if i%4 == 0 {
				items = append(items, map[string]any{"rules": map[string]any{
					"head": info.Targets[i%len(info.Targets)], "top": 5,
				}})
			}
			batchPool[i], _ = json.Marshal(map[string]any{"batch": items})
		}
		mix = []mixEntry{{1, func(i int) query {
			return query{"query_batch", http.MethodPost, "/v1/models/" + model + ":query", batchPool[i%poolSize]}
		}}}
	} else {
		singles, batches := r.classifyPool(0), r.classifyPool(8)
		mix = []mixEntry{
			{8, func(i int) query {
				return query{"classify", http.MethodPost, "/v1/models/" + model + "/classify", singles[i%poolSize]}
			}},
			{2, func(i int) query {
				return query{"classify_batch", http.MethodPost, "/v1/models/" + model + "/classify:batch", batches[i%poolSize]}
			}},
			{2, func(i int) query {
				return query{"similar", http.MethodGet,
					fmt.Sprintf("/v1/models/%s/similar?a=%s&top=5", model, info.Dominator[i%len(info.Dominator)]), nil}
			}},
			{1, func(i int) query {
				return query{"rules", http.MethodGet,
					fmt.Sprintf("/v1/models/%s/rules?head=%s&top=5", model, info.Targets[i%len(info.Targets)]), nil}
			}},
			{1, func(i int) query {
				return query{"dominators", http.MethodGet, "/v1/models/" + model + "/dominators", nil}
			}},
		}
	}
	totalWeight := 0
	for _, e := range mix {
		totalWeight += e.weight
	}
	queries := make([]query, n)
	for i := range queries {
		pick := r.rng.Intn(totalWeight)
		for _, e := range mix {
			if pick < e.weight {
				queries[i] = e.build(i)
				break
			}
			pick -= e.weight
		}
	}

	reloadEvery := 0
	if r.snap != nil {
		reloadEvery = n / (reloads + 1)
	}
	var cr *cancelReport
	if cancelEvery > 0 {
		cr = &cancelReport{Every: cancelEvery}
		rep.Cancel = cr
	}
	start := time.Now()
	for i, q := range queries {
		if reloadEvery > 0 && i > 0 && i%reloadEvery == 0 && rep.Reloads < reloads {
			if err := r.reload("replay"); err != nil {
				return err
			}
			rep.Reloads++
		}
		if cr != nil && i > 0 && i%cancelEvery == 0 {
			// Inject an abandoned client: a heavy rules query whose
			// client-side deadline expires mid-request. Its outcome is
			// counted, never recorded or latency-timed.
			cr.Injected++
			if r.abandon(i) {
				cr.ClientTimeouts++
			}
			continue
		}
		r.send(q.endpoint, r.scoped("replay", q.method, q.path, q.body), true)
	}
	wall := time.Since(start)

	// QPS counts only requests actually served to completion: injected
	// abandoned clients are excluded so runs with and without
	// -cancel-every stay comparable.
	served := n
	if cr != nil {
		served -= cr.Injected
	}
	r.summarize(rep, served, wall)
	fmt.Printf("total: %d requests in %s (%.0f qps), %d hot reloads\n",
		served, wall.Round(time.Millisecond), rep.Total.QPS, rep.Reloads)
	if cr == nil {
		return nil
	}
	// Survival check: after the abort burst the server must still
	// answer both the liveness probe and a real query, and /stats
	// reports how many aborts it observed.
	health := r.send("", check.Outcome{Client: "replay", Method: http.MethodGet, Path: "/healthz"}, true)
	detail := r.send("", r.scoped("replay", http.MethodGet, "/v1/models/"+model+"/dominators", nil), true)
	cr.SurvivedBurst = health.Status == http.StatusOK && detail.Status == http.StatusOK
	var stats struct {
		Timeouts int64 `json:"timeouts"`
		Canceled int64 `json:"canceled"`
	}
	r.stats(&stats)
	cr.ServerCanceled, cr.ServerTimeouts = stats.Canceled, stats.Timeouts
	fmt.Printf("cancel scenario: %d injected, %d client timeouts, server observed %d canceled + %d timed out, survived=%v\n",
		cr.Injected, cr.ClientTimeouts, cr.ServerCanceled, cr.ServerTimeouts, cr.SurvivedBurst)
	if !cr.SurvivedBurst {
		return errors.New("server did not survive the cancellation burst")
	}
	return nil
}

// abandon sends a heavy rules query under a 1ms client deadline and
// reports whether the deadline, not the server, ended it.
func (r *run) abandon(i int) bool {
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	url := fmt.Sprintf("%s/v1/models/%s/rules?head=%s&top=50", r.base, r.model, r.info.Targets[i%len(r.info.Targets)])
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return false
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return errors.Is(err, context.DeadlineExceeded)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return false
}

// stats decodes the server's /stats counters into out; a failed scrape
// leaves out zero.
func (r *run) stats(out any) {
	resp, err := r.client.Get(r.base + "/stats")
	if err != nil {
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		_ = json.NewDecoder(resp.Body).Decode(out)
	}
}

// overload drives the fault-injecting scenario: an unloaded baseline
// pass, then a deterministic concurrency ramp past gate capacity with
// slow-client stalls and hot reloads between waves.
func (r *run) overload(rep *report, n int) error {
	// Deterministic request pool: classify singles (cheap class), the
	// dominator read (cheap), and a few rules queries (expensive). The
	// pool is small so every request replays many times and any drift
	// is caught.
	var pool []check.Outcome
	for _, body := range r.classifyPool(0) {
		pool = append(pool, r.scoped("", http.MethodPost, "/v1/models/"+r.model+"/classify", body))
	}
	pool = append(pool, r.scoped("", http.MethodGet, "/v1/models/"+r.model+"/dominators", nil))
	for i := 0; i < 4 && i < len(r.info.Targets); i++ {
		pool = append(pool, r.scoped("", http.MethodGet,
			fmt.Sprintf("/v1/models/%s/rules?head=%s&top=5", r.model, r.info.Targets[i]), nil))
	}

	// Unloaded serial baseline: one clean pass over the pool. This also
	// warms every lazy artifact, so admitted overload answers have no
	// first-build variance to hide behind.
	for _, q := range pool {
		q.Client = "baseline"
		r.send("", q, false)
	}

	ov := &overloadReport{Gates: "cheap=2/4 expensive=1/2 (self-hosted defaults)"}
	rep.Overload = ov
	waves := []int{2, 4, 8, 16, 32}
	perWave := max(n/len(waves), len(pool))

	var stimSeq atomic.Int64
	healthzOK := true
	for wi, conc := range waves {
		if r.snap != nil && wi > 0 && ov.Reloads < reloads {
			if err := r.reload("driver"); err != nil {
				return err
			}
			ov.Reloads++
		}

		// Slow clients: half-open connections that send an incomplete
		// request and stall for the whole wave. They hold no gate slot
		// (the handler never starts) and must not block the accept
		// loop — the concurrent healthz probes below prove the server
		// keeps serving around them.
		stop, stalls := startStalls(r.base, conc/8)
		ov.StallConns += stalls

		var admitted, shed atomic.Int64
		tally := func(o check.Outcome) {
			switch o = r.send("", o, false); o.Status {
			case http.StatusOK:
				admitted.Add(1)
			case http.StatusTooManyRequests, http.StatusServiceUnavailable:
				shed.Add(1)
			}
		}

		// Half the wave mines: every stimulus query uses a fresh `top`,
		// which is part of the rule-cache key, so each one is a real
		// MineRules run that holds the expensive gate slot (capacity 1)
		// for many milliseconds. The other half replays the pooled warm
		// requests. Even on one CPU the miners overlap the gate — async
		// preemption schedules the other workers' Enter calls mid-mine —
		// so the upper rungs of the ramp are guaranteed past capacity +
		// queue.
		stimWorkers := max(conc/2, 1)
		var wg sync.WaitGroup
		for w := 0; w < stimWorkers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 3; i++ {
					seq := stimSeq.Add(1)
					tally(r.scoped(fmt.Sprintf("miner-%d-%d", conc, w), http.MethodGet,
						fmt.Sprintf("/v1/models/%s/rules?head=%s&top=%d",
							r.model, r.info.Targets[int(seq)%len(r.info.Targets)], 11+seq), nil))
				}
			}()
		}
		var next atomic.Int64
		for w := stimWorkers; w < conc; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= perWave {
						return
					}
					q := pool[(i*7+wi)%len(pool)]
					q.Client = fmt.Sprintf("worker-%d-%d", conc, w)
					tally(q)
				}
			}()
		}
		// Liveness during saturation: the probe must answer while the
		// workers and stalled connections lean on the server.
		probeDone := make(chan struct{})
		go func() {
			defer close(probeDone)
			for j := 0; j < 3; j++ {
				o := r.send("", check.Outcome{Client: "probe", Method: http.MethodGet, Path: "/healthz"}, false)
				if o.Status != http.StatusOK {
					healthzOK = false
				}
				time.Sleep(2 * time.Millisecond)
			}
		}()
		wg.Wait()
		<-probeDone
		stop()

		wave := waveReport{
			Concurrency: conc,
			Requests:    perWave + stimWorkers*3,
			Admitted:    int(admitted.Load()),
			Shed:        int(shed.Load()),
		}
		ov.Waves = append(ov.Waves, wave)
		ov.Admitted += wave.Admitted
		ov.Shed += wave.Shed
		fmt.Printf("wave c=%-3d %5d reqs: %5d admitted, %5d shed (%d stalled conns)\n",
			conc, wave.Requests, wave.Admitted, wave.Shed, stalls)
	}
	ov.HealthzDuringOK = healthzOK
	rep.Reloads += ov.Reloads
	rep.Total.Requests = ov.Admitted + ov.Shed

	// The server's own accounting must have seen the shedding.
	var stats struct {
		Shed int64 `json:"shed"`
	}
	r.stats(&stats)
	ov.ServerShed = stats.Shed

	fmt.Printf("overload: %d admitted, %d shed, healthz_ok=%v, server shed counter=%d\n",
		ov.Admitted, ov.Shed, ov.HealthzDuringOK, ov.ServerShed)
	switch {
	case ov.Shed == 0:
		return errors.New("overload ramp never shed — gates larger than the ramp, nothing was proven")
	case !ov.HealthzDuringOK:
		return errors.New("healthz failed during saturation")
	case ov.ServerShed < int64(ov.Shed):
		return fmt.Errorf("server shed counter %d < observed rejections %d", ov.ServerShed, ov.Shed)
	}
	return nil
}

// churn interleaves :append republishes with concurrent query workers,
// then reads the model's final state.
func (r *run) churn(rep *report, n int) error {
	// Deterministic query pool: classify singles plus the two
	// graph-shaped reads. Every entry is repeated many times at every
	// generation, so per-generation drift cannot hide.
	type cq struct {
		endpoint string
		o        check.Outcome
	}
	var pool []cq
	for _, body := range r.classifyPool(0) {
		pool = append(pool, cq{"classify", r.scoped("", http.MethodPost, "/v1/models/"+r.model+"/classify", body)})
	}
	pool = append(pool, cq{"dominators", r.scoped("", http.MethodGet, "/v1/models/"+r.model+"/dominators", nil)})
	for i := 0; i < 4 && i < len(r.info.Dominator); i++ {
		pool = append(pool, cq{"similar", r.scoped("", http.MethodGet,
			fmt.Sprintf("/v1/models/%s/similar?a=%s&top=5", r.model, r.info.Dominator[i]), nil)})
	}

	// Deterministic append schedule: batch sizes cycle small-to-larger,
	// each batch fired after a fixed number of completed queries, so the
	// interleaving structure is reproducible run to run.
	const appends = 8
	sizes := [...]int{1, 5, 10, 25}
	batches := make([][][]int, appends)
	for s := range batches {
		batches[s] = make([][]int, sizes[s%len(sizes)])
		for i := range batches[s] {
			batches[s][i] = make([]int, r.info.Attrs)
			benchfix.CorrelatedRow(r.rng, batches[s][i], r.info.K)
		}
	}
	perStep := max(n/(appends+1), 1)

	ch := &churnReport{}
	rep.Churn = ch
	var completed atomic.Int64
	stop := make(chan struct{})
	start := time.Now()
	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; ; i += workers {
				select {
				case <-stop:
					return
				default:
				}
				q := pool[i%len(pool)]
				q.o.Client = fmt.Sprintf("worker-%d", w)
				r.send(q.endpoint, q.o, true)
				completed.Add(1)
			}
		}()
	}
	waitFor := func(target int64) {
		for completed.Load() < target {
			time.Sleep(time.Millisecond)
		}
	}

	// The driver: fire each append once the workers have completed its
	// scheduled share of queries, so appends land mid-traffic. An append
	// still refused after its backoff retries fails the run.
	var err error
	for s, batch := range batches {
		waitFor(int64((s + 1) * perStep))
		body, _ := json.Marshal(map[string]any{"rows": batch}) // ints only
		o := r.scoped("driver", http.MethodPost, "/v1/models/"+r.model+":append", body)
		o.Kind, o.Appended = check.Write, len(batch)
		if o = r.send("", o, true); o.Status != http.StatusOK {
			err = fmt.Errorf("append %d not acked: %d %s%s", s, o.Status, o.Err, o.Resp)
			break
		}
		ch.Appends++
		ch.AppendedRows += len(batch)
	}
	if err == nil {
		waitFor(int64(n))
	}
	close(stop)
	wg.Wait()
	if err != nil {
		return err
	}
	wall := time.Since(start)
	ch.Queries = int(completed.Load())

	// The final state read, which check holds to the last ack.
	if _, err := r.fetchInfo("driver"); err != nil {
		return err
	}
	r.summarize(rep, ch.Queries, wall)
	fmt.Printf("churn: %d acked appends (%d rows) across %d queries\n", ch.Appends, ch.AppendedRows, ch.Queries)
	return nil
}

// startStalls opens nConns raw connections that send an incomplete
// request and then go silent — the classic slow client. The returned
// stop func closes them.
func startStalls(baseURL string, nConns int) (func(), int) {
	host := strings.TrimPrefix(baseURL, "http://")
	var conns []net.Conn
	for i := 0; i < nConns; i++ {
		c, err := net.DialTimeout("tcp", host, time.Second)
		if err != nil {
			continue
		}
		// Headers without the terminating blank line: the server's
		// reader waits for the rest of the request forever (or until
		// close below).
		fmt.Fprintf(c, "GET /healthz HTTP/1.1\r\nHost: %s\r\nX-Stall: 1\r\n", host)
		conns = append(conns, c)
	}
	return func() {
		for _, c := range conns {
			c.Close()
		}
	}, len(conns)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "loadgen:", err)
	os.Exit(1)
}
