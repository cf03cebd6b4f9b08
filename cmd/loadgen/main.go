// Command loadgen replays deterministic query mixes against a
// hypermined server and writes the results as machine-readable JSON
// (to stdout unless -out names a file).
//
// Two modes:
//
//   - Self-hosted (default): builds the shared benchfix serving model,
//     boots an in-process hypermined server on loopback, and replays
//     the mix against it — hot-reloading the model mid-run to prove
//     serving continuity.
//   - Remote (-addr): replays the mix against an already running
//     hypermined (used by the CI serving smoke).
//
// In both modes every classify request is drawn from a fixed pool of
// deterministic queries and each response is compared byte-for-byte
// against the first response to the same query, so the run fails if
// serving answers drift — including across hot reloads.
//
// Usage:
//
//	go run ./cmd/loadgen [-addr URL -model NAME] [-n 2000] [-quick] [-out FILE.json] [-cancel-every N]
//
// With -cancel-every N, every Nth request is replaced by a heavy rules
// query issued under a short client-side deadline — a client that goes
// away mid-request. The run then verifies the server survived the
// burst (healthz + a fresh query succeed, zero identity mismatches on
// the normal traffic) and reports how many aborts the server actually
// observed (from /stats). The server-observed count depends on how
// fast the host delivers the disconnect: on a busy single-core
// machine a sub-10ms handler often finishes before the abort is
// noticed, so the deterministic proof of in-flight abort lives in the
// internal/server unit tests; this scenario proves survival and
// answer integrity under the burst.
//
// With -mix overload, loadgen becomes the fault-injecting overload
// harness for the admission-control subsystem: a deterministic
// concurrency ramp (2 -> 32 workers) drives a server with tiny gates
// past capacity while slow clients stall half-open connections against
// the accept loop and (self-hosted) the model hot-reloads between
// waves. Every response must be either byte-identical to the unloaded
// serial baseline (admitted) or a well-formed rejection (429/503 with
// an integral Retry-After >= 1); the run fails on any violation, on
// zero shed traffic (the ramp must actually saturate), or if /healthz
// stops answering during saturation. In self-hosted mode the in-process
// server is configured with gates cheap=2/queue=4, expensive=1/queue=2;
// in remote mode boot hypermined with -gate-*/-queue-* flags sized
// below the ramp.
//
// With -mix churn, loadgen exercises the incremental mining pipeline:
// concurrent query workers replay the deterministic classify pool
// while the driver POSTs a deterministic schedule of :append batches
// between fixed query counts. Every response is attributed to a
// generation via its X-Model-Generation header and checked two ways —
// identity (responses to the same query at the same generation must be
// byte-identical) and coherence (a response's generation may never be
// older than the latest append acknowledged before the request was
// sent, and each worker's observed generations are monotonic). The run
// fails on any identity mismatch, stale generation, missing header, or
// if the final generation/row count disagrees with the appends
// performed.
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
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hypermine/internal/admit"
	"hypermine/internal/benchfix"
	"hypermine/internal/core"
	"hypermine/internal/fleet/sim"
	"hypermine/internal/registry"
	"hypermine/internal/server"
	"hypermine/internal/telemetry"
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

// traceClientReport summarizes the X-Trace-Id contract as seen from
// the client side; nil when the server has tracing off.
type traceClientReport struct {
	TracedResponses int `json:"traced_responses"`
	BadTraceIDs     int `json:"bad_trace_ids"`
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
	Mix                string `json:"mix"`
	Reloads            int    `json:"reloads"`
	IdentityMismatches int    `json:"identity_mismatches"`
	// Trace reports X-Trace-Id coverage across all responses; nil when
	// the server never sent the header (tracing off).
	Trace *traceClientReport `json:"trace,omitempty"`
	// Cancel reports the client-side timeout injection scenario
	// (-cancel-every); nil when disabled.
	Cancel *cancelReport `json:"cancel,omitempty"`
	// Overload reports the -mix overload scenario; nil otherwise.
	Overload *overloadReport `json:"overload,omitempty"`
	// Churn reports the -mix churn append/query scenario; nil otherwise.
	Churn *churnReport `json:"churn,omitempty"`
	// Fleet reports the -mix fleet routed-cluster scenario; nil otherwise.
	Fleet *fleetReport `json:"fleet,omitempty"`
	// RetryBackoffs counts requests that were retried after honoring a
	// Retry-After hint on a 429/503 (all mixes except overload, which
	// measures shedding and must observe rejections raw).
	RetryBackoffs int `json:"retry_backoffs"`
}

// fleetReport summarizes the -mix fleet scenario: the default query mix
// driven through a self-hosted 3-node fleet router while the model's
// primary owner is killed, written around, and restarted.
type fleetReport struct {
	Nodes    int    `json:"nodes"`
	Replicas int    `json:"replicas"`
	Victim   string `json:"victim"` // the primary owner that gets killed
	Kills    int    `json:"kills"`
	Restarts int    `json:"restarts"`
	// WritesThroughRouter counts snapshot PUTs routed through the fleet
	// router (one with the fleet healthy, one during the outage —
	// exercising write failover).
	WritesThroughRouter int `json:"writes_through_router"`
	// MissingGenHeaders counts routed query responses without
	// X-Model-Generation; must be zero.
	MissingGenHeaders int   `json:"missing_generation_headers"`
	RouterForwards    int64 `json:"router_forwards"`
	RouterFailovers   int64 `json:"router_failovers"`
	FinalGeneration   int64 `json:"final_generation"`
	// GenerationAgreed: after the restart converged, every owner in the
	// model's replica set served the same generation.
	GenerationAgreed bool `json:"generation_agreed"`
	// ReadyAfterRestart: every node answered /readyz 200 at the end.
	ReadyAfterRestart bool `json:"ready_after_restart"`
}

// churnReport summarizes the append/query interleaving scenario.
type churnReport struct {
	Appends      int `json:"appends"`
	AppendedRows int `json:"appended_rows"`
	// Generations is the number of distinct generations observed in
	// query responses (initial + one per published append).
	Generations int `json:"generations"`
	Queries     int `json:"queries"`
	// StaleResponses counts responses whose generation was older than
	// the newest append acknowledged before the request was sent;
	// MissingGenHeaders counts responses without X-Model-Generation;
	// NonMonotonic counts per-worker generation regressions. All three
	// must be zero.
	StaleResponses    int   `json:"stale_responses"`
	MissingGenHeaders int   `json:"missing_generation_headers"`
	NonMonotonic      int   `json:"non_monotonic_generations"`
	FinalGeneration   int64 `json:"final_generation"`
	FinalRows         int   `json:"final_rows"`
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
	// BadRejections counts rejections violating the contract (wrong
	// status, missing or non-integral Retry-After); must be zero.
	BadRejections int `json:"bad_rejections"`
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

// traceIDRe is the X-Trace-Id wire contract: 32 lowercase hex digits.
var traceIDRe = regexp.MustCompile(`^[0-9a-f]{32}$`)

// tracedSeen / tracedBad count responses carrying an X-Trace-Id and
// those whose ID violates the contract (wrong shape, or the invalid
// all-zero ID). Package-level atomics so every request path — serial
// replay, overload workers, doOnce — feeds the same tally.
var tracedSeen, tracedBad atomic.Int64

// noteTraceID verifies the X-Trace-Id header on one response.
func noteTraceID(h http.Header) {
	tid := h.Get("X-Trace-Id")
	if tid == "" {
		return
	}
	tracedSeen.Add(1)
	if !traceIDRe.MatchString(tid) || tid == strings.Repeat("0", 32) {
		tracedBad.Add(1)
	}
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
	seed := flag.Int64("seed", 7, "query-mix seed")
	reloads := flag.Int("reloads", 3, "hot reloads during the run (self-hosted mode)")
	attrs := flag.Int("attrs", 30, "self-hosted model attributes")
	rows := flag.Int("rows", 20000, "self-hosted model rows")
	out := flag.String("out", "-", "output JSON path ('-' for stdout only)")
	quick := flag.Bool("quick", false, "shrink workloads for CI smoke runs")
	cancelEvery := flag.Int("cancel-every", 0,
		"replace every Nth request with a rules query under a short client-side deadline (0 = off)")
	mixName := flag.String("mix", "default",
		"query mix: default (dedicated endpoints), batch (multiplexed typed batches via :query), overload (fault-injecting saturation ramp), churn (concurrent queries during :append republishes), or fleet (default mix through a self-hosted 3-node fleet router with a kill/restart mid-run)")
	traceSample := flag.Bool("trace-sample", false,
		"after the run, fetch /debug/traces and pretty-print one retained trace's span tree")
	flag.Parse()

	switch *mixName {
	case "default", "batch", "overload", "churn", "fleet":
	default:
		fatal(fmt.Errorf("unknown -mix %q (want default, batch, overload, churn, or fleet)", *mixName))
	}

	if *quick {
		*n, *attrs, *rows = 400, 12, 1500
		if *mixName == "overload" {
			// The saturation stimulus is cold rules mining; on this
			// model size one mine holds the expensive gate ~15ms, long
			// enough for the other workers to pile up behind it even
			// on a single-core host. The 12x1500 quick model mines in
			// ~1ms and never saturates anything.
			*attrs, *rows = 24, 10000
		}
	}

	rep := &report{
		PR:         3,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Note: "serving-path benchmark over real HTTP on loopback; latencies are " +
			"end-to-end (client encode + HTTP + handler + decode). Single-core " +
			"host: concurrency correctness is proven by race-enabled registry/server " +
			"tests and the byte-identity checks across hot reloads in this run, " +
			"not by parallel speedup numbers.",
	}

	var snapPath string
	var cluster *sim.Cluster
	baseURL := *addr
	if *mixName == "fleet" {
		if baseURL != "" {
			fatal(errors.New("-mix fleet self-hosts its own cluster; -addr is not supported"))
		}
		var err error
		cluster, baseURL, snapPath, err = startFleet(rep, *model, *attrs, *rows)
		if err != nil {
			fatal(err)
		}
		defer cluster.Close()
	} else if baseURL == "" {
		// The overload mix needs something to saturate: tiny gates so
		// the ramp's upper rungs exceed capacity + queue by design.
		var ctl *admit.Controller
		if *mixName == "overload" {
			ctl = admit.NewController(admit.Config{
				CheapCapacity: 2, CheapQueue: 4,
				ExpensiveCapacity: 1, ExpensiveQueue: 2,
			})
		}
		var err error
		baseURL, snapPath, err = selfHost(*model, *attrs, *rows, ctl)
		if err != nil {
			fatal(err)
		}
	} else {
		*reloads = 0 // remote servers are not reloaded from here
	}
	baseURL = strings.TrimRight(baseURL, "/")

	info, err := fetchInfo(baseURL, *model)
	if err != nil {
		fatal(err)
	}
	rep.Model.Attrs, rep.Model.Rows, rep.Model.Edges, rep.Model.K = info.Attrs, info.Rows, info.Edges, info.K
	if !info.Classify || len(info.Targets) == 0 {
		fatal(fmt.Errorf("model %q cannot classify; loadgen needs a classifiable model", *model))
	}

	rep.Mix = *mixName
	switch *mixName {
	case "overload":
		if err := runOverload(rep, baseURL, *model, info, *n, *seed, *reloads, snapPath); err != nil {
			fatal(err)
		}
	case "churn":
		if err := runChurn(rep, baseURL, *model, info, *n, *seed); err != nil {
			fatal(err)
		}
	case "fleet":
		if err := runFleet(rep, cluster, baseURL, *model, info, *n, *seed, snapPath); err != nil {
			fatal(err)
		}
	default:
		if err := replay(rep, baseURL, *model, info, *n, *seed, *reloads, snapPath, *cancelEvery, *mixName); err != nil {
			fatal(err)
		}
	}

	if seen, bad := tracedSeen.Load(), tracedBad.Load(); seen > 0 || bad > 0 {
		rep.Trace = &traceClientReport{TracedResponses: int(seen), BadTraceIDs: int(bad)}
		fmt.Printf("trace IDs: %d responses carried X-Trace-Id, %d malformed\n", seen, bad)
	}

	if *traceSample {
		if err := sampleTrace(baseURL); err != nil {
			fatal(err)
		}
	}

	rep.RetryBackoffs = int(backoffWaits.Load())
	if rep.RetryBackoffs > 0 {
		fmt.Printf("backoff: honored Retry-After %d times\n", rep.RetryBackoffs)
	}

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
	if rep.IdentityMismatches > 0 {
		fatal(fmt.Errorf("%d identity mismatches", rep.IdentityMismatches))
	}
	if rep.Trace != nil && rep.Trace.BadTraceIDs > 0 {
		fatal(fmt.Errorf("%d malformed X-Trace-Id headers", rep.Trace.BadTraceIDs))
	}
	// The self-hosted server runs with tracing on (as hypermined does by
	// default), so every response must have carried a trace ID. (The
	// fleet mix's nodes run without a tracer, like the sim's.)
	if *addr == "" && *mixName != "fleet" && (rep.Trace == nil || rep.Trace.TracedResponses == 0) {
		fatal(errors.New("self-hosted server returned no X-Trace-Id headers"))
	}
}

// sampleTrace fetches /debug/traces and pretty-prints the slowest
// retained trace's span tree — the operator's view of where a slow
// request spent its time.
func sampleTrace(baseURL string) error {
	resp, err := http.Get(baseURL + "/debug/traces")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		fmt.Println("trace sample: server has tracing off (/debug/traces not mounted)")
		return nil
	}
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("GET /debug/traces: %d: %s", resp.StatusCode, raw)
	}
	var traces struct {
		SlowThresholdNs int64              `json:"slow_threshold_ns"`
		Slow            []*telemetry.Trace `json:"slow"`
		Recent          []*telemetry.Trace `json:"recent"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&traces); err != nil {
		return err
	}
	// Prefer the slowest trace that has spans to attribute; fall back to
	// the slowest overall.
	var pick *telemetry.Trace
	for _, tr := range append(append([]*telemetry.Trace{}, traces.Slow...), traces.Recent...) {
		switch {
		case pick == nil:
			pick = tr
		case len(tr.Spans) > 0 && len(pick.Spans) == 0:
			pick = tr
		case (len(tr.Spans) > 0) == (len(pick.Spans) > 0) && tr.Duration > pick.Duration:
			pick = tr
		}
	}
	if pick == nil {
		fmt.Println("trace sample: no traces retained yet")
		return nil
	}
	fmt.Printf("trace sample (slow threshold %s):\n", time.Duration(traces.SlowThresholdNs))
	fmt.Printf("%s  kind=%s model=%s tenant=%s status=%d retained=%s  %s\n",
		pick.ID, pick.Kind, pick.Model, pick.Tenant, pick.Status, pick.Reason, pick.Duration.Round(time.Microsecond))
	for i, sp := range pick.Spans {
		branch := "├─"
		if i == len(pick.Spans)-1 {
			branch = "└─"
		}
		fmt.Printf("  %s %-12s +%-12s %s\n", branch, sp.Phase,
			time.Duration(sp.StartNs).Round(time.Microsecond),
			time.Duration(sp.DurationNs).Round(time.Microsecond))
	}
	if len(pick.Spans) == 0 {
		fmt.Println("  └─ (no phase spans: the time went to warm reads or queue wait)")
	}
	if pick.Dropped > 0 {
		fmt.Printf("  … %d more spans dropped at the per-trace cap\n", pick.Dropped)
	}
	if pick.Err != "" {
		fmt.Printf("  error: %s\n", pick.Err)
	}
	return nil
}

// selfHost builds the benchfix model, saves a snapshot for mid-run
// reloads, and boots an in-process server — with the given admission
// controller in front when ctl is non-nil.
func selfHost(name string, attrs, rows int, ctl *admit.Controller) (baseURL, snapPath string, err error) {
	fmt.Printf("building %dx%d serving model...\n", rows, attrs)
	m := benchfix.ModelWorkload(attrs, rows)

	var snap bytes.Buffer
	if err := core.WriteSnapshot(&snap, m, core.SaveOptions{}); err != nil {
		return "", "", err
	}

	dir, err := os.MkdirTemp("", "loadgen")
	if err != nil {
		return "", "", err
	}
	snapPath = filepath.Join(dir, "model.snap")
	if err := os.WriteFile(snapPath, snap.Bytes(), 0o644); err != nil {
		return "", "", err
	}

	regOpts := registry.Options{}
	if ctl != nil {
		regOpts.LoadHook = ctl.RecordLoad
	}
	reg := registry.New(regOpts)
	if _, err := reg.Load(name, m); err != nil {
		return "", "", err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", "", err
	}
	// Tracing on, as hypermined runs it by default. The low slow
	// threshold guarantees the cold rules mines land in the always-kept
	// ring, so -trace-sample has a span tree to show.
	tracer := telemetry.NewTracer(telemetry.TracerConfig{SlowThreshold: time.Millisecond})
	go func() {
		_ = http.Serve(ln, server.New(reg,
			server.WithAdmission(ctl), server.WithTracer(tracer)).Handler())
	}()
	return "http://" + ln.Addr().String(), snapPath, nil
}

func fetchInfo(baseURL, model string) (*modelInfo, error) {
	resp, err := http.Get(baseURL + "/v1/models/" + model)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		return nil, fmt.Errorf("GET /v1/models/%s: %d: %s", model, resp.StatusCode, raw)
	}
	var info modelInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		return nil, err
	}
	return &info, nil
}

// query is one pre-generated request.
type query struct {
	endpoint string // mix key
	method   string
	url      string
	body     []byte
	identity int // >= 0: index into the identity table (classify pool)
}

// replay generates the deterministic mix and drives it serially,
// recording per-endpoint latencies and identity mismatches.
func replay(rep *report, baseURL, model string, info *modelInfo, n int, seed int64, reloads int, snapPath string, cancelEvery int, mixName string) error {
	rng := rand.New(rand.NewSource(seed))

	// Pool of 32 deterministic classify bodies; each remembers its
	// first response for byte-identity checking.
	const poolSize = 32
	type pooled struct {
		single []byte
		batch  []byte
	}
	pool := make([]pooled, poolSize)
	for i := range pool {
		values := map[string]int{}
		for _, a := range info.Dominator {
			values[a] = 1 + rng.Intn(info.K)
		}
		single, err := json.Marshal(map[string]any{
			"target": info.Targets[rng.Intn(len(info.Targets))],
			"values": values,
		})
		if err != nil {
			return err
		}
		batchRows := make([][]int, 8)
		for r := range batchRows {
			row := make([]int, len(info.Dominator))
			for j := range row {
				row[j] = 1 + rng.Intn(info.K)
			}
			batchRows[r] = row
		}
		batch, err := json.Marshal(map[string]any{
			"target": info.Targets[rng.Intn(len(info.Targets))],
			"rows":   batchRows,
		})
		if err != nil {
			return err
		}
		pool[i] = pooled{single: single, batch: batch}
	}

	// Weighted mix: classification dominates, as in a serving workload.
	type mixEntry struct {
		name   string
		weight int
		build  func(i int) query
	}
	var mix []mixEntry
	if mixName == "batch" {
		// One multiplexed typed batch per request, POSTed to :query:
		// three single classifies, one batch classify, a similarity
		// pair, a ranking, the dominator, and (on every 4th pool slot)
		// a rules query — the whole default mix in one round trip.
		// Bodies are deterministic and identity-checked like the
		// classify pool.
		batchPool := make([][]byte, poolSize)
		for i := range batchPool {
			var items []map[string]any
			for c := 0; c < 3; c++ {
				values := map[string]any{}
				for _, a := range info.Dominator {
					values[a] = 1 + rng.Intn(info.K)
				}
				items = append(items, map[string]any{"classify": map[string]any{
					"target": info.Targets[rng.Intn(len(info.Targets))],
					"values": values,
				}})
			}
			batchRows := make([][]int, 4)
			for r := range batchRows {
				row := make([]int, len(info.Dominator))
				for j := range row {
					row[j] = 1 + rng.Intn(info.K)
				}
				batchRows[r] = row
			}
			items = append(items,
				map[string]any{"classify": map[string]any{
					"target": info.Targets[rng.Intn(len(info.Targets))],
					"rows":   batchRows,
				}},
				map[string]any{"similar": map[string]any{
					"a": info.Dominator[i%len(info.Dominator)],
					"b": info.Dominator[(i+1)%len(info.Dominator)],
				}},
				map[string]any{"similar": map[string]any{
					"a":   info.Dominator[i%len(info.Dominator)],
					"top": 5,
				}},
				map[string]any{"dominators": map[string]any{}},
			)
			if i%4 == 0 {
				items = append(items, map[string]any{"rules": map[string]any{
					"head": info.Targets[i%len(info.Targets)],
					"top":  5,
				}})
			}
			body, err := json.Marshal(map[string]any{"batch": items})
			if err != nil {
				return err
			}
			batchPool[i] = body
		}
		mix = []mixEntry{
			{"query_batch", 1, func(i int) query {
				p := i % poolSize
				return query{"query_batch", http.MethodPost,
					baseURL + "/v1/models/" + model + ":query", batchPool[p], p}
			}},
		}
	} else {
		mix = []mixEntry{
			{"classify", 8, func(i int) query {
				p := i % poolSize
				return query{"classify", http.MethodPost,
					baseURL + "/v1/models/" + model + "/classify", pool[p].single, p}
			}},
			{"classify_batch", 2, func(i int) query {
				p := i % poolSize
				return query{"classify_batch", http.MethodPost,
					baseURL + "/v1/models/" + model + "/classify:batch", pool[p].batch, poolSize + p}
			}},
			{"similar", 2, func(i int) query {
				a := info.Dominator[i%len(info.Dominator)]
				return query{"similar", http.MethodGet,
					fmt.Sprintf("%s/v1/models/%s/similar?a=%s&top=5", baseURL, model, a), nil, -1}
			}},
			{"rules", 1, func(i int) query {
				head := info.Targets[i%len(info.Targets)]
				return query{"rules", http.MethodGet,
					fmt.Sprintf("%s/v1/models/%s/rules?head=%s&top=5", baseURL, model, head), nil, -1}
			}},
			{"dominators", 1, func(i int) query {
				return query{"dominators", http.MethodGet,
					baseURL + "/v1/models/" + model + "/dominators", nil, -1}
			}},
		}
	}
	totalWeight := 0
	for _, e := range mix {
		totalWeight += e.weight
	}
	queries := make([]query, n)
	for i := range queries {
		pick := rng.Intn(totalWeight)
		for _, e := range mix {
			if pick < e.weight {
				queries[i] = e.build(i)
				break
			}
			pick -= e.weight
		}
	}

	// Replay. Identity table: first response bytes per pooled body.
	identity := make([][]byte, 2*poolSize)
	latency := map[string][]int64{}
	client := &http.Client{}
	reloadEvery := 0
	if reloads > 0 {
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
			if err := putSnapshot(client, baseURL, model, snapPath); err != nil {
				return fmt.Errorf("hot reload %d: %w", rep.Reloads+1, err)
			}
			rep.Reloads++
		}
		if cr != nil && i > 0 && i%cancelEvery == 0 {
			// Inject an abandoned client: a heavy rules query whose
			// client-side deadline expires mid-request. Its outcome is
			// counted, never identity-checked or latency-recorded.
			cr.Injected++
			url := fmt.Sprintf("%s/v1/models/%s/rules?head=%s&top=50",
				baseURL, model, info.Targets[i%len(info.Targets)])
			ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
			if err != nil {
				cancel()
				return err
			}
			resp, err := client.Do(req)
			if err != nil {
				if errors.Is(err, context.DeadlineExceeded) {
					cr.ClientTimeouts++
				}
			} else {
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			cancel()
			continue
		}
		t0 := time.Now()
		code, _, raw, err := sendWithBackoff(client, q.method, q.url, "", q.body)
		elapsed := time.Since(t0).Nanoseconds()
		if err != nil {
			return err
		}
		if code != http.StatusOK {
			return fmt.Errorf("%s %s: %d: %s", q.method, q.url, code, raw)
		}
		latency[q.endpoint] = append(latency[q.endpoint], elapsed)
		if q.endpoint == "query_batch" && bytes.Contains(raw, []byte(`"error"`)) {
			return fmt.Errorf("batch response carries a sub-request error: %s", raw)
		}
		if q.identity >= 0 {
			if identity[q.identity] == nil {
				identity[q.identity] = raw
			} else if !bytes.Equal(identity[q.identity], raw) {
				rep.IdentityMismatches++
			}
		}
	}
	wall := time.Since(start)

	names := make([]string, 0, len(latency))
	for name := range latency {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ls := latency[name]
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
	// QPS counts only requests actually served to completion: injected
	// abandoned clients are excluded so runs with and without
	// -cancel-every stay comparable across the BENCH trajectory.
	served := n
	if cr != nil {
		served -= cr.Injected
	}
	rep.Total.Requests = served
	rep.Total.WallNs = wall.Nanoseconds()
	rep.Total.QPS = float64(served) / wall.Seconds()
	fmt.Printf("total: %d requests in %s (%.0f qps), %d hot reloads, %d identity mismatches\n",
		served, wall.Round(time.Millisecond), rep.Total.QPS, rep.Reloads, rep.IdentityMismatches)
	if cr != nil {
		// Survival check: after the abort burst the server must still
		// answer both the liveness probe and a real query, and /stats
		// reports how many aborts it observed.
		healthOK := false
		if resp, err := http.Get(baseURL + "/healthz"); err == nil {
			healthOK = resp.StatusCode == http.StatusOK
			resp.Body.Close()
		}
		queryOK := false
		if resp, err := http.Get(baseURL + "/v1/models/" + model); err == nil {
			queryOK = resp.StatusCode == http.StatusOK
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		cr.SurvivedBurst = healthOK && queryOK
		var stats struct {
			Timeouts int64 `json:"timeouts"`
			Canceled int64 `json:"canceled"`
		}
		if resp, err := http.Get(baseURL + "/stats"); err == nil {
			if resp.StatusCode == http.StatusOK {
				_ = json.NewDecoder(resp.Body).Decode(&stats)
			}
			resp.Body.Close()
		}
		cr.ServerCanceled, cr.ServerTimeouts = stats.Canceled, stats.Timeouts
		fmt.Printf("cancel scenario: %d injected, %d client timeouts, server observed %d canceled + %d timed out, survived=%v\n",
			cr.Injected, cr.ClientTimeouts, cr.ServerCanceled, cr.ServerTimeouts, cr.SurvivedBurst)
		if !cr.SurvivedBurst {
			return errors.New("server did not survive the cancellation burst")
		}
	}
	return nil
}

// runOverload drives the fault-injecting overload scenario: a
// deterministic concurrency ramp past gate capacity, slow-client
// stalls, and mid-run hot reloads, with per-response invariants —
// admitted answers byte-identical to the unloaded baseline, rejections
// carrying the correct status and Retry-After.
func runOverload(rep *report, baseURL, model string, info *modelInfo, n int, seed int64, reloads int, snapPath string) error {
	rng := rand.New(rand.NewSource(seed))

	// Deterministic request pool: classify singles (cheap class), the
	// dominator read (cheap), and a few rules queries (expensive). The
	// pool is small so every request replays many times and any drift
	// is caught.
	const poolSize = 32
	type oq struct {
		method, url string
		body        []byte
		key         int
	}
	var pool []oq
	for i := 0; i < poolSize; i++ {
		values := map[string]int{}
		for _, a := range info.Dominator {
			values[a] = 1 + rng.Intn(info.K)
		}
		body, err := json.Marshal(map[string]any{
			"target": info.Targets[rng.Intn(len(info.Targets))],
			"values": values,
		})
		if err != nil {
			return err
		}
		pool = append(pool, oq{http.MethodPost, baseURL + "/v1/models/" + model + "/classify", body, i})
	}
	pool = append(pool, oq{http.MethodGet, baseURL + "/v1/models/" + model + "/dominators", nil, poolSize})
	for i := 0; i < 4 && i < len(info.Targets); i++ {
		pool = append(pool, oq{http.MethodGet,
			fmt.Sprintf("%s/v1/models/%s/rules?head=%s&top=5", baseURL, model, info.Targets[i]),
			nil, poolSize + 1 + i})
	}

	// Unloaded serial baseline: one clean pass over the pool. This also
	// warms every lazy artifact, so admitted overload answers have no
	// first-build variance to hide behind.
	client := &http.Client{}
	baseline := make([][]byte, poolSize+1+4)
	for _, q := range pool {
		code, raw, _, err := doOnce(client, q.method, q.url, q.body)
		if err != nil {
			return err
		}
		if code != http.StatusOK {
			return fmt.Errorf("baseline %s: %d: %s", q.url, code, raw)
		}
		baseline[q.key] = raw
	}

	ov := &overloadReport{Gates: "cheap=2/4 expensive=1/2 (self-hosted defaults)"}
	rep.Overload = ov
	waves := []int{2, 4, 8, 16, 32}
	perWave := n / len(waves)
	if perWave < len(pool) {
		perWave = len(pool)
	}

	var mismatches, badRej atomic.Int64
	var stimSeq atomic.Int64
	healthzOK := true
	for wi, conc := range waves {
		// Hot reload between waves (self-hosted): the invariants must
		// hold across generations — the rebuilt artifacts answer
		// byte-identically.
		if snapPath != "" && wi > 0 && ov.Reloads < reloads {
			if err := putSnapshot(client, baseURL, model, snapPath); err != nil {
				return fmt.Errorf("hot reload: %w", err)
			}
			ov.Reloads++
		}

		// Slow clients: half-open connections that send an incomplete
		// request and stall for the whole wave. They hold no gate slot
		// (the handler never starts) and must not block the accept
		// loop — the concurrent healthz probes below prove the server
		// keeps serving around them.
		stop, stalls := startStalls(baseURL, conc/8)
		ov.StallConns += stalls

		var admitted, shed atomic.Int64
		// check applies the per-response invariants; identityKey < 0
		// skips the byte-identity comparison (stimulus queries are
		// unique by construction and have no baseline).
		check := func(code int, raw []byte, retry string, identityKey int, err error) {
			if err != nil {
				badRej.Add(1)
				fmt.Fprintf(os.Stderr, "overload: transport error: %v\n", err)
				return
			}
			switch {
			case code == http.StatusOK:
				admitted.Add(1)
				if identityKey >= 0 && !bytes.Equal(raw, baseline[identityKey]) {
					mismatches.Add(1)
				}
			case code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable:
				shed.Add(1)
				if secs, err := strconv.Atoi(retry); err != nil || secs < 1 {
					badRej.Add(1)
					fmt.Fprintf(os.Stderr, "overload: %d rejection with Retry-After %q\n", code, retry)
				}
			default:
				badRej.Add(1)
				fmt.Fprintf(os.Stderr, "overload: unexpected %d: %.120s\n", code, raw)
			}
		}

		// Half the wave mines: every stimulus query uses a fresh `top`,
		// which is part of the rule-cache key, so each one is a real
		// MineRules run that holds the expensive gate slot (capacity 1)
		// for many milliseconds. The other half replays the pooled warm
		// requests with identity checks. Even on one CPU the miners
		// overlap the gate — async preemption schedules the other
		// workers' Enter calls mid-mine — so the upper rungs of the
		// ramp are guaranteed past capacity + queue.
		stimWorkers := conc / 2
		if stimWorkers < 1 {
			stimWorkers = 1
		}
		var wg sync.WaitGroup
		for w := 0; w < stimWorkers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for r := 0; r < 3; r++ {
					seq := stimSeq.Add(1)
					url := fmt.Sprintf("%s/v1/models/%s/rules?head=%s&top=%d",
						baseURL, model, info.Targets[int(seq)%len(info.Targets)], 11+seq)
					code, raw, retry, err := doOnce(client, http.MethodGet, url, nil)
					check(code, raw, retry, -1, err)
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
					code, raw, retry, err := doOnce(client, q.method, q.url, q.body)
					check(code, raw, retry, q.key, err)
				}
			}()
		}
		// Liveness during saturation: the probe must answer while the
		// workers and stalled connections lean on the server.
		probeDone := make(chan struct{})
		go func() {
			defer close(probeDone)
			for j := 0; j < 3; j++ {
				resp, err := client.Get(baseURL + "/healthz")
				if err != nil || resp.StatusCode != http.StatusOK {
					healthzOK = false
				}
				if err == nil {
					_, _ = io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
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
	ov.BadRejections = int(badRej.Load())
	rep.IdentityMismatches += int(mismatches.Load())
	rep.Reloads += ov.Reloads
	rep.Total.Requests = ov.Admitted + ov.Shed

	// The server's own accounting must have seen the shedding.
	var stats struct {
		Shed int64 `json:"shed"`
	}
	if resp, err := client.Get(baseURL + "/stats"); err == nil {
		if resp.StatusCode == http.StatusOK {
			_ = json.NewDecoder(resp.Body).Decode(&stats)
		}
		resp.Body.Close()
	}
	ov.ServerShed = stats.Shed

	fmt.Printf("overload: %d admitted, %d shed, %d bad rejections, %d identity mismatches, healthz_ok=%v, server shed counter=%d\n",
		ov.Admitted, ov.Shed, ov.BadRejections, rep.IdentityMismatches, ov.HealthzDuringOK, ov.ServerShed)
	switch {
	case ov.BadRejections > 0:
		return fmt.Errorf("%d rejections violated the 429/503 + Retry-After contract", ov.BadRejections)
	case ov.Shed == 0:
		return errors.New("overload ramp never shed — gates larger than the ramp, nothing was proven")
	case !ov.HealthzDuringOK:
		return errors.New("healthz failed during saturation")
	case ov.ServerShed < int64(ov.Shed):
		return fmt.Errorf("server shed counter %d < observed rejections %d", ov.ServerShed, ov.Shed)
	}
	return nil
}

// churnOnce issues one request (honoring Retry-After like every
// non-overload path) and returns status, body, and the
// X-Model-Generation header.
func churnOnce(client *http.Client, method, url string, body []byte) (int, []byte, string, error) {
	code, hdr, raw, err := sendWithBackoff(client, method, url, "", body)
	if err != nil {
		return 0, nil, "", err
	}
	return code, raw, hdr.Get("X-Model-Generation"), nil
}

// fetchGen reads the serving generation from the model detail header.
func fetchGen(client *http.Client, baseURL, model string) (int64, error) {
	code, _, gen, err := churnOnce(client, http.MethodGet, baseURL+"/v1/models/"+model, nil)
	if err != nil {
		return 0, err
	}
	if code != http.StatusOK {
		return 0, fmt.Errorf("GET /v1/models/%s: %d", model, code)
	}
	return strconv.ParseInt(gen, 10, 64)
}

// runChurn interleaves :append republishes with concurrent query
// workers and verifies that every response is attributable to a
// coherent generation: per-(query, generation) byte identity, no
// response older than the latest acknowledged append, and per-worker
// generation monotonicity.
func runChurn(rep *report, baseURL, model string, info *modelInfo, n int, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	client := &http.Client{}

	// Deterministic query pool: classify singles plus the two
	// graph-shaped reads. Every entry is repeated many times at every
	// generation, so per-generation drift cannot hide.
	const classifyPool = 32
	type cq struct {
		endpoint, method, url string
		body                  []byte
		key                   int
	}
	var pool []cq
	for i := 0; i < classifyPool; i++ {
		values := map[string]int{}
		for _, a := range info.Dominator {
			values[a] = 1 + rng.Intn(info.K)
		}
		body, err := json.Marshal(map[string]any{
			"target": info.Targets[rng.Intn(len(info.Targets))],
			"values": values,
		})
		if err != nil {
			return err
		}
		pool = append(pool, cq{"classify", http.MethodPost,
			baseURL + "/v1/models/" + model + "/classify", body, i})
	}
	pool = append(pool, cq{"dominators", http.MethodGet,
		baseURL + "/v1/models/" + model + "/dominators", nil, classifyPool})
	for i := 0; i < 4 && i < len(info.Dominator); i++ {
		pool = append(pool, cq{"similar", http.MethodGet,
			fmt.Sprintf("%s/v1/models/%s/similar?a=%s&top=5", baseURL, model, info.Dominator[i]),
			nil, classifyPool + 1 + i})
	}

	// Deterministic append schedule: batch sizes cycle small-to-larger,
	// each batch fired after a fixed number of completed queries, so the
	// interleaving structure is reproducible run to run.
	const appends = 8
	sizes := [...]int{1, 5, 10, 25}
	batches := make([][][]int, appends)
	totalAppended := 0
	for s := range batches {
		batch := make([][]int, sizes[s%len(sizes)])
		for i := range batch {
			row := make([]int, info.Attrs)
			base := 1 + rng.Intn(info.K)
			for j := range row {
				if rng.Intn(3) == 0 {
					row[j] = 1 + rng.Intn(info.K)
				} else {
					row[j] = base
				}
			}
			batch[i] = row
		}
		batches[s] = batch
		totalAppended += len(batch)
	}
	perStep := n / (appends + 1)
	if perStep < 1 {
		perStep = 1
	}

	initialGen, err := fetchGen(client, baseURL, model)
	if err != nil {
		return err
	}
	ch := &churnReport{}
	rep.Churn = ch

	var (
		curGen    atomic.Int64 // newest generation acknowledged by an append response
		completed atomic.Int64
		stale     atomic.Int64
		missing   atomic.Int64
		nonMono   atomic.Int64
		mu        sync.Mutex // guards identity, gens, latency
		identity  = map[string][]byte{}
		gens      = map[int64]struct{}{}
		latency   = map[string][]int64{}
	)
	curGen.Store(initialGen)
	stop := make(chan struct{})
	errs := make(chan error, 8)
	start := time.Now()

	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lastSeen := int64(0)
			for i := w; ; i += workers {
				select {
				case <-stop:
					return
				default:
				}
				q := pool[i%len(pool)]
				genBefore := curGen.Load()
				t0 := time.Now()
				code, raw, genHdr, err := churnOnce(client, q.method, q.url, q.body)
				elapsed := time.Since(t0).Nanoseconds()
				if err != nil {
					errs <- err
					return
				}
				if code != http.StatusOK {
					errs <- fmt.Errorf("%s %s: %d: %.200s", q.method, q.url, code, raw)
					return
				}
				g, perr := strconv.ParseInt(genHdr, 10, 64)
				if genHdr == "" || perr != nil {
					missing.Add(1)
				} else {
					if g < genBefore {
						stale.Add(1)
					}
					if g < lastSeen {
						nonMono.Add(1)
					}
					lastSeen = g
					mu.Lock()
					gens[g] = struct{}{}
					ikey := fmt.Sprintf("%d@%d", q.key, g)
					if prev, ok := identity[ikey]; !ok {
						identity[ikey] = raw
					} else if !bytes.Equal(prev, raw) {
						rep.IdentityMismatches++
					}
					latency[q.endpoint] = append(latency[q.endpoint], elapsed)
					mu.Unlock()
				}
				completed.Add(1)
			}
		}(w)
	}

	// The driver: fire each append once the workers have completed its
	// scheduled share of queries, so appends land mid-traffic.
	appendURL := baseURL + "/v1/models/" + model + ":append"
	for s, batch := range batches {
		target := int64((s + 1) * perStep)
		for completed.Load() < target {
			select {
			case err := <-errs:
				close(stop)
				wg.Wait()
				return err
			default:
			}
			time.Sleep(time.Millisecond)
		}
		body, err := json.Marshal(map[string]any{"rows": batch})
		if err != nil {
			close(stop)
			wg.Wait()
			return err
		}
		var ar struct {
			Generation int64 `json:"generation"`
			Swapped    bool  `json:"swapped"`
			Rows       int   `json:"rows"`
		}
		// Retry shed appends (remote servers may run admission control);
		// the schedule is still deterministic in structure.
		for attempt := 0; ; attempt++ {
			code, raw, _, err := churnOnce(client, http.MethodPost, appendURL, body)
			if err != nil {
				close(stop)
				wg.Wait()
				return err
			}
			if code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable {
				if attempt > 20 {
					close(stop)
					wg.Wait()
					return fmt.Errorf("append shed %d times: %s", attempt, raw)
				}
				time.Sleep(50 * time.Millisecond)
				continue
			}
			if code != http.StatusOK {
				close(stop)
				wg.Wait()
				return fmt.Errorf("append %d: %d: %s", s, code, raw)
			}
			if err := json.Unmarshal(raw, &ar); err != nil {
				close(stop)
				wg.Wait()
				return err
			}
			break
		}
		if !ar.Swapped || ar.Generation != curGen.Load()+1 {
			close(stop)
			wg.Wait()
			return fmt.Errorf("append %d published generation %d (swapped=%v), want %d",
				s, ar.Generation, ar.Swapped, curGen.Load()+1)
		}
		curGen.Store(ar.Generation)
		ch.Appends++
		ch.AppendedRows += len(batch)
	}
	for completed.Load() < int64(n) {
		select {
		case err := <-errs:
			close(stop)
			wg.Wait()
			return err
		default:
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	wall := time.Since(start)
	select {
	case err := <-errs:
		return err
	default:
	}

	ch.Queries = int(completed.Load())
	ch.StaleResponses = int(stale.Load())
	ch.MissingGenHeaders = int(missing.Load())
	ch.NonMonotonic = int(nonMono.Load())
	ch.Generations = len(gens)
	ch.FinalGeneration = curGen.Load()

	finalInfo, err := fetchInfo(baseURL, model)
	if err != nil {
		return err
	}
	ch.FinalRows = finalInfo.Rows

	names := make([]string, 0, len(latency))
	for name := range latency {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ls := latency[name]
		sort.Slice(ls, func(i, j int) bool { return ls[i] < ls[j] })
		var sum int64
		for _, l := range ls {
			sum += l
		}
		rep.Serve = append(rep.Serve, endpointReport{
			Endpoint: name, Requests: len(ls),
			MeanNs: float64(sum) / float64(len(ls)),
			P50Ns:  ls[len(ls)/2], P90Ns: ls[len(ls)*90/100],
			P99Ns: ls[len(ls)*99/100], MaxNs: ls[len(ls)-1],
		})
	}
	rep.Total.Requests = ch.Queries
	rep.Total.WallNs = wall.Nanoseconds()
	rep.Total.QPS = float64(ch.Queries) / wall.Seconds()

	fmt.Printf("churn: %d appends (%d rows) across %d queries; generations %d -> %d (%d observed); %d stale, %d missing headers, %d non-monotonic, %d identity mismatches\n",
		ch.Appends, ch.AppendedRows, ch.Queries, initialGen, ch.FinalGeneration,
		ch.Generations, ch.StaleResponses, ch.MissingGenHeaders, ch.NonMonotonic, rep.IdentityMismatches)

	switch {
	case ch.FinalGeneration != initialGen+int64(ch.Appends):
		return fmt.Errorf("final generation %d, want %d (initial %d + %d appends)",
			ch.FinalGeneration, initialGen+int64(ch.Appends), initialGen, ch.Appends)
	case ch.FinalRows != info.Rows+ch.AppendedRows:
		return fmt.Errorf("final rows %d, want %d (initial %d + %d appended)",
			ch.FinalRows, info.Rows+ch.AppendedRows, info.Rows, ch.AppendedRows)
	case ch.MissingGenHeaders > 0:
		return fmt.Errorf("%d responses missing X-Model-Generation", ch.MissingGenHeaders)
	case ch.StaleResponses > 0:
		return fmt.Errorf("%d responses answered from a generation older than an acknowledged append", ch.StaleResponses)
	case ch.NonMonotonic > 0:
		return fmt.Errorf("%d per-worker generation regressions", ch.NonMonotonic)
	}
	return nil
}

// Bounded Retry-After backoff: every mix except overload honors a
// 429/503's Retry-After hint and retries, so transient shedding (or a
// fleet replica mid-restart) does not fail a run. The overload mix is
// the documented exception — it measures the shedding contract itself
// and must observe rejections raw (see doOnce).
const (
	maxBackoffRetries = 5
	backoffCap        = 2 * time.Second
)

// backoffWaits counts honored Retry-After waits across all request
// paths (package-level, like the trace tallies).
var backoffWaits atomic.Int64

// sendWithBackoff issues one request, honoring Retry-After on 429/503
// with bounded backoff (at most maxBackoffRetries retries, each wait
// capped at backoffCap). The final response's status, headers, and
// fully-read body are returned; the trace tally sees every attempt.
func sendWithBackoff(client *http.Client, method, url, contentType string, body []byte) (int, http.Header, []byte, error) {
	for attempt := 0; ; attempt++ {
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequest(method, url, rd)
		if err != nil {
			return 0, nil, nil, err
		}
		if contentType != "" {
			req.Header.Set("Content-Type", contentType)
		}
		resp, err := client.Do(req)
		if err != nil {
			return 0, nil, nil, err
		}
		noteTraceID(resp.Header)
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return 0, nil, nil, err
		}
		retriable := resp.StatusCode == http.StatusTooManyRequests ||
			resp.StatusCode == http.StatusServiceUnavailable
		if !retriable || attempt >= maxBackoffRetries {
			return resp.StatusCode, resp.Header, raw, nil
		}
		wait := backoffCap
		if secs, err := strconv.Atoi(strings.TrimSpace(resp.Header.Get("Retry-After"))); err == nil && secs >= 0 {
			if d := time.Duration(secs) * time.Second; d < wait {
				wait = d
			}
		}
		backoffWaits.Add(1)
		time.Sleep(wait)
	}
}

// doOnce issues one request and returns status, body, and Retry-After.
// It deliberately does NOT back off: the overload mix uses it to
// observe and verify rejections.
func doOnce(client *http.Client, method, url string, body []byte) (int, []byte, string, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, "", err
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, "", err
	}
	defer resp.Body.Close()
	noteTraceID(resp.Header)
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, resp.Header.Get("Retry-After"), err
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

// putSnapshot hot-reloads the model from the saved snapshot file
// (honoring Retry-After — a fleet node mid-restart answers 503 with a
// hint until gossip converges).
func putSnapshot(client *http.Client, baseURL, model, snapPath string) error {
	snap, err := os.ReadFile(snapPath)
	if err != nil {
		return err
	}
	code, _, raw, err := sendWithBackoff(client, http.MethodPut,
		baseURL+"/v1/models/"+model, "application/octet-stream", snap)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("PUT: %d: %s", code, raw)
	}
	return nil
}

// startFleet boots the in-process 3-node fleet (R=2) the fleet mix
// drives, publishes the model through the router, and returns the
// cluster, the router URL, and the snapshot path for later re-PUTs.
func startFleet(rep *report, model string, attrs, rows int) (*sim.Cluster, string, string, error) {
	fmt.Printf("building %dx%d serving model and booting 3-node fleet (R=2)...\n", rows, attrs)
	m := benchfix.ModelWorkload(attrs, rows)
	var snap bytes.Buffer
	if err := core.WriteSnapshot(&snap, m, core.SaveOptions{}); err != nil {
		return nil, "", "", err
	}
	dir, err := os.MkdirTemp("", "loadgen-fleet")
	if err != nil {
		return nil, "", "", err
	}
	snapPath := filepath.Join(dir, "model.snap")
	if err := os.WriteFile(snapPath, snap.Bytes(), 0o644); err != nil {
		return nil, "", "", err
	}

	cluster, err := sim.NewCluster(3, 2, 0)
	if err != nil {
		return nil, "", "", err
	}
	if err := cluster.Converge(context.Background()); err != nil {
		cluster.Close()
		return nil, "", "", err
	}
	if err := putSnapshot(cluster.Client, cluster.RouterURL(), model, snapPath); err != nil {
		cluster.Close()
		return nil, "", "", fmt.Errorf("publish through router: %w", err)
	}
	return cluster, cluster.RouterURL(), snapPath, nil
}

// runFleet drives the default query mix through the fleet router while
// the schedule kills the model's primary owner, writes around the
// outage, and restarts it: at n/3 a snapshot PUT goes through the
// router with the fleet healthy, at n/2 the primary owner is killed,
// at 2n/3 another PUT exercises write failover, and at 5n/6 the victim
// restarts and gossip converges. Every routed answer must be 200,
// byte-identical per pooled body, and carry X-Model-Generation; at the
// end all owners must agree on the generation and every node must be
// ready.
func runFleet(rep *report, cluster *sim.Cluster, baseURL, model string, info *modelInfo, n int, seed int64, snapPath string) error {
	rng := rand.New(rand.NewSource(seed))
	client := cluster.Client
	owners := cluster.Ring().Owners(model)
	if len(owners) < 2 {
		return fmt.Errorf("model %q has replica set %v, want 2 owners", model, owners)
	}
	victim := owners[0]
	fr := &fleetReport{Nodes: len(cluster.NodeNames()), Replicas: 2, Victim: victim}
	rep.Fleet = fr

	const poolSize = 16
	pool := make([][]byte, poolSize)
	for i := range pool {
		values := map[string]int{}
		for _, a := range info.Dominator {
			values[a] = 1 + rng.Intn(info.K)
		}
		body, err := json.Marshal(map[string]any{
			"target": info.Targets[rng.Intn(len(info.Targets))],
			"values": values,
		})
		if err != nil {
			return err
		}
		pool[i] = body
	}
	identity := make([][]byte, poolSize)
	latency := map[string][]int64{}

	reload := func(label string) error {
		if err := putSnapshot(client, baseURL, model, snapPath); err != nil {
			return fmt.Errorf("%s: %w", label, err)
		}
		fr.WritesThroughRouter++
		rep.Reloads++
		return nil
	}

	start := time.Now()
	for i := 0; i < n; i++ {
		switch i {
		case n / 3:
			if err := reload("routed PUT, fleet healthy"); err != nil {
				return err
			}
		case n / 2:
			fmt.Printf("killing primary owner %s at request %d\n", victim, i)
			if err := cluster.Kill(victim); err != nil {
				return err
			}
			fr.Kills++
		case 2 * n / 3:
			if err := reload("routed PUT during outage (write failover)"); err != nil {
				return err
			}
		case 5 * n / 6:
			fmt.Printf("restarting %s at request %d\n", victim, i)
			if err := cluster.Restart(victim); err != nil {
				return err
			}
			if err := cluster.Converge(context.Background()); err != nil {
				return err
			}
			fr.Restarts++
		}

		var q query
		switch pick := rng.Intn(12); {
		case pick < 8:
			p := rng.Intn(poolSize)
			q = query{"classify", http.MethodPost,
				baseURL + "/v1/models/" + model + "/classify", pool[p], p}
		case pick < 10:
			a := info.Dominator[i%len(info.Dominator)]
			q = query{"similar", http.MethodGet,
				fmt.Sprintf("%s/v1/models/%s/similar?a=%s&top=5", baseURL, model, a), nil, -1}
		case pick < 11:
			head := info.Targets[i%len(info.Targets)]
			q = query{"rules", http.MethodGet,
				fmt.Sprintf("%s/v1/models/%s/rules?head=%s&top=5", baseURL, model, head), nil, -1}
		default:
			q = query{"dominators", http.MethodGet,
				baseURL + "/v1/models/" + model + "/dominators", nil, -1}
		}
		t0 := time.Now()
		code, hdr, raw, err := sendWithBackoff(client, q.method, q.url, "application/json", q.body)
		elapsed := time.Since(t0).Nanoseconds()
		if err != nil {
			return fmt.Errorf("%s %s: %w", q.method, q.url, err)
		}
		if code != http.StatusOK {
			return fmt.Errorf("%s %s: %d: %s", q.method, q.url, code, raw)
		}
		latency[q.endpoint] = append(latency[q.endpoint], elapsed)
		if hdr.Get("X-Model-Generation") == "" {
			fr.MissingGenHeaders++
		}
		if q.identity >= 0 {
			if identity[q.identity] == nil {
				identity[q.identity] = raw
			} else if !bytes.Equal(identity[q.identity], raw) {
				rep.IdentityMismatches++
			}
		}
	}
	wall := time.Since(start)

	names := make([]string, 0, len(latency))
	for name := range latency {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ls := latency[name]
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
	rep.Total.Requests = n
	rep.Total.WallNs = wall.Nanoseconds()
	rep.Total.QPS = float64(n) / wall.Seconds()

	// Final checks: readiness everywhere, generation agreement across
	// the replica set, and the router must actually have failed over.
	fr.ReadyAfterRestart = true
	for _, name := range cluster.NodeNames() {
		code, _, _, err := sendWithBackoff(client, http.MethodGet, cluster.NodeURL(name)+"/readyz", "", nil)
		if err != nil || code != http.StatusOK {
			fr.ReadyAfterRestart = false
		}
	}
	fr.GenerationAgreed = true
	for _, o := range owners {
		code, _, raw, err := sendWithBackoff(client, http.MethodGet,
			cluster.NodeURL(o)+"/v1/models/"+model, "", nil)
		if err != nil || code != http.StatusOK {
			return fmt.Errorf("final check on %s: %v (%d)", o, err, code)
		}
		var detail struct {
			Generation int64 `json:"generation"`
		}
		if err := json.Unmarshal(raw, &detail); err != nil {
			return err
		}
		if fr.FinalGeneration == 0 {
			fr.FinalGeneration = detail.Generation
		} else if detail.Generation != fr.FinalGeneration {
			fr.GenerationAgreed = false
		}
	}
	var stats struct {
		Forwards  int64 `json:"forwards"`
		Failovers int64 `json:"failovers"`
	}
	if code, _, raw, err := sendWithBackoff(client, http.MethodGet, baseURL+"/stats", "", nil); err == nil && code == http.StatusOK {
		_ = json.Unmarshal(raw, &stats)
	}
	fr.RouterForwards, fr.RouterFailovers = stats.Forwards, stats.Failovers

	fmt.Printf("fleet: %d nodes R=%d, victim %s: %d kills, %d restarts, %d routed writes, %d forwards, %d failovers, generation %d agreed=%v ready=%v\n",
		fr.Nodes, fr.Replicas, victim, fr.Kills, fr.Restarts, fr.WritesThroughRouter,
		fr.RouterForwards, fr.RouterFailovers, fr.FinalGeneration, fr.GenerationAgreed, fr.ReadyAfterRestart)

	switch {
	case fr.Kills == 0 || fr.Restarts == 0:
		return errors.New("fleet schedule did not run (n too small for the kill/restart points)")
	case fr.RouterFailovers == 0:
		return errors.New("router reported no failovers despite a dead primary")
	case fr.MissingGenHeaders > 0:
		return fmt.Errorf("%d routed responses missing X-Model-Generation", fr.MissingGenHeaders)
	case !fr.GenerationAgreed:
		return errors.New("replica set disagrees on the final generation after convergence")
	case !fr.ReadyAfterRestart:
		return errors.New("a node failed /readyz after restart and convergence")
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "loadgen:", err)
	os.Exit(1)
}
