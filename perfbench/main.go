// Command perfbench is hypermine's benchmark. It runs three seeded
// workloads against the real code in one process, verifies every
// answer, and prints every metric by name with its unit:
//
//   - serve-read: one standalone server with hypermined's defaults
//     (tracing on, admission off, lazy warmup) answers the read mix
//     over loopback: first at full load from nproc closed-loop
//     clients, then open loop at a base rate and up a fixed ladder.
//   - fleet-churn: three fleet members (R=2) and a router answer the
//     same read mix, open loop, while a seeded schedule of appends and
//     snapshot PUTs runs beside it, all through the router.
//   - mine: the paper's offline pipeline through the public facade,
//     one table after another in a closed loop.
//
// Every workload reports the same bounded end-to-end metrics: setup_s,
// and allocs_per_op and heap_live_mb of its headline operation, which
// is a read at full load (serve-read), a routed append (fleet-churn)
// and a whole pipeline (mine). The report lines above the JSON give
// the latencies by the names later changes cite: the full-load read
// p50 and p99, read_p50_us, read_p99_us and read_max_qps of the open
// loop, append_p50_ms, append_p90_ms, put_p50_ms, mine_s, and
// failed_frac, each with its sample count.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload serve-read --seed 1 --seconds 25 --trace 0
//
// --trace 0 prints the end-to-end metrics with the benchmark's spans
// off; --trace 1 runs the same workload with spans on for half of the
// timed phase, adds the per-layer replays, prints the per-layer
// metrics and writes the span log under .bench_build/. The last line
// of standard output is one JSON object with the keys correct,
// attempted, failed and metrics. Any wrong answer makes the run exit
// 1; a run that cannot complete exits 2 without printing a result.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
)

// config is one invocation's settings.
type config struct {
	seed    uint64
	seconds int
	traced  bool
	nproc   int
}

// spansDir is where a traced run writes its span log, relative to the
// repository root the benchmark runs from.
const spansDir = ".bench_build"

// metric is one named, united number.
type metric struct {
	name  string
	unit  string
	value float64
}

// result is one workload run: the operation counts, the bounded
// end-to-end metrics, the per-layer metrics of a traced run, and the
// human-readable report lines.
type result struct {
	workload  string
	attempted int
	failed    int
	endToEnd  []metric
	layers    map[string]float64 // per-layer values by name; see perLayerMetrics
	report    []string
	problems  []string // wrong answers and failed operations, for the report
}

func newResult(workload string) *result {
	return &result{workload: workload, layers: map[string]float64{}}
}

func (r *result) e2e(name, unit string, v float64) {
	r.endToEnd = append(r.endToEnd, metric{name, unit, v})
}
func (r *result) layer(name string, v float64) { r.layers[name] = v }
func (r *result) note(format string, args ...any) {
	r.report = append(r.report, fmt.Sprintf(format, args...))
}

// problem records n wrong answers or failed operations with messages.
func (r *result) problem(n int, msgs ...string) {
	r.failed += n
	for _, m := range msgs {
		if len(r.problems) < 20 {
			r.problems = append(r.problems, m)
		}
	}
}

// perLayerMetrics is every per-layer metric, by module, in report
// order. A traced run of any workload prints all of them; a layer the
// workload does not exercise reads 0 there.
var perLayerMetrics = []struct{ name, unit string }{
	{"gen.late_p99_us", "us"}, {"gen.sent", "count"},
	{"wire.read_self_us", "us"},
	{"server.read_self_us", "us"}, {"server.classify_self_us", "us"}, {"server.allocs_per_read", "count"},
	{"telemetry.self_us", "us"}, {"admit.self_us", "us"},
	{"engine.read_us", "us"}, {"engine.classify_us", "us"},
	{"engine.rule_hit_ratio", "ratio"}, {"engine.rebuilds_per_append", "count"},
	{"delta.append_ms", "ms"}, {"delta.alloc_mb", "MB"},
	{"registry.append_ms", "ms"}, {"registry.rewarm_ms", "ms"}, {"registry.put_ms", "ms"},
	{"core.snapshot_encode_ms", "ms"}, {"core.snapshot_decode_ms", "ms"},
	{"fleet.route_self_us", "us"}, {"fleet.replicate_ms", "ms"}, {"fleet.replicate_kb", "KB"},
	{"fleet.gossip_ms", "ms"}, {"fleet.failovers", "count"},
	{"core.build_s", "s"}, {"core.build_edges_s", "s"}, {"core.build_pairs_s", "s"}, {"core.build_triples_s", "s"},
	{"table.index_ms", "ms"}, {"cover.dominator_ms", "ms"}, {"similarity.graph_ms", "ms"},
	{"apriori.itemsets_ms", "ms"}, {"core.rules_ms", "ms"}, {"classify.build_ms", "ms"}, {"classify.evaluate_ms", "ms"},
	{"runtime.gc_cycles", "count"}, {"runtime.gc_pause_ms", "ms"}, {"runtime.sched_p99_us", "us"},
	{"trace.overhead_pct", "%"},
	{"unattributed.read_us", "us"}, {"unattributed.append_ms", "ms"},
}

// print writes the report, then the one-line JSON result.
func (r *result) print(w io.Writer, cfg config) error {
	fmt.Fprintf(w, "== %s seed=%d seconds=%d trace=%v nproc=%d\n", r.workload, cfg.seed, cfg.seconds, cfg.traced, cfg.nproc)
	if p, ok := workloadParams(r.workload); ok {
		fmt.Fprintf(w, "   why:    %s\n   varies: %s\n", p.why, p.varies)
	}
	for _, l := range r.report {
		fmt.Fprintln(w, "  ", l)
	}
	for _, p := range r.problems {
		fmt.Fprintln(w, "   WRONG:", p)
	}
	for _, m := range r.endToEnd {
		fmt.Fprintf(w, "   %-26s %14.6g %s\n", m.name, m.value, m.unit)
	}
	shown := r.endToEnd
	if cfg.traced {
		shown = nil
		known := map[string]bool{}
		for _, m := range perLayerMetrics {
			known[m.name] = true
		}
		for name := range r.layers {
			if !known[name] {
				return fmt.Errorf("per-layer metric %q is missing from perLayerMetrics", name)
			}
		}
		for _, m := range perLayerMetrics {
			v := r.layers[m.name]
			shown = append(shown, metric{m.name, m.unit, v})
			fmt.Fprintf(w, "   %-26s %14.6g %s\n", m.name, v, m.unit)
		}
	}
	metrics := map[string]map[string]any{}
	for _, m := range shown {
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		metrics[m.name] = map[string]any{"value": v, "unit": m.unit}
	}
	b, err := json.Marshal(map[string]any{
		"correct":   r.failed == 0,
		"attempted": max(1, r.attempted),
		"failed":    r.failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

func main() {
	workload := flag.String("workload", "all", "serve-read, fleet-churn, mine, or all")
	seed := flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 25, "how long the timed phase of each workload measures")
	trace := flag.Int("trace", 0, "1 runs with the benchmark's spans on and prints the per-layer metrics")
	flag.Parse()
	cfg := config{
		seed:    *seed,
		seconds: *seconds,
		traced:  *trace == 1,
		nproc:   runtime.NumCPU(),
	}
	if cfg.seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1 and --trace 0 or 1")
		os.Exit(2)
	}
	names := []string{*workload}
	if *workload == "all" {
		names = nil
		for _, p := range workloads {
			names = append(names, p.name)
		}
	}
	exit := 0
	for _, name := range names {
		res, err := run(context.Background(), name, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
			os.Exit(2)
		}
		if err := res.print(os.Stdout, cfg); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(2)
		}
		if res.failed > 0 {
			exit = 1
		}
	}
	os.Exit(exit)
}

func run(ctx context.Context, name string, cfg config) (*result, error) {
	switch name {
	case "serve-read":
		return runServeRead(ctx, cfg)
	case "fleet-churn":
		return runFleetChurn(ctx, cfg)
	case "mine":
		return runMine(ctx, cfg)
	}
	var names []string
	for _, p := range workloads {
		names = append(names, p.name)
	}
	return nil, fmt.Errorf("unknown workload (want one of %s, or all)", strings.Join(names, ", "))
}

// setupReps is how many times each workload sets up; setup_s is the
// median, and the last set-up is the one measured.
const setupReps = 3

// commonEndToEnd appends the bounded end-to-end metrics every workload
// reports, in BENCHMARK.json order; allocs is per headline operation.
// Latencies are report lines only: on a shared 2-vCPU VM the host's
// speed drifted enough between runs minutes apart that their spread
// over ten runs reached the largest bound allowed, while these three
// stayed far inside theirs.
func (r *result) commonEndToEnd(setupS, allocs, heapMB float64) {
	r.e2e("setup_s", "s", setupS)
	r.e2e("allocs_per_op", "count", allocs)
	r.e2e("heap_live_mb", "MB", heapMB)
}

// runtimeLayers records the runtime per-layer metrics of a timed phase.
func (r *result) runtimeLayers(d rtDelta) {
	r.layer("runtime.gc_cycles", d.gcCycles)
	r.layer("runtime.gc_pause_ms", d.gcPauseMs)
	r.layer("runtime.sched_p99_us", d.schedP99Us)
}

// tailLabel names the percentile a tail metric reports, with its
// sample count and whether the reporting rule held.
func tailLabel(q float64, n int, ok bool) string {
	s := fmt.Sprintf("p%g of %d", q*100, n)
	if !ok {
		s += fmt.Sprintf(", FEWER THAN %d SAMPLES BEYOND", minBeyond)
	}
	return s
}
