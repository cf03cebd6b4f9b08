// Command hypermined is the model-serving daemon: it loads binary
// model snapshots (written by `hypermine build` or
// core.WriteSnapshot) into a hot-swappable registry and serves the
// HTTP/JSON query API of internal/server.
//
// Usage:
//
//	hypermined -addr :8080 -model demo=model.snap [-model other=o.snap] [-max-edges N] [-query-timeout 5s] [-warmup none|graph|all]
//
// Models can also be loaded (or hot-swapped) at runtime by PUTting a
// snapshot to /v1/models/{name}.
//
// Overload protection (see the README's "Operating under load"):
// -tenant-rate/-tenant-burst and -model-rate/-model-burst configure
// token buckets (0 = unlimited), -gate-cheap/-queue-cheap and
// -gate-expensive/-queue-expensive bound concurrency per cost class
// (0 = ungated), and -breaker-failures/-breaker-cooldown configure the
// per-model circuit breaker (0 = no breaker). -slow-query logs queries
// over a threshold with per-phase attribution; -pprof exposes
// /debug/pprof. SIGINT/SIGTERM drain in-flight requests before exit.
//
// Observability (see the README's "Observability"): all daemon logs
// are structured slog lines (-log-format text|json); request tracing
// is on by default (-trace=false disables), echoing X-Trace-Id on
// every query, honoring inbound W3C traceparent headers, and retaining
// slow/errored/shed traces at GET /debug/traces. -trace-ring,
// -trace-sample, and -trace-slow tune retention; /metrics serves
// latency histograms per request kind and cost class.
//
// Fleet mode (see the README's "Fleet"): -mode serve with -node NAME
// and repeatable -peer name=url flags turns this process into a fleet
// member that owns a shard of the model-name space, synchronously
// replicates accepted writes to the other owners, and gossips
// generations every -gossip-interval; -mode router starts the
// stateless routing tier over the same -peer set instead. -replicas
// and -vnodes must agree across every member and router.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"hypermine/internal/admit"
	"hypermine/internal/core"
	"hypermine/internal/engine"
	"hypermine/internal/fleet"
	"hypermine/internal/registry"
	"hypermine/internal/server"
	"hypermine/internal/telemetry"
)

// peerFlags collects repeatable -peer name=url pairs.
type peerFlags map[string]string

func (p peerFlags) String() string {
	parts := make([]string, 0, len(p))
	for name, url := range p {
		parts = append(parts, name+"="+url)
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

func (p peerFlags) Set(v string) error {
	name, url, ok := strings.Cut(v, "=")
	if !ok || name == "" || url == "" {
		return fmt.Errorf("want name=url, got %q", v)
	}
	p[name] = strings.TrimSuffix(url, "/")
	return nil
}

// modelFlags collects repeatable -model name=path pairs.
type modelFlags []struct{ name, path string }

func (m *modelFlags) String() string {
	parts := make([]string, len(*m))
	for i, e := range *m {
		parts[i] = e.name + "=" + e.path
	}
	return strings.Join(parts, ",")
}

func (m *modelFlags) Set(v string) error {
	name, path, ok := strings.Cut(v, "=")
	if !ok || name == "" || path == "" {
		return fmt.Errorf("want name=path, got %q", v)
	}
	*m = append(*m, struct{ name, path string }{name, path})
	return nil
}

func main() {
	var models modelFlags
	addr := flag.String("addr", ":8080", "listen address")
	maxEdges := flag.Int("max-edges", 0, "resident-cost bound for LRU eviction, in edge-equivalent units (0 = unlimited)")
	queryTimeout := flag.Duration("query-timeout", 0,
		"per-query deadline; an expired query is abandoned with 504 (0 = unbounded; admin PUT/DELETE are exempt)")
	warmupFlag := flag.String("warmup", "none",
		"derived artifacts to prebuild at load: none (lazy, the default), graph (similarity+dominator), or all")
	flag.Var(&models, "model", "name=snapshot.snap to serve at boot (repeatable)")
	tenantRate := flag.Float64("tenant-rate", 0, "per-tenant token-bucket rate in queries/sec (0 = unlimited)")
	tenantBurst := flag.Float64("tenant-burst", 0, "per-tenant token-bucket burst (defaults to the rate)")
	modelRate := flag.Float64("model-rate", 0, "per-model token-bucket rate in queries/sec (0 = unlimited)")
	modelBurst := flag.Float64("model-burst", 0, "per-model token-bucket burst (defaults to the rate)")
	gateCheap := flag.Int("gate-cheap", 0, "max concurrent cheap (warm-read) queries (0 = ungated)")
	queueCheap := flag.Int("queue-cheap", 0, "bounded FIFO wait queue behind the cheap gate; overflow is shed with 429")
	gateExpensive := flag.Int("gate-expensive", 0, "max concurrent expensive (mining) queries (0 = ungated)")
	queueExpensive := flag.Int("queue-expensive", 0, "bounded FIFO wait queue behind the expensive gate")
	breakerFailures := flag.Int("breaker-failures", 0, "consecutive failures that open a model's circuit breaker (0 = no breaker)")
	breakerCooldown := flag.Duration("breaker-cooldown", 0, "open-breaker cooldown before a half-open probe (0 = 5s default)")
	slowQuery := flag.Duration("slow-query", 0, "log queries slower than this, with per-phase attribution (0 = off)")
	pprofOn := flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof (off by default)")
	logFormat := flag.String("log-format", "text", "structured log format: text or json")
	traceOn := flag.Bool("trace", true, "request tracing: X-Trace-Id per query, W3C traceparent in, /debug/traces retention")
	traceRing := flag.Int("trace-ring", 0, "recent-trace ring size (0 = default 128)")
	traceSample := flag.Int("trace-sample", 0, "retain one in N unremarkable traces (0 = default 16, negative = only slow/errored)")
	traceSlow := flag.Duration("trace-slow", 0, "always retain traces at least this slow (0 = default 100ms)")
	mode := flag.String("mode", "serve", "process role: serve (a model-serving fleet member or standalone node) or router (stateless fleet routing tier)")
	nodeName := flag.String("node", "", "this node's fleet ring name (serve mode; empty = standalone, no fleet)")
	peers := peerFlags{}
	flag.Var(peers, "peer", "name=url of another fleet member (repeatable; both modes)")
	replicas := flag.Int("replicas", 0, "fleet replication factor R (0 = default 2; must agree fleet-wide)")
	vnodes := flag.Int("vnodes", 0, "consistent-hash virtual nodes per member (0 = default 128; must agree fleet-wide)")
	gossipInterval := flag.Duration("gossip-interval", time.Second, "period of the background generation-gossip loop (serve mode with peers)")
	maxForwardBody := flag.Int64("max-forward-body", 0, "router mode: max request body bytes buffered for failover replay (0 = default 64 MiB)")
	flag.Parse()

	logger, err := newLogger(*logFormat)
	if err != nil {
		fatal(err)
	}
	slog.SetDefault(logger)

	if *mode != "serve" && *mode != "router" {
		fatal(fmt.Errorf("bad -mode %q (want serve or router)", *mode))
	}
	if *mode == "router" && (len(models) > 0 || *nodeName != "") {
		fatal(errors.New("-mode router takes -peer flags, not -model or -node"))
	}

	warmup, err := engine.ParseWarmup(*warmupFlag)
	if err != nil {
		fatal(err)
	}

	var ctl *admit.Controller
	if *tenantRate > 0 || *modelRate > 0 || *gateCheap > 0 || *gateExpensive > 0 || *breakerFailures > 0 {
		ctl = admit.NewController(admit.Config{
			TenantRate:        *tenantRate,
			TenantBurst:       burstOr(*tenantBurst, *tenantRate),
			ModelRate:         *modelRate,
			ModelBurst:        burstOr(*modelBurst, *modelRate),
			CheapCapacity:     *gateCheap,
			CheapQueue:        *queueCheap,
			ExpensiveCapacity: *gateExpensive,
			ExpensiveQueue:    *queueExpensive,
			BreakerFailures:   *breakerFailures,
			BreakerCooldown:   *breakerCooldown,
		})
	}

	regOpts := registry.Options{MaxResidentEdges: *maxEdges, Warmup: warmup, Logger: logger}
	if ctl != nil {
		// Feed the breaker from the load path: a model that cannot even
		// load trips open; a fresh successful load resets it.
		regOpts.LoadHook = ctl.RecordLoad
	}
	reg := registry.New(regOpts)
	for _, m := range models {
		if err := loadSnapshot(logger, reg, m.name, m.path); err != nil {
			fatal(err)
		}
	}

	var tracer *telemetry.Tracer
	if *traceOn {
		tracer = telemetry.NewTracer(telemetry.TracerConfig{
			Ring:          *traceRing,
			SampleEvery:   *traceSample,
			SlowThreshold: *traceSlow,
		})
	}

	var handler http.Handler
	var fleetNode *fleet.Node
	switch {
	case *mode == "router":
		rt, err := fleet.NewRouter(fleet.RouterConfig{
			Peers:        peers,
			Replicas:     *replicas,
			VNodes:       *vnodes,
			Admission:    ctl,
			Tracer:       tracer,
			Logger:       logger,
			MaxBodyBytes: *maxForwardBody,
		})
		if err != nil {
			fatal(err)
		}
		handler = rt.Handler()
		logger.Info("hypermined: routing", "addr", *addr, "peers", len(peers),
			"ring", rt.Ring().String(), "admission", ctl != nil)
	case *nodeName != "":
		api := server.New(reg,
			server.WithQueryTimeout(*queryTimeout),
			server.WithAdmission(ctl),
			server.WithSlowQueryLog(*slowQuery),
			server.WithLogger(logger),
			server.WithTracer(tracer),
			server.WithPprof(*pprofOn),
		)
		node, err := fleet.NewNode(fleet.NodeConfig{
			Name:           *nodeName,
			Peers:          peers,
			Replicas:       *replicas,
			VNodes:         *vnodes,
			GossipInterval: *gossipInterval,
			Logger:         logger,
		}, reg, api)
		if err != nil {
			fatal(err)
		}
		node.Start()
		fleetNode = node
		handler = node.Handler()
		logger.Info("hypermined: fleet member serving", "node", *nodeName, "addr", *addr,
			"peers", len(peers), "ring", node.Ring().String(), "models", len(reg.Names()))
	default:
		if len(peers) > 0 {
			fatal(errors.New("-peer requires -node NAME (fleet member) or -mode router"))
		}
		handler = server.New(reg,
			server.WithQueryTimeout(*queryTimeout),
			server.WithAdmission(ctl),
			server.WithSlowQueryLog(*slowQuery),
			server.WithLogger(logger),
			server.WithTracer(tracer),
			server.WithPprof(*pprofOn),
		).Handler()
	}

	srv := &http.Server{Addr: *addr, Handler: handler}
	errCh := make(chan error, 1)
	go func() {
		logger.Info("hypermined: serving", "models", len(reg.Names()), "addr", *addr,
			"tracing", *traceOn, "admission", ctl != nil, "mode", *mode)
		errCh <- srv.ListenAndServe()
	}()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errCh:
		fatal(err)
	case <-ctx.Done():
		logger.Info("hypermined: shutting down")
		if fleetNode != nil {
			fleetNode.Stop()
		}
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutCtx); err != nil {
			if errors.Is(err, context.DeadlineExceeded) {
				logger.Warn("hypermined: drain deadline expired, exiting with requests in flight")
				return
			}
			fatal(err)
		}
		logger.Info("hypermined: drained, bye")
	}
}

// newLogger builds the daemon's structured logger on stderr.
func newLogger(format string) (*slog.Logger, error) {
	switch format {
	case "text", "":
		return slog.New(slog.NewTextHandler(os.Stderr, nil)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, nil)), nil
	}
	return nil, fmt.Errorf("bad -log-format %q (want text or json)", format)
}

func loadSnapshot(logger *slog.Logger, reg *registry.Registry, name, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	start := time.Now()
	m, err := core.ReadSnapshot(f)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	info, err := reg.Load(name, m)
	if err != nil {
		return err
	}
	logger.Info("hypermined: loaded model",
		"model", name, "generation", info.Generation,
		"attrs", m.Table.NumAttrs(), "edges", m.H.NumEdges(), "rows", m.Table.NumRows(),
		"duration", time.Since(start).Round(time.Microsecond))
	return nil
}

// burstOr defaults an unset burst to the bucket's rate, so one full
// second of traffic fits before shedding starts.
func burstOr(burst, rate float64) float64 {
	if burst > 0 {
		return burst
	}
	return rate
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hypermined:", err)
	os.Exit(1)
}
