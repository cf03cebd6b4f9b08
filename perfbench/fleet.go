package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"hypermine/internal/core"
	"hypermine/internal/delta"
	"hypermine/internal/engine"
	"hypermine/internal/fleet/sim"
	"hypermine/internal/registry"
)

// The fleet-churn workload's fixed parameters.
const (
	fleetNodes     = 3
	fleetReplicas  = 2
	churnReadRate  = 50.0                   // reads/s through the router
	writeEvery     = 150 * time.Millisecond // one write (append or PUT) per interval
	gossipEvery    = time.Second            // one manual gossip tick per interval, nodes in turn
	warmAppendRows = 20                     // the set-up append that seeds the delta counts
	routeReplay    = 300                    // reads replayed routed vs direct by the traced run
)

// churnInst is one set-up of fleet-churn: three members and a router
// on loopback, the model PUT through the router, reads warm and the
// first append's count seeding done.
type churnInst struct {
	spans   *spanLog
	tr      *transport
	cluster *sim.Cluster
	client  *http.Client
	rd      *reader
	dist    *dist
	snap    []byte
	log     *writeLog
	build   time.Duration
	readers int
}

func newChurnInst(ctx context.Context, cfg config, p params) (*churnInst, error) {
	d := newDist(p.attrs)
	tb, err := d.table(newRNG(cfg.seed, streamTable), p.rows)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	m, err := core.BuildContext(ctx, tb, servingConfig)
	if err != nil {
		return nil, err
	}
	c := &churnInst{spans: newSpanLog(), dist: d, build: time.Since(t0), readers: max(1, cfg.nproc-1)}
	var snap bytes.Buffer
	if err := core.WriteSnapshot(&snap, m, core.SaveOptions{}); err != nil {
		return nil, err
	}
	c.snap = snap.Bytes()

	c.tr = &transport{log: c.spans, base: &http.Transport{MaxIdleConnsPerHost: 16, IdleConnTimeout: time.Minute}}
	c.cluster, err = sim.NewClusterWithClient(fleetNodes, fleetReplicas, 0, &http.Client{Timeout: time.Minute, Transport: c.tr})
	if err != nil {
		return nil, err
	}
	if err := c.cluster.Converge(ctx); err != nil {
		c.close()
		return nil, err
	}
	c.client = loadClient(c.readers + 1)
	base := c.cluster.RouterURL()
	put, err := putSnapshot(c.client, base, modelName, c.snap)
	if err != nil {
		c.close()
		return nil, err
	}
	c.log = &writeLog{baseRows: put.Rows, recs: []writeRec{{put: true, gen: put.Generation, ackRows: put.Rows}}}
	det, err := getDetail(c.client, base, modelName)
	if err != nil {
		c.close()
		return nil, err
	}
	pool := readPool(cfg.seed, modelName, d.attrs, det.Dominator, det.Targets)
	c.rd = &reader{client: c.client, base: base, pool: pool, spans: c.spans, ans: newAnswers()}
	if err := warmUp(c.rd, cfg.seed, churnReadRate, c.readers); err != nil {
		c.close()
		return nil, err
	}
	w := appendWrite(d.rowValues(newRNG(cfg.seed, streamWrites+100), warmAppendRows))
	if err := c.write(w, 0); err != nil {
		c.close()
		return nil, fmt.Errorf("warm-up append: %w", err)
	}
	return c, nil
}

func (c *churnInst) close() {
	if c.cluster != nil {
		c.cluster.Close()
	}
	if c.client != nil {
		closeClient(c.client)
	}
	if t, ok := c.tr.base.(*http.Transport); ok {
		t.CloseIdleConnections()
	}
}

// appendResp is the part of an :append acknowledgement the benchmark
// reads.
type appendResp struct {
	Generation int64 `json:"generation"`
	Appended   int   `json:"appended"`
	Rows       int   `json:"rows"`
}

// write sends one write through the router and logs its ack; trace,
// when not 0, tags it for the span log.
func (c *churnInst) write(w write, trace uint64) error {
	base := c.cluster.RouterURL()
	var req *http.Request
	var err error
	if w.put {
		req, err = http.NewRequest(http.MethodPut, base+"/v1/models/"+modelName, bytes.NewReader(c.snap))
		if err == nil {
			req.Header.Set("Content-Type", "application/octet-stream")
		}
	} else {
		req, err = http.NewRequest(http.MethodPost, base+"/v1/models/"+modelName+":append", bytes.NewReader(w.body))
		if err == nil {
			req.Header.Set("Content-Type", "application/json")
		}
	}
	if err != nil {
		return err
	}
	if trace != 0 {
		req.Header.Set("traceparent", traceparent(trace))
	}
	var ack appendResp
	if err := doJSON(c.client, req, &ack); err != nil {
		return err
	}
	if !w.put && ack.Appended != len(w.rows) {
		return fmt.Errorf("append of %d rows acked %d", len(w.rows), ack.Appended)
	}
	c.log.recs = append(c.log.recs, writeRec{put: w.put, added: len(w.rows), rows: w.rows, gen: ack.Generation, ackRows: ack.Rows})
	return nil
}

// writeResult is what the writer observed.
type writeResult struct {
	appendLat, appendLatTraced, putLat []float64 // ms, from due time
	gossipMs                           []float64
	failed                             []string
	polls                              []engine.Stats // origin engine stats before each traced append
}

// runWrites executes the write schedule on one goroutine, open loop:
// write i is due at start + i*writeEvery and is timed from then. Gossip
// ticks run between writes on their own fixed schedule. A traced run
// turns spans on at the schedule's midpoint and polls the origin's
// engine counters before each append of the traced half.
func (c *churnInst) runWrites(ctx context.Context, writes []write, start time.Time, traced bool) writeResult {
	var res writeResult
	p := newPacer()
	defer p.stop()
	nextGossip := start.Add(gossipEvery / 2)
	nodes := c.cluster.NodeNames()
	owner := c.cluster.Ring().Owners(modelName)[0]
	for i, w := range writes {
		due := start.Add(time.Duration(i) * writeEvery)
		for !nextGossip.After(due) {
			p.sleepUntil(nextGossip)
			t0 := time.Now()
			node := nodes[int(nextGossip.Sub(start)/gossipEvery)%len(nodes)]
			if err := c.cluster.Gossip(ctx, node); err != nil {
				res.failed = append(res.failed, fmt.Sprintf("gossip %s: %v", node, err))
			}
			res.gossipMs = append(res.gossipMs, durMs(time.Since(t0)))
			nextGossip = nextGossip.Add(gossipEvery)
		}
		tracedHalf := traced && i >= len(writes)/2
		c.spans.on.Store(tracedHalf)
		if tracedHalf && !w.put {
			if st, err := c.engineStats(c.cluster.NodeURL(owner)); err == nil {
				res.polls = append(res.polls, st)
			} else {
				res.failed = append(res.failed, err.Error())
			}
		}
		p.sleepUntil(due)
		var trace uint64
		var t0 int64
		if tracedHalf {
			trace = c.spans.nextTrace()
			t0 = c.spans.now()
		}
		err := c.write(w, trace)
		lat := durMs(time.Since(due))
		if tracedHalf {
			c.spans.record(trace, layerWrite(w), t0, c.spans.now())
		}
		switch {
		case err != nil:
			res.failed = append(res.failed, fmt.Sprintf("write %d: %v", i, err))
		case w.put:
			res.putLat = append(res.putLat, lat)
		case tracedHalf:
			res.appendLatTraced = append(res.appendLatTraced, lat)
		default:
			res.appendLat = append(res.appendLat, lat)
		}
	}
	c.spans.on.Store(false)
	return res
}

func layerWrite(w write) string {
	if w.put {
		return "client.put"
	}
	return "client.append"
}

// engineStats reads the model's engine counters from a node's /stats.
func (c *churnInst) engineStats(nodeURL string) (engine.Stats, error) {
	var out struct {
		Registry registry.Stats `json:"registry"`
	}
	req, err := http.NewRequest(http.MethodGet, nodeURL+"/stats", nil)
	if err != nil {
		return engine.Stats{}, err
	}
	if err := doJSON(c.client, req, &out); err != nil {
		return engine.Stats{}, err
	}
	for _, m := range out.Registry.Models {
		if m.Name == modelName {
			return m.Engine, nil
		}
	}
	return engine.Stats{}, fmt.Errorf("stats: %s not resident on %s", modelName, nodeURL)
}

func runFleetChurn(ctx context.Context, cfg config) (*result, error) {
	p, _ := workloadParams("fleet-churn")
	res := newResult(p.name)
	var c *churnInst
	var setups []float64
	for range setupReps {
		if c != nil {
			c.close()
		}
		t0 := time.Now()
		var err error
		if c, err = newChurnInst(ctx, cfg, p); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer c.close()

	measure := time.Duration(cfg.seconds) * time.Second
	writes := writeSchedule(cfg.seed, c.dist, int(measure/writeEvery))
	nReads := int(churnReadRate * measure.Seconds())
	order := readOrder(cfg.seed, nReads, len(c.rd.pool))

	rt0 := readRT()
	start := time.Now().Add(time.Millisecond)
	var wres writeResult
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		wres = c.runWrites(ctx, writes, start, cfg.traced)
	}()
	reads := openLoop(churnReadRate, nReads, c.readers, func(i int) bool { return c.rd.send(order[i]) })
	wg.Wait()
	rt := rt0.to(readRT())
	heap := heapLiveMB()

	// The served model must now be exactly what the acked writes made
	// it, on the router and on both owners.
	gen, rows := c.log.expected()
	det, err := getDetail(c.client, c.cluster.RouterURL(), modelName)
	if err != nil {
		return nil, err
	}
	if err := c.log.check(det.Generation, det.Rows); err != nil {
		res.problem(1, "router: "+err.Error())
	}
	for _, o := range c.cluster.Ring().Owners(modelName) {
		od, err := getDetail(c.client, c.cluster.NodeURL(o), modelName)
		if err != nil || od.Generation != gen || od.Rows != rows {
			res.problem(1, fmt.Sprintf("owner %s serves generation %d with %d rows (%v), acked writes promise %d with %d", o, od.Generation, od.Rows, err, gen, rows))
		}
	}
	res.problem(len(wres.failed), wres.failed...)
	res.attempted = c.rd.ans.count + len(c.log.recs) - 1
	res.problem(int(c.rd.failed.Load()), c.rd.ans.fails...)
	wrong, msgs, err := c.verifyReads(ctx)
	if err != nil {
		return nil, err
	}
	res.problem(wrong, msgs...)

	app50, ok50 := percentile(wres.appendLat, 0.5)
	app90, ok90 := percentile(wres.appendLat, 0.9)
	put50, okPut := percentile(wres.putLat, 0.5)
	r50, _ := percentile(reads.lat, 0.5)
	r99, okR99 := percentile(reads.lat, 0.99)
	late99, _ := percentile(reads.late, 0.99)
	nApp := len(wres.appendLat) + len(wres.appendLatTraced)
	res.commonEndToEnd(median(setups), rt.allocs/float64(max(1, nApp)), heap)

	res.note("set-ups (s): %.3f", setups)
	res.note("client: open loop; %d read goroutine(s) at %.0f/s and 1 writer every %v, at most %d connections (nproc %d)",
		c.readers, churnReadRate, writeEvery, c.readers+1, cfg.nproc)
	res.note("append_p50_ms %.3f ms%s, append_p90_ms %.3f ms (%s)", app50, okNote(ok50), app90, tailLabel(0.9, len(wres.appendLat), ok90))
	res.note("put_p50_ms %.3f ms (%d PUTs)%s", put50, len(wres.putLat), okNote(okPut))
	res.note("read_p50_us %.1f us, read_p99_us %.1f us (%s)", r50, r99, tailLabel(0.99, len(reads.lat), okR99))
	res.note("final: generation %d, %d rows, as the %d acked writes promise", gen, rows, len(c.log.recs))
	res.note("allocs_per_op %.0f (process-wide allocations per append, reads and PUTs beside it included)", rt.allocs/float64(max(1, nApp)))
	res.note("heap_live_mb %.3f MB", heap)
	res.note("failed_frac %g (%d/%d)", float64(res.failed)/float64(max(1, res.attempted)), res.failed, res.attempted)
	res.note("generator: late_p99_us %.1f%s", late99, behindNote(late99))

	if !cfg.traced {
		return res, nil
	}
	res.runtimeLayers(rt)
	res.layer("gen.late_p99_us", late99)
	res.layer("gen.sent", float64(nReads+len(writes)))
	res.layer("trace.overhead_pct", (median(wres.appendLatTraced)-app50)/app50*100)
	res.layer("fleet.gossip_ms", median(wres.gossipMs))
	if err := c.traceLayers(ctx, res, order, wres, app50); err != nil {
		return nil, err
	}
	return res, c.spans.write(spanPath(cfg, p.name))
}

// verifyReads replays the acked writes, in order, into a standalone
// reference registry, and checks every answer the router gave at each
// generation against the reference engine at that generation. An
// answer at a generation no acked write produced is wrong.
func (c *churnInst) verifyReads(ctx context.Context) (int, []string, error) {
	byGen := map[int64][]*keyedBody{}
	for _, kb := range c.rd.ans.all() {
		byGen[kb.key.gen] = append(byGen[kb.key.gen], kb)
	}
	ref := registry.New(registry.Options{})
	wrong := 0
	var msgs []string
	for i, rec := range c.log.recs {
		var rows int
		if rec.put {
			m, err := core.ReadSnapshot(bytes.NewReader(c.snap))
			if err != nil {
				return 0, nil, err
			}
			if _, err := ref.Load(modelName, m); err != nil {
				return 0, nil, err
			}
			rows = m.Table.NumRows()
		} else {
			info, err := ref.AppendRows(modelName, rec.rows)
			if err != nil {
				return 0, nil, fmt.Errorf("reference append %d: %w", i, err)
			}
			rows = info.Rows
		}
		if rows != rec.ackRows {
			wrong++
			msgs = appendMsg(msgs, fmt.Sprintf("write %d: fleet acked %d rows, reference has %d", i, rec.ackRows, rows))
		}
		sv := ref.Acquire(modelName)
		w, m := verifyGen(ctx, c.rd.pool, byGen[rec.gen], sv.Engine())
		sv.Release()
		delete(byGen, rec.gen)
		wrong += w
		for _, s := range m {
			msgs = appendMsg(msgs, s)
		}
	}
	for gen, bodies := range byGen {
		n := 0
		for _, kb := range bodies {
			n += kb.n
		}
		wrong += n
		msgs = appendMsg(msgs, fmt.Sprintf("%d answers at generation %d, which no acked write produced", n, gen))
	}
	return wrong, msgs, nil
}

// traceLayers fills the per-layer metrics of a traced fleet-churn run:
// replays of the same write batches through delta and the registry,
// the append's span breakdown, routed-versus-direct reads, engine
// counters, router failovers, and the kernel and codec timings.
func (c *churnInst) traceLayers(ctx context.Context, res *result, order []int32, wres writeResult, app50 float64) error {
	ls := byLayer(c.spans.snapshot())
	appends := ls["client.append"]
	route := median(selfTimes(appends, ls[layerForward])) / 1e6
	repl := ls[layerReplicate]
	replMs := make([]float64, len(repl))
	for i, s := range repl {
		replMs[i] = s.dur() / 1e6
	}
	res.layer("fleet.replicate_ms", median(replMs))
	res.layer("fleet.replicate_kb", float64(c.tr.replBytes.Load())/1024/float64(max(1, len(repl))))
	replPerAppend := median(containedTime(appends, repl)) / 1e6

	var builds, hits, lookups float64
	for _, st := range wres.polls {
		builds += float64(st.IndexBuilds + st.SimilarityBuilds + st.DominatorBuilds + st.ClassifierBuilds)
		hits += float64(st.RuleHits)
		lookups += float64(st.RuleHits + st.RuleMisses)
	}
	res.layer("engine.rebuilds_per_append", builds/float64(max(1, len(wres.polls))))
	res.layer("engine.rule_hit_ratio", hits/max(1, lookups))

	failovers, err := c.routerCounter("hypermined_router_failovers_total")
	if err != nil {
		return err
	}
	res.layer("fleet.failovers", failovers)

	routeUs, err := c.routeSelf(order[:min(len(order), routeReplay)])
	if err != nil {
		return err
	}
	res.layer("fleet.route_self_us", routeUs)

	if err := c.replayWrites(ctx, res); err != nil {
		return err
	}
	if err := kernelLayers(ctx, res, c.snap, c.build); err != nil {
		return err
	}
	d, rw, enc := res.layers["delta.append_ms"], res.layers["registry.rewarm_ms"], res.layers["core.snapshot_encode_ms"]
	res.layer("unattributed.append_ms", app50-(d+rw+enc+replPerAppend+route))
	res.note("append_p50_ms %.3f = delta %.3f + rewarm %.3f + snapshot %.3f + replication %.3f + route %.3f + unattributed %.3f (ms)",
		app50, d, rw, enc, replPerAppend, route, res.layers["unattributed.append_ms"])
	return nil
}

// routerCounter reads one counter from the router's /metrics.
func (c *churnInst) routerCounter(name string) (float64, error) {
	resp, err := c.client.Get(c.cluster.RouterURL() + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), name+" "); ok {
			return strconv.ParseFloat(strings.TrimSpace(v), 64)
		}
	}
	return 0, fmt.Errorf("router /metrics has no %s", name)
}

// routeSelf sends the same reads through the router and straight to
// the model's primary owner, back to back and alternating which goes
// first, and returns the median difference in µs.
func (c *churnInst) routeSelf(idxs []int32) (float64, error) {
	owner := c.cluster.NodeURL(c.cluster.Ring().Owners(modelName)[0])
	timed := func(base string, q *readReq) (time.Duration, error) {
		req, err := http.NewRequest(q.method, base+q.path, bytes.NewReader(q.body))
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		var sink json.RawMessage
		err = doJSON(c.client, req, &sink)
		return time.Since(t0), err
	}
	var diffs []float64
	for i, idx := range idxs {
		q := &c.rd.pool[idx]
		first, second := c.cluster.RouterURL(), owner
		if i%2 == 1 {
			first, second = second, first
		}
		d1, err := timed(first, q)
		if err != nil {
			return 0, err
		}
		d2, err := timed(second, q)
		if err != nil {
			return 0, err
		}
		if i%2 == 1 {
			d1, d2 = d2, d1
		}
		diffs = append(diffs, durUs(d1-d2))
	}
	return median(diffs), nil
}

// replayWrites replays the acked write batches through delta alone and
// through a registry with every artifact warm (the workload's warm
// set), timing each: registry.rewarm_ms is the registry append minus
// the delta append. PUTs reseed the delta dataset untimed and are
// timed as registry loads.
func (c *churnInst) replayWrites(ctx context.Context, res *result) error {
	decode := func() (*core.Model, error) { return core.ReadSnapshot(bytes.NewReader(c.snap)) }
	base, err := decode()
	if err != nil {
		return err
	}
	ds, err := delta.NewContext(ctx, base, delta.Options{})
	if err != nil {
		return err
	}
	reg := registry.New(registry.Options{})
	warm := func() error {
		sv := reg.Acquire(modelName)
		defer sv.Release()
		return sv.Engine().Warmup(ctx, engine.WarmupAll)
	}
	if _, err := reg.Load(modelName, base); err != nil {
		return err
	}
	if err := warm(); err != nil {
		return err
	}
	var deltaMs, deltaMB, regMs, putMs []float64
	for _, rec := range c.log.recs[1:] {
		m, err := decode()
		if err != nil {
			return err
		}
		if rec.put {
			if ds, err = delta.NewContext(ctx, m, delta.Options{}); err != nil {
				return err
			}
			m2, err := decode()
			if err != nil {
				return err
			}
			t0 := time.Now()
			if _, err := reg.Load(modelName, m2); err != nil {
				return err
			}
			putMs = append(putMs, durMs(time.Since(t0)))
			if err := warm(); err != nil {
				return err
			}
			continue
		}
		a := readRT()
		t0 := time.Now()
		if _, _, err := ds.AppendRowsContext(ctx, rec.rows); err != nil {
			return err
		}
		deltaMs = append(deltaMs, durMs(time.Since(t0)))
		deltaMB = append(deltaMB, a.to(readRT()).allocBytes/(1<<20))
		t0 = time.Now()
		if _, err := reg.AppendRows(modelName, rec.rows); err != nil {
			return err
		}
		regMs = append(regMs, durMs(time.Since(t0)))
	}
	res.layer("delta.append_ms", median(deltaMs))
	res.layer("delta.alloc_mb", median(deltaMB))
	res.layer("registry.append_ms", median(regMs))
	res.layer("registry.rewarm_ms", median(regMs)-median(deltaMs))
	res.layer("registry.put_ms", median(putMs))
	return nil
}
