package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"time"

	"hypermine/internal/admit"
	"hypermine/internal/core"
	"hypermine/internal/engine"
	"hypermine/internal/registry"
	"hypermine/internal/server"
	"hypermine/internal/telemetry"
)

// The serve-read workload's fixed parameters.
const (
	modelName     = "bench"
	closedShare   = 0.3    // share of --seconds at full load, closed loop
	serveBaseRate = 1000.0 // reads/s of the open-loop base-rate phase
	baseShare     = 0.4    // share of --seconds at the base rate; the ladder gets the rest
	readLimitUs   = 5000.0 // the read p99 limit read_max_qps is judged against
	warmSeconds   = 0.5    // open-loop reads after the per-read warm-up, to warm connections
	replayReads   = 3000   // reads replayed in process by the traced run
)

// ladderRates are the fixed rates, reads/s, read_max_qps climbs.
var ladderRates = []float64{1000, 2000, 3000, 4000, 6000}

var discard = slog.New(slog.DiscardHandler)

// admitConfig is a representative admission configuration: every
// mechanism on, sized so the replay is never shed.
var admitConfig = admit.Config{
	TenantRate: 1e6, TenantBurst: 1e6, ModelRate: 1e6, ModelBurst: 1e6,
	CheapCapacity: 64, CheapQueue: 256, ExpensiveCapacity: 8, ExpensiveQueue: 64,
	BreakerFailures: 20,
}

// serveInst is one set-up of serve-read: a standalone server with
// hypermined's defaults on a loopback listener, with the model PUT and
// every artifact warm.
type serveInst struct {
	spans  *spanLog
	reg    *registry.Registry
	srv    *server.Server
	hs     *http.Server
	served sync.WaitGroup
	client *http.Client
	rd     *reader
	snap   []byte
	gen    int64
	build  time.Duration
}

func newServeInst(ctx context.Context, cfg config, p params, workers int) (*serveInst, error) {
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
	s := &serveInst{spans: newSpanLog(), build: time.Since(t0)}
	var snap bytes.Buffer
	if err := core.WriteSnapshot(&snap, m, core.SaveOptions{}); err != nil {
		return nil, err
	}
	s.snap = snap.Bytes()

	s.reg = registry.New(registry.Options{})
	s.srv = server.New(s.reg, server.WithLogger(discard), server.WithTracer(telemetry.NewTracer(telemetry.TracerConfig{})))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.hs = &http.Server{Handler: s.spans.wrap(layerHandler, s.srv.Handler())}
	s.served.Add(1)
	go func() {
		defer s.served.Done()
		_ = s.hs.Serve(ln)
	}()
	s.client = loadClient(workers)
	base := "http://" + ln.Addr().String()
	put, err := putSnapshot(s.client, base, modelName, s.snap)
	if err != nil {
		s.close()
		return nil, err
	}
	s.gen = put.Generation
	det, err := getDetail(s.client, base, modelName)
	if err != nil {
		s.close()
		return nil, err
	}
	pool := readPool(cfg.seed, modelName, d.attrs, det.Dominator, det.Targets)
	s.rd = &reader{client: s.client, base: base, pool: pool, spans: s.spans, ans: newAnswers()}
	if err := warmUp(s.rd, cfg.seed, serveBaseRate, workers); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// warmUp sends every distinct read once, which builds every artifact
// and fills the rule cache, then a short open-loop burst that warms
// the connections.
func warmUp(rd *reader, seed uint64, rate float64, workers int) error {
	for i := range rd.pool {
		if !rd.send(int32(i)) {
			return fmt.Errorf("warm-up read %s %s failed: %v", rd.pool[i].method, rd.pool[i].path, rd.ans.fails)
		}
	}
	n := int(rate * warmSeconds)
	order := readOrder(seed+1, n, len(rd.pool))
	openLoop(rate, n, workers, func(i int) bool { return rd.send(order[i]) })
	if n := rd.failed.Load(); n > 0 {
		return fmt.Errorf("%d warm-up reads failed: %v", n, rd.ans.fails)
	}
	return nil
}

func (s *serveInst) close() {
	if s.hs != nil {
		_ = s.hs.Close()
		s.served.Wait()
	}
	if s.client != nil {
		closeClient(s.client)
	}
}

func runServeRead(ctx context.Context, cfg config) (*result, error) {
	p, _ := workloadParams("serve-read")
	res := newResult(p.name)
	workers := cfg.nproc
	var s *serveInst
	var setups []float64
	for range setupReps {
		if s != nil {
			s.close()
		}
		t0 := time.Now()
		var err error
		if s, err = newServeInst(ctx, cfg, p, workers); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer s.close()
	send := func(ord []int32) func(int) bool {
		return func(i int) bool { return s.rd.send(ord[i]) }
	}
	secs := float64(cfg.seconds)
	closedDur := time.Duration(secs * closedShare * float64(time.Second))

	// Closed loop at full load: the headline numbers. A traced run
	// turns spans on for the second half only, so the untraced half
	// gives the end-to-end numbers and the pair the tracing overhead.
	offDur := closedDur
	if cfg.traced {
		offDur = closedDur / 2
	}
	rt0 := readRT()
	off := closedLoop(offDur, workers, cfg.seed, len(s.rd.pool), s.rd.send)
	rtOff := readRT()
	var on loopResult
	if cfg.traced {
		s.spans.on.Store(true)
		on = closedLoop(closedDur-offDur, workers, cfg.seed+1, len(s.rd.pool), s.rd.send)
		s.spans.on.Store(false)
	}

	// Open loop at the base rate, then up the ladder of fixed rates.
	nBase := int(serveBaseRate * secs * baseShare)
	order := readOrder(cfg.seed, nBase, len(s.rd.pool))
	base := openLoop(serveBaseRate, nBase, workers, send(order))
	sent := len(off.lat) + len(on.lat) + off.failed + on.failed + nBase
	stepSecs := secs * (1 - closedShare - baseShare) / float64(len(ladderRates))
	var steps []ladderStep
	for i, rate := range ladderRates {
		n := int(rate * stepSecs)
		lr := openLoop(rate, n, workers, send(readOrder(cfg.seed+uint64(2+i), n, len(s.rd.pool))))
		sent += n
		p99, ok := percentile(lr.lat, 0.99)
		steps = append(steps, ladderStep{rate: rate, p99: p99, p99ok: ok, failed: lr.failed, backlog: lr.tailLateUs > readLimitUs})
	}
	rt := rt0.to(readRT())
	heap := heapLiveMB()

	// Verify every answer against an engine of the benchmark's own,
	// built from an independent decode of the same snapshot.
	refModel, err := core.ReadSnapshot(bytes.NewReader(s.snap))
	if err != nil {
		return nil, err
	}
	ref, err := engine.New(refModel, engine.Options{})
	if err != nil {
		return nil, err
	}
	res.attempted = s.rd.ans.count
	res.problem(int(s.rd.failed.Load()), s.rd.ans.fails...)
	var atGen []*keyedBody
	for _, kb := range s.rd.ans.all() {
		if kb.key.gen != s.gen {
			res.problem(kb.n, fmt.Sprintf("answer at generation %d, the server only ever published %d", kb.key.gen, s.gen))
			continue
		}
		atGen = append(atGen, kb)
	}
	wrong, msgs := verifyGen(ctx, s.rd.pool, atGen, ref)
	res.problem(wrong, msgs...)

	allocs := rt0.to(rtOff).allocs / float64(max(1, len(off.lat)))
	p50, ok50 := percentile(off.lat, 0.5)
	p99, ok99 := percentile(off.lat, 0.99)
	res.commonEndToEnd(median(setups), allocs, heap)

	b50, okB50 := percentile(base.lat, 0.5)
	b99, okB99 := percentile(base.lat, 0.99)
	late99, _ := percentile(base.late, 0.99)
	res.note("set-ups (s): %.3f", setups)
	res.note("client: %d goroutines, at most %d connections (nproc %d)", workers, workers, cfg.nproc)
	res.note("full load, closed loop: read p50 %.2f us%s, p99 %.2f us (%s), %.0f reads/s",
		p50, okNote(ok50), p99, tailLabel(0.99, len(off.lat), ok99), float64(len(off.lat))/offDur.Seconds())
	res.note("read_p50_us %.2f us%s, read_p99_us %.2f us (%s): open loop at the base rate %.0f/s, timed from due time",
		b50, okNote(okB50), b99, tailLabel(0.99, len(base.lat), okB99), serveBaseRate)
	var ladder []string
	for _, st := range steps {
		ladder = append(ladder, fmt.Sprintf("%.0f/s p99=%.0fus ok=%v", st.rate, st.p99, st.passes(readLimitUs)))
	}
	res.note("read_max_qps %.0f 1/s (p99 limit %.0f us; ladder %v)", maxRate(steps, readLimitUs), readLimitUs, ladder)
	res.note("allocs_per_read %.2f (process-wide, client and server)", allocs)
	res.note("heap_live_mb %.3f MB", heap)
	res.note("failed_frac %g (%d/%d)", float64(res.failed)/float64(max(1, res.attempted)), res.failed, res.attempted)
	res.note("generator: late_p99_us %.1f at the base rate%s", late99, behindNote(late99))

	if !cfg.traced {
		return res, nil
	}
	res.runtimeLayers(rt)
	res.layer("gen.late_p99_us", late99)
	res.layer("gen.sent", float64(sent))
	res.layer("trace.overhead_pct", (median(on.lat)-p50)/p50*100)
	ls := byLayer(s.spans.snapshot())
	wire := median(selfTimes(ls[layerClient], ls[layerHandler])) / 1e3
	res.layer("wire.read_self_us", wire)
	rep, err := replayServer(ctx, s, order[:min(len(order), replayReads)])
	if err != nil {
		return nil, err
	}
	for name, v := range rep {
		res.layer(name, v)
	}
	res.layer("unattributed.read_us", p50-(rep["engine.read_us"]+rep["server.read_self_us"]+wire))
	res.note("read p50 %.2f = engine %.2f + server %.2f + wire %.2f + unattributed %.2f (us, full load)",
		p50, rep["engine.read_us"], rep["server.read_self_us"], wire, res.layers["unattributed.read_us"])
	sv := s.reg.Acquire(modelName)
	st := sv.Engine().Stats()
	sv.Release()
	res.layer("engine.rule_hit_ratio", float64(st.RuleHits)/float64(max(1, st.RuleHits+st.RuleMisses)))
	if err := kernelLayers(ctx, res, s.snap, s.build); err != nil {
		return nil, err
	}
	return res, s.spans.write(spanPath(cfg, p.name))
}

func behindNote(late99 float64) string {
	if late99 > readLimitUs {
		return fmt.Sprintf(" -- GENERATOR FELL BEHIND (late p99 above %.0f us): latencies include generator queueing", readLimitUs)
	}
	return ""
}

// replayServer replays reads in process and times each layer on the
// same requests: Engine.Do on the served engine, the served handler
// (tracer on, as served) through ServeHTTP, the same handler with the
// tracer off, and with a representative admission controller. Each
// pair is measured back to back per request, alternating which side
// runs first.
func replayServer(ctx context.Context, s *serveInst, idxs []int32) (map[string]float64, error) {
	sv := s.reg.Acquire(modelName)
	if sv == nil {
		return nil, fmt.Errorf("replay: model %q not served", modelName)
	}
	defer sv.Release()
	eng := sv.Engine()
	served := s.srv.Handler()
	plain := server.New(s.reg, server.WithLogger(discard)).Handler()
	admitted := server.New(s.reg, server.WithLogger(discard),
		server.WithTracer(telemetry.NewTracer(telemetry.TracerConfig{})),
		server.WithAdmission(admit.NewController(admitConfig))).Handler()

	serve := func(h http.Handler, q *readReq) (time.Duration, error) {
		var body io.Reader
		if q.body != nil {
			body = bytes.NewReader(q.body)
		}
		r := httptest.NewRequest(q.method, q.path, body)
		if q.body != nil {
			r.Header.Set("Content-Type", "application/json")
		}
		w := httptest.NewRecorder()
		t0 := time.Now()
		h.ServeHTTP(w, r)
		d := time.Since(t0)
		if w.Code != http.StatusOK {
			return d, fmt.Errorf("replay %s %s: status %d", q.method, q.path, w.Code)
		}
		return d, nil
	}
	var engAll, engCls, srvSelf, clsSelf, telem, adm []float64
	for i, idx := range idxs {
		q := &s.rd.pool[idx]
		t0 := time.Now()
		if _, err := eng.Do(ctx, &q.req); err != nil {
			return nil, fmt.Errorf("replay engine %s: %v", q.path, err)
		}
		te := durUs(time.Since(t0))
		first, second := served, plain
		if i%2 == 1 {
			first, second = plain, served
		}
		d1, err := serve(first, q)
		if err != nil {
			return nil, err
		}
		d2, err := serve(second, q)
		if err != nil {
			return nil, err
		}
		tOn, tOff := d1, d2
		if i%2 == 1 {
			tOn, tOff = d2, d1
		}
		dA, err := serve(admitted, q)
		if err != nil {
			return nil, err
		}
		engAll = append(engAll, te)
		srvSelf = append(srvSelf, durUs(tOn)-te)
		telem = append(telem, durUs(tOn-tOff))
		adm = append(adm, durUs(dA-tOn))
		if q.kind == "classify" {
			engCls = append(engCls, te)
			clsSelf = append(clsSelf, durUs(tOn)-te)
		}
	}
	// Allocations per in-process ServeHTTP of the served handler.
	var allocs uint64
	for _, idx := range idxs {
		q := &s.rd.pool[idx]
		var body io.Reader
		if q.body != nil {
			body = bytes.NewReader(q.body)
		}
		r := httptest.NewRequest(q.method, q.path, body)
		w := httptest.NewRecorder()
		m0 := mallocs()
		served.ServeHTTP(w, r)
		allocs += mallocs() - m0
	}
	return map[string]float64{
		"engine.read_us":          median(engAll),
		"engine.classify_us":      median(engCls),
		"server.read_self_us":     median(srvSelf),
		"server.classify_self_us": median(clsSelf),
		"telemetry.self_us":       median(telem),
		"admit.self_us":           median(adm),
		"server.allocs_per_read":  float64(allocs) / float64(max(1, len(idxs))),
	}, nil
}

// kernelLayers times the mining kernels and the snapshot codec on the
// workload's own table, for the per-layer report: one full pipeline
// (with build phases) on a fresh copy of the model's table, and the
// median of several snapshot encodes and decodes. build is the set-up
// mine's wall time.
func kernelLayers(ctx context.Context, res *result, snap []byte, build time.Duration) error {
	m, err := core.ReadSnapshot(bytes.NewReader(snap))
	if err != nil {
		return err
	}
	tb := m.Table.Clone()
	test, err := m.Table.RowRange(0, min(mineTestRows, m.Table.NumRows()))
	if err != nil {
		return err
	}
	cfg := m.Config
	cfg.Run = nil
	st, _, err := pipeline(ctx, tb, test, cfg, true)
	if err != nil {
		return err
	}
	res.stageLayers([]stageTimes{st})
	res.layer("core.build_s", build.Seconds())
	var enc, dec []float64
	for range 5 {
		var buf bytes.Buffer
		t0 := time.Now()
		if err := core.WriteSnapshot(&buf, m, core.SaveOptions{}); err != nil {
			return err
		}
		enc = append(enc, durMs(time.Since(t0)))
		t0 = time.Now()
		if _, err := core.ReadSnapshot(bytes.NewReader(buf.Bytes())); err != nil {
			return err
		}
		dec = append(dec, durMs(time.Since(t0)))
	}
	res.layer("core.snapshot_encode_ms", median(enc))
	res.layer("core.snapshot_decode_ms", median(dec))
	return nil
}

// putResp and detailResp are the parts of the PUT and model-detail
// answers the benchmark reads.
type putResp struct {
	Generation int64 `json:"generation"`
	Rows       int   `json:"rows"`
}

type detailResp struct {
	Generation int64    `json:"generation"`
	Rows       int      `json:"rows"`
	Dominator  []string `json:"dominator"`
	Targets    []string `json:"targets"`
}

func putSnapshot(c *http.Client, base, name string, snap []byte) (putResp, error) {
	var out putResp
	req, err := http.NewRequest(http.MethodPut, base+"/v1/models/"+name, bytes.NewReader(snap))
	if err != nil {
		return out, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	return out, doJSON(c, req, &out)
}

func getDetail(c *http.Client, base, name string) (detailResp, error) {
	var out detailResp
	req, err := http.NewRequest(http.MethodGet, base+"/v1/models/"+name, nil)
	if err != nil {
		return out, err
	}
	if err := doJSON(c, req, &out); err != nil {
		return out, err
	}
	if len(out.Dominator) == 0 || len(out.Targets) == 0 {
		return out, fmt.Errorf("model %q has dominator %v and targets %v: nothing to classify", name, out.Dominator, out.Targets)
	}
	slices.Sort(out.Targets)
	return out, nil
}

// doJSON performs req and decodes a 200 JSON answer into out.
func doJSON(c *http.Client, req *http.Request, out any) error {
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %s", req.Method, req.URL.Path, resp.StatusCode, bytes.TrimSpace(b))
	}
	return json.Unmarshal(b, out)
}
