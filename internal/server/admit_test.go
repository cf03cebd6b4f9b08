package server

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hypermine/internal/admit"
	"hypermine/internal/check"
	"hypermine/internal/registry"
	"hypermine/internal/testutil"
)

// servingAdmit boots an httptest server with one model loaded as
// "demo" and the given admission controller in front of the query
// funnel.
func servingAdmit(t *testing.T, ctl *admit.Controller, opts ...Option) *httptest.Server {
	t.Helper()
	m := testModel(t, 7, 12, 500)
	reg := registry.New(registry.Options{})
	if _, err := reg.Load("demo", m); err != nil {
		t.Fatal(err)
	}
	opts = append([]Option{WithAdmission(ctl)}, opts...)
	ts := httptest.NewServer(New(reg, opts...).Handler())
	t.Cleanup(ts.Close)
	return ts
}

// getTenant issues a GET with an X-Tenant header and returns status,
// body, and the Retry-After header.
func getTenant(t *testing.T, url, tenant string) (int, []byte, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body, resp.Header.Get("Retry-After")
}

// TestAdmissionTenantRateLimit drives one tenant's bucket empty and
// checks the 429 contract: status, reason, Retry-After header >= 1,
// and isolation — the other tenant and the default tenant stay
// admitted.
func TestAdmissionTenantRateLimit(t *testing.T) {
	ctl := admit.NewController(admit.Config{TenantRate: 0.001, TenantBurst: 2})
	ts := servingAdmit(t, ctl)
	url := ts.URL + "/v1/models/demo/dominators"

	for i := 0; i < 2; i++ {
		if code, body, _ := getTenant(t, url, "alice"); code != 200 {
			t.Fatalf("alice request %d: code %d (%s)", i, code, body)
		}
	}
	code, body, retry := getTenant(t, url, "alice")
	if code != 429 {
		t.Fatalf("exhausted tenant: code %d (%s), want 429", code, body)
	}
	if !strings.Contains(string(body), string(admit.ReasonTenantRateLimited)) {
		t.Fatalf("429 body %s missing reason %q", body, admit.ReasonTenantRateLimited)
	}
	if secs, err := strconv.Atoi(retry); err != nil || secs < 1 {
		t.Fatalf("Retry-After %q, want integer >= 1", retry)
	}
	// Other tenants are unaffected: that is the point of per-tenant
	// buckets.
	if code, body, _ := getTenant(t, url, "bob"); code != 200 {
		t.Fatalf("bob: code %d (%s), want 200", code, body)
	}
	if code, body, _ := getTenant(t, url, ""); code != 200 {
		t.Fatalf("default tenant: code %d (%s), want 200", code, body)
	}

	var st statsResponse
	if code := getJSON(t, ts.URL+"/stats", &st); code != 200 {
		t.Fatalf("/stats: %d", code)
	}
	if st.Shed != 1 {
		t.Fatalf("stats shed = %d, want 1", st.Shed)
	}
	if st.Admission == nil {
		t.Fatal("stats missing admission block")
	}
	var alice *admit.PartyStats
	for i := range st.Admission.Tenants {
		if st.Admission.Tenants[i].Name == "alice" {
			alice = &st.Admission.Tenants[i]
		}
	}
	if alice == nil || alice.Shed != 1 || alice.Admitted != 2 {
		t.Fatalf("alice stats = %+v, want admitted 2 shed 1", alice)
	}
}

// TestAdmissionQueueFull fills the cheap gate (capacity and queue)
// from the test, then proves the next request is shed immediately with
// 429 queue_full — the server never blocks past the configured
// backlog — and that a request after release succeeds byte-identically
// to the unloaded baseline.
func TestAdmissionQueueFull(t *testing.T) {
	ctl := admit.NewController(admit.Config{CheapCapacity: 1, CheapQueue: 1})
	ts := servingAdmit(t, ctl)
	url := ts.URL + "/v1/models/demo/dominators"

	_, baseline, _ := getTenant(t, url, "")

	gate := ctl.Gate(admit.Cheap)
	if _, err := gate.Enter(context.Background()); err != nil {
		t.Fatal(err)
	}
	queued := make(chan error, 1)
	entered := make(chan struct{})
	go func() {
		close(entered)
		_, err := gate.Enter(context.Background())
		queued <- err
	}()
	<-entered
	// Wait until the helper goroutine is actually parked in the queue.
	for i := 0; ; i++ {
		if _, q := gate.Load(); q == 1 {
			break
		}
		if i > 5000 {
			t.Fatal("helper never queued")
		}
		time.Sleep(100 * time.Microsecond)
	}

	code, body, retry := getTenant(t, url, "")
	if code != 429 || !strings.Contains(string(body), string(admit.ReasonQueueFull)) {
		t.Fatalf("saturated gate: code %d body %s, want 429 queue_full", code, body)
	}
	if secs, err := strconv.Atoi(retry); err != nil || secs < 1 {
		t.Fatalf("Retry-After %q, want integer >= 1", retry)
	}

	gate.Leave(0) // hands the slot to the queued helper
	if err := <-queued; err != nil {
		t.Fatal(err)
	}
	gate.Leave(0)

	code, got, _ := getTenant(t, url, "")
	if code != 200 {
		t.Fatalf("after release: code %d (%s)", code, got)
	}
	if !bytes.Equal(got, baseline) {
		t.Fatalf("admitted response diverged from baseline:\n%s\nvs\n%s", got, baseline)
	}
}

// TestAdmissionBreaker trips a model's breaker end to end: a
// nanosecond query timeout makes every admitted query fail with
// DeadlineExceeded (an OutcomeFailure), so after the threshold the
// breaker opens and the next request is shed with 503 + Retry-After
// before touching the engine.
func TestAdmissionBreaker(t *testing.T) {
	ctl := admit.NewController(admit.Config{BreakerFailures: 3, BreakerCooldown: time.Hour})
	ts := servingAdmit(t, ctl, WithQueryTimeout(time.Nanosecond))
	url := ts.URL + "/v1/models/demo/dominators"

	for i := 0; i < 3; i++ {
		if code, body, _ := getTenant(t, url, ""); code != 504 {
			t.Fatalf("request %d: code %d (%s), want 504", i, code, body)
		}
	}
	code, body, retry := getTenant(t, url, "")
	if code != 503 || !strings.Contains(string(body), string(admit.ReasonBreakerOpen)) {
		t.Fatalf("open breaker: code %d body %s, want 503 breaker_open", code, body)
	}
	if secs, err := strconv.Atoi(retry); err != nil || secs < 1 {
		t.Fatalf("Retry-After %q, want integer >= 1", retry)
	}

	var st statsResponse
	getJSON(t, ts.URL+"/stats", &st)
	if st.Admission == nil || len(st.Admission.Breakers) != 1 {
		t.Fatalf("stats breakers = %+v, want one", st.Admission)
	}
	if b := st.Admission.Breakers[0]; b.Model != "demo" || b.State != "open" || b.Opens != 1 {
		t.Fatalf("breaker stats = %+v, want demo open opens=1", b)
	}
}

// TestAdmissionBurstInvariants hammers tiny cheap and expensive gates
// from concurrent clients while the test holds the only slot of each,
// with slow clients stalling half-open connections and a re-PUT of the
// served snapshot waiting to swap: /healthz must answer while
// saturated, internal/check must find every answer identical to the
// unloaded baseline or a well-formed rejection, something must shed and
// /stats must count it, and afterwards both gates must drain and the
// goroutine count return to baseline.
func TestAdmissionBurstInvariants(t *testing.T) {
	base := testutil.GoroutineBaseline()

	ctl := admit.NewController(admit.Config{
		CheapCapacity: 1, CheapQueue: 2,
		ExpensiveCapacity: 1, ExpensiveQueue: 2,
	})
	c := newContract(t, WithAdmission(ctl))
	rng := rand.New(rand.NewSource(7))
	var pool []check.Outcome
	for i := 0; i < 8; i++ {
		pool = append(pool, demo(http.MethodPost, "/classify", mustJSON(c.classifyBody(rng, 0))))
	}
	pool = append(pool, demo(http.MethodGet, "/dominators", nil))
	for i := 0; i < 4 && i < len(c.info.Targets); i++ {
		pool = append(pool, demo(http.MethodGet, "/rules?head="+c.info.Targets[i]+"&top=5", nil))
	}
	// The unloaded baseline also warms every lazy artifact.
	for _, o := range pool {
		c.send("baseline", o)
	}

	// While the test holds both slots, at most the two queues' four
	// requests wait and everything beyond them sheds, so answers keep
	// flowing until the test releases the gates.
	gates := []*admit.Gate{ctl.Gate(admit.Cheap), ctl.Gate(admit.Expensive)}
	for _, g := range gates {
		if _, err := g.Enter(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	unstall := stall(t, c.ts.URL, 2)

	const workers, iters = 8, 20
	var admitted, answered atomic.Int64
	quarter := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if c.send(fmt.Sprintf("worker-%d", w), pool[(i*7+w)%len(pool)]).Status == http.StatusOK {
					admitted.Add(1)
				}
				if answered.Add(1) == workers*iters/4 {
					close(quarter)
				}
			}
		}()
	}
	// The re-PUT swaps at once but drains the old generation only after
	// its queued requests finish, so it acks after the release below.
	reloaded := make(chan error, 1)
	go func() { reloaded <- c.reload("reloader") }()
	for i := 0; i < 3; i++ {
		if o := c.send("probe", check.Outcome{Method: http.MethodGet, Path: "/healthz"}); o.Status != http.StatusOK {
			t.Errorf("healthz while saturated: %d %s", o.Status, o.Err)
		}
	}
	<-quarter
	unstall()
	for _, g := range gates {
		g.Leave(0)
	}
	wg.Wait()
	if err := <-reloaded; err != nil {
		t.Fatal(err)
	}

	rep := c.verify()
	if rep.Shed == 0 {
		t.Fatal("nothing shed while the gate slots were held")
	}
	if admitted.Load() == 0 {
		t.Fatal("nothing admitted after release")
	}
	var st statsResponse
	if code := getJSON(t, c.ts.URL+"/stats", &st); code != http.StatusOK {
		t.Fatalf("/stats: %d", code)
	}
	if st.Shed < int64(rep.Shed) {
		t.Fatalf("stats shed %d < %d rejections seen by clients", st.Shed, rep.Shed)
	}
	for _, g := range gates {
		if inflight, queued := g.Load(); inflight != 0 || queued != 0 {
			t.Fatalf("gate not drained: inflight %d queued %d", inflight, queued)
		}
	}
	c.ts.Close()
	testutil.CheckGoroutines(t.Fatalf, base, 0, 5*time.Second)
}

// stall opens n connections that send an incomplete request and go
// silent, the classic slow client; the returned func closes them.
func stall(t *testing.T, url string, n int) func() {
	t.Helper()
	host := strings.TrimPrefix(url, "http://")
	var conns []net.Conn
	for i := 0; i < n; i++ {
		conn, err := net.Dial("tcp", host)
		if err != nil {
			t.Fatal(err)
		}
		// Headers without the terminating blank line: the server waits
		// for the rest of the request until the connection closes.
		fmt.Fprintf(conn, "GET /healthz HTTP/1.1\r\nHost: %s\r\n", host)
		conns = append(conns, conn)
	}
	return func() {
		for _, conn := range conns {
			conn.Close()
		}
	}
}

var (
	promComment = regexp.MustCompile(`^# (HELP|TYPE) ([a-zA-Z_:][a-zA-Z0-9_:]*)( .*)?$`)
	promSample  = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^{}]*\})? (-?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?|[+-]Inf|NaN)$`)
)

// TestMetricsEndpoint scrapes /metrics and parses every line against
// the exposition format: comments well-formed, every sample preceded
// by a TYPE for its family, no duplicate TYPE lines, and the expected
// families present with the expected labels.
func TestMetricsEndpoint(t *testing.T) {
	ctl := admit.NewController(admit.Config{
		TenantRate: 100, TenantBurst: 100,
		CheapCapacity: 4, CheapQueue: 8,
		ExpensiveCapacity: 1, ExpensiveQueue: 2,
		BreakerFailures: 5,
	})
	ts := servingAdmit(t, ctl)
	// Touch the model so tenant/model/breaker state exists. Both queries
	// are cold, so each builds its phase on this untraced server.
	if code, body, _ := getTenant(t, ts.URL+"/v1/models/demo/dominators", "alice"); code != 200 {
		t.Fatalf("priming query: %d (%s)", code, body)
	}
	if code := getJSON(t, ts.URL+"/v1/models/demo/rules?head=A00", nil); code != 200 {
		t.Fatalf("cold rules query: %d", code)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}

	typed := map[string]string{} // family -> counter|gauge|histogram
	samples := map[string]int{}
	var sampleLines []string
	for i, line := range strings.Split(strings.TrimRight(string(raw), "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			m := promComment.FindStringSubmatch(line)
			if m == nil {
				t.Fatalf("line %d: malformed comment %q", i+1, line)
			}
			if m[1] == "TYPE" {
				typ := strings.TrimSpace(m[3])
				if typ != "counter" && typ != "gauge" && typ != "histogram" {
					t.Fatalf("line %d: bad type %q", i+1, line)
				}
				if _, dup := typed[m[2]]; dup {
					t.Fatalf("line %d: duplicate TYPE for %s", i+1, m[2])
				}
				typed[m[2]] = typ
			}
			continue
		}
		m := promSample.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("line %d: malformed sample %q", i+1, line)
		}
		if _, ok := typed[m[1]]; !ok {
			// Histogram families declare one TYPE for the base name;
			// their samples are base_bucket / base_sum / base_count.
			base := histogramBase(m[1])
			if base == "" || typed[base] != "histogram" {
				t.Fatalf("line %d: sample %s has no preceding TYPE", i+1, m[1])
			}
		}
		samples[m[1]]++
		sampleLines = append(sampleLines, line)
	}

	for _, fam := range []string{
		"hypermined_uptime_seconds", "hypermined_queries_total",
		"hypermined_errors_total", "hypermined_shed_total",
		"hypermined_models", "hypermined_model_queries_total",
		"hypermined_tenant_admitted_total", "hypermined_model_admitted_total",
		"hypermined_gate_in_flight", "hypermined_breaker_state",
		"hypermined_request_seconds_bucket", "hypermined_request_seconds_sum",
		"hypermined_request_seconds_count", "hypermined_queue_wait_seconds_bucket",
		"hypermined_phase_seconds_bucket", "hypermined_snapshot_load_seconds_bucket",
	} {
		if samples[fam] == 0 {
			t.Errorf("family %s missing or empty", fam)
		}
	}
	text := string(raw)
	for _, want := range []string{
		`hypermined_model_queries_total{model="demo"}`,
		`hypermined_tenant_admitted_total{tenant="alice"} 1`,
		`hypermined_gate_capacity{class="cheap"} 4`,
		`hypermined_gate_capacity{class="expensive"} 1`,
		`hypermined_breaker_state{model="demo"} 0`,
		`hypermined_request_seconds_bucket{kind="dominators",class="cheap",le="+Inf"} 1`,
		`hypermined_request_seconds_count{kind="dominators",class="cheap"} 1`,
		`hypermined_phase_seconds_count{phase="dominator"} 1`,
		`hypermined_phase_seconds_count{phase="rules"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q\n%s", want, strings.Join(sampleLines, "\n"))
		}
	}

	checkHistogramCoherence(t, text)
}

// TestModelDetailRecordsPhase: GET /v1/models/{name} builds the
// dominator of a lazy model, and on an untraced server that build must
// land in the phase histogram like a query's. The read stays exempt
// from admission: its tenant's admitted count stays 0.
func TestModelDetailRecordsPhase(t *testing.T) {
	ts := servingAdmit(t, admit.NewController(admit.Config{
		TenantRate: 100, TenantBurst: 100,
		CheapCapacity: 4, CheapQueue: 8,
		ExpensiveCapacity: 1, ExpensiveQueue: 2,
	}))
	if code := getJSON(t, ts.URL+"/v1/models/demo", nil); code != 200 {
		t.Fatalf("model detail: %d", code)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	if want := `hypermined_phase_seconds_count{phase="dominator"} 1`; !strings.Contains(text, want) {
		t.Errorf("metrics missing %q after a model detail read", want)
	}
	if want := `hypermined_tenant_admitted_total{tenant="default"} 0`; !strings.Contains(text, want) {
		t.Errorf("metrics missing %q: the model detail read went through admission", want)
	}
}

// histogramBase strips a histogram sample suffix, or returns "".
func histogramBase(name string) string {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if base, ok := strings.CutSuffix(name, suf); ok {
			return base
		}
	}
	return ""
}

var bucketLine = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)_bucket\{(.*?)le="([^"]+)"\} ([0-9]+)$`)

// checkHistogramCoherence parses every histogram series out of an
// exposition dump and checks, per series: cumulative bucket counts are
// monotone in le order (the exposition emits them in ladder order), the
// +Inf bucket equals _count, and _sum is consistent (nonnegative, and
// zero iff the count-weighted minimum allows it).
func checkHistogramCoherence(t *testing.T, text string) {
	t.Helper()
	type series struct {
		counts []uint64 // in emission order; last is +Inf
		lastLe string
	}
	buckets := map[string]*series{} // family + label prefix -> series
	counts := map[string]uint64{}
	sums := map[string]float64{}
	nHist := 0
	for _, line := range strings.Split(text, "\n") {
		if m := bucketLine.FindStringSubmatch(line); m != nil {
			key := m[1] + "|" + m[2]
			s := buckets[key]
			if s == nil {
				s = &series{}
				buckets[key] = s
			}
			v, err := strconv.ParseUint(m[4], 10, 64)
			if err != nil {
				t.Fatalf("bad bucket value %q", line)
			}
			s.counts = append(s.counts, v)
			s.lastLe = m[3]
			nHist++
			continue
		}
		if name, rest, ok := strings.Cut(line, " "); ok {
			if base, isCount := strings.CutSuffix(strings.SplitN(name, "{", 2)[0], "_count"); isCount && !strings.HasPrefix(line, "#") {
				labels := ""
				if i := strings.IndexByte(name, '{'); i >= 0 {
					labels = strings.TrimSuffix(name[i+1:], "}")
					if labels != "" {
						labels += ","
					}
				}
				if v, err := strconv.ParseUint(rest, 10, 64); err == nil {
					counts[base+"|"+labels] = v
				}
			}
			if base, isSum := strings.CutSuffix(strings.SplitN(name, "{", 2)[0], "_sum"); isSum && !strings.HasPrefix(line, "#") {
				labels := ""
				if i := strings.IndexByte(name, '{'); i >= 0 {
					labels = strings.TrimSuffix(name[i+1:], "}")
					if labels != "" {
						labels += ","
					}
				}
				if v, err := strconv.ParseFloat(rest, 64); err == nil {
					sums[base+"|"+labels] = v
				}
			}
		}
	}
	if nHist == 0 {
		t.Fatal("no histogram bucket lines found")
	}
	for key, s := range buckets {
		for i := 1; i < len(s.counts); i++ {
			if s.counts[i] < s.counts[i-1] {
				t.Errorf("series %s: buckets not monotone at %d", key, i)
			}
		}
		if s.lastLe != "+Inf" {
			t.Errorf("series %s: last bucket le=%q, want +Inf", key, s.lastLe)
		}
		cnt, ok := counts[key]
		if !ok {
			t.Errorf("series %s: no _count sample", key)
			continue
		}
		if inf := s.counts[len(s.counts)-1]; inf != cnt {
			t.Errorf("series %s: +Inf bucket %d != count %d", key, inf, cnt)
		}
		if sum, ok := sums[key]; ok {
			if sum < 0 {
				t.Errorf("series %s: negative sum %v", key, sum)
			}
			if cnt > 0 && sum == 0 && s.counts[0] != cnt {
				t.Errorf("series %s: zero sum with observations above the first bucket", key)
			}
		} else {
			t.Errorf("series %s: no _sum sample", key)
		}
	}
}

// TestPprofGate: /debug/pprof is 404 by default and live only behind
// WithPprof(true).
func TestPprofGate(t *testing.T) {
	ts, _, _ := serving(t)
	if code := getJSON(t, ts.URL+"/debug/pprof/", nil); code != 404 {
		t.Fatalf("pprof disabled: code %d, want 404", code)
	}

	ts2 := servingAdmit(t, nil, WithPprof(true))
	resp, err := http.Get(ts2.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("pprof enabled: code %d, want 200", resp.StatusCode)
	}
}

// TestSlowQueryLog sets a zero-adjacent threshold so the first cold
// rules query (which really mines) must cross it, and checks the log
// line carries method, model, tenant, duration, and a rules phase
// attribution.
func TestSlowQueryLog(t *testing.T) {
	var buf bytes.Buffer
	var mu sync.Mutex
	logger := slog.New(slog.NewTextHandler(writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(p)
	}), nil))

	m := testModel(t, 7, 12, 500)
	reg := registry.New(registry.Options{})
	if _, err := reg.Load("demo", m); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(reg, WithSlowQueryLog(time.Nanosecond), WithLogger(logger)).Handler())
	defer ts.Close()

	code, body, _ := getTenant(t, ts.URL+"/v1/models/demo/rules?head=A00", "ops")
	if code != 200 {
		t.Fatalf("rules query: %d (%s)", code, body)
	}

	mu.Lock()
	out := buf.String()
	mu.Unlock()
	for _, want := range []string{
		`msg="slow query"`, "level=WARN", "kind=rules", "model=demo",
		"tenant=ops", "duration=", "status=200", "rules=",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("slow log %q missing %q", out, want)
		}
	}

	// A warm repeat hits the rule cache: still logged at this absurd
	// threshold, but with no phase work to attribute.
	mu.Lock()
	buf.Reset()
	mu.Unlock()
	if code, _, _ := getTenant(t, ts.URL+"/v1/models/demo/rules?head=A00", "ops"); code != 200 {
		t.Fatalf("warm rules query: %d", code)
	}
	mu.Lock()
	out = buf.String()
	mu.Unlock()
	if !strings.Contains(out, "phases=none") {
		t.Fatalf("warm slow log %q should attribute no phases", out)
	}
}

// writerFunc adapts a function to io.Writer.
type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// TestRegistryLoadHook checks the breaker feed from the load path:
// a failed load reports the error, a successful load reports nil.
func TestRegistryLoadHook(t *testing.T) {
	type call struct {
		name string
		err  error
	}
	var calls []call
	reg := registry.New(registry.Options{LoadHook: func(name string, err error) {
		calls = append(calls, call{name, err})
	}})
	if _, err := reg.Load("bad", nil); err == nil {
		t.Fatal("nil model should fail to load")
	}
	if _, err := reg.Load("demo", testModel(t, 7, 8, 200)); err != nil {
		t.Fatal(err)
	}
	if len(calls) != 2 {
		t.Fatalf("hook calls = %d, want 2", len(calls))
	}
	if calls[0].name != "bad" || calls[0].err == nil {
		t.Fatalf("first call = %+v, want bad with error", calls[0])
	}
	if calls[1].name != "demo" || calls[1].err != nil {
		t.Fatalf("second call = %+v, want demo with nil", calls[1])
	}
}
