package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"slices"

	"hypermine/internal/benchfix"
	"hypermine/internal/check"
	"hypermine/internal/core"
	"hypermine/internal/registry"
	"hypermine/internal/server"
)

// Config parameterizes one simulation run. Zero values take the
// documented defaults; the acceptance schedule (>= 500 events, >= 3
// kills, >= 2 lagging-gossip windows) is the default.
type Config struct {
	Seed     int64
	Nodes    int // fleet size; default 3
	Replicas int // replication factor R; default 2
	Events   int // seeded schedule length; default 500
	Kills    int // node kills injected; default 3
	Lags     int // restarts whose gossip is delayed (lag windows); default 2
	Models   int // distinct model names; default 2
	Attrs    int // attributes per model; default 10
	Rows     int // initial rows per model; default 150
	// Logf, when set, receives progress lines (control events and
	// periodic counters).
	Logf func(format string, args ...any)
}

func (cfg *Config) defaults() {
	if cfg.Nodes <= 0 {
		cfg.Nodes = 3
	}
	if cfg.Replicas <= 0 {
		cfg.Replicas = 2
	}
	if cfg.Events <= 0 {
		cfg.Events = 500
	}
	if cfg.Kills <= 0 {
		cfg.Kills = 3
	}
	if cfg.Lags <= 0 {
		cfg.Lags = 2
	}
	if cfg.Lags > cfg.Kills {
		cfg.Lags = cfg.Kills
	}
	if cfg.Models <= 0 {
		cfg.Models = 2
	}
	if cfg.Attrs <= 0 {
		cfg.Attrs = 10
	}
	if cfg.Rows <= 0 {
		cfg.Rows = 150
	}
}

// Result summarizes a run. A correct fleet yields a Check report with
// no violations; the counters say how much stimulus was applied.
type Result struct {
	Events   int `json:"events"`
	Queries  int `json:"queries"`
	Appends  int `json:"appends"`
	Kills    int `json:"kills"`
	Restarts int `json:"restarts"`
	// LagReleases counts the delayed-gossip windows that were opened
	// and then released (>= cfg.Lags when the schedule ran fully).
	LagReleases int `json:"lag_releases"`
	// DeadOwnerPuts counts routed snapshot PUTs acked while an owner of
	// the model was dead (one per model the victim owns, at each kill).
	DeadOwnerPuts int `json:"dead_owner_puts"`
	// RouterFailovers is the router's /stats failover count at the end.
	RouterFailovers int64 `json:"router_failovers"`
	// ReadyNodes counts nodes answering /readyz 200 after the final
	// convergence.
	ReadyNodes int `json:"ready_nodes"`
	// FinalChecks counts the per-model, per-replica state and answer
	// reads made after the schedule drained.
	FinalChecks int `json:"final_checks"`
	// Check is the verdict on every recorded exchange: routed answers
	// against the single-node reference, generations against acked
	// writes, and each replica's final state against the last ack.
	Check *check.Report `json:"check"`
}

// control is the deterministic non-traffic schedule, keyed by event
// index.
type control struct {
	kill    string
	restart string
	release string // gossip the named node (ends its lag window)
}

// sim carries one run's state.
type sim struct {
	cfg     Config
	rng     *rand.Rand
	cluster *Cluster
	ref     http.Handler // single-node reference server
	h       *check.History
	res     *Result

	models  []string
	snaps   map[string][]byte // model -> its seed snapshot
	lastGen map[string]int64  // model -> last acknowledged fleet generation
}

// Run executes one seeded simulation and reports its Result. An error
// means the harness could not drive the fleet (listener, snapshot
// build, restart, convergence, a refused seed write); answers are
// judged in Result.Check instead.
func Run(cfg Config) (*Result, error) {
	cfg.defaults()
	cluster, err := NewCluster(cfg.Nodes, cfg.Replicas, 0)
	if err != nil {
		return nil, err
	}
	defer cluster.Close()

	s := &sim{
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		cluster: cluster,
		ref:     server.New(registry.New(registry.Options{})).Handler(),
		h:       &check.History{},
		res:     &Result{},
		snaps:   map[string][]byte{},
		lastGen: map[string]int64{},
	}
	for i := 0; i < cfg.Models; i++ {
		s.models = append(s.models, fmt.Sprintf("m%02d", i))
	}

	ctx := context.Background()
	// Before any write, converge: nodes boot unready (manual gossip)
	// and refuse writes until their first round, exactly like a real
	// fleet gated on /readyz.
	if err := cluster.Converge(ctx); err != nil {
		return nil, err
	}
	if err := s.seedModels(); err != nil {
		return nil, err
	}

	schedule := s.buildSchedule()
	for ev := 0; ev < cfg.Events; ev++ {
		s.res.Events++
		var err error
		if c, ok := schedule[ev]; ok {
			err = s.applyControl(ctx, ev, c)
		} else if s.rng.Float64() < 0.15 {
			err = s.stepAppend()
		} else {
			s.stepQuery()
		}
		if err != nil {
			return nil, err
		}
		if s.cfg.Logf != nil && (ev+1)%100 == 0 {
			s.cfg.Logf("event %d/%d: %d queries, %d appends", ev+1, cfg.Events, s.res.Queries, s.res.Appends)
		}
	}

	if err := s.finalVerify(ctx); err != nil {
		return nil, err
	}
	s.res.Check = s.h.Check()
	s.logf("check: %d outcomes, violations %+v", s.res.Check.Outcomes, s.res.Check.Violations)
	for _, ex := range s.res.Check.Examples {
		s.logf("  %s", ex)
	}
	return s.res, nil
}

// buildSchedule places kills, restarts, and lag releases on the event
// axis: kill K_i, restart 20 events later, gossip release 15 more
// events later for the first cfg.Lags kills (the lag window) and
// immediately after restart for the rest. Spacing guarantees at most
// one node is dead or lagging at any time, so synchronous replication
// plus the surviving owner always preserve acknowledged writes.
func (s *sim) buildSchedule() map[int]control {
	schedule := map[int]control{}
	spacing := s.cfg.Events / (s.cfg.Kills + 1)
	names := s.cluster.NodeNames()
	for i := 0; i < s.cfg.Kills; i++ {
		victim := names[s.rng.Intn(len(names))]
		killAt := spacing * (i + 1)
		restartAt := killAt + 20
		releaseAt := restartAt + 1
		if i < s.cfg.Lags {
			releaseAt = restartAt + 15
		}
		schedule[killAt] = control{kill: victim}
		schedule[restartAt] = control{restart: victim}
		schedule[releaseAt] = control{release: victim}
	}
	return schedule
}

// applyControl runs one control event. A kill is followed at once by
// a routed snapshot PUT of every model the victim owns, exercising the
// node-side PUT path with a dead replica.
func (s *sim) applyControl(ctx context.Context, ev int, c control) error {
	switch {
	case c.kill != "":
		s.res.Kills++
		s.logf("event %d: kill %s", ev, c.kill)
		if err := s.cluster.Kill(c.kill); err != nil {
			return err
		}
		for _, model := range s.models {
			if !slices.Contains(s.cluster.Ring().Owners(model), c.kill) {
				continue
			}
			acked, err := s.write(model, http.MethodPut, "/v1/models/"+model, s.snaps[model], 0)
			if acked {
				s.res.DeadOwnerPuts++
			}
			if err != nil {
				return err
			}
		}
		return nil
	case c.restart != "":
		s.res.Restarts++
		s.logf("event %d: restart %s (empty, lagging until gossip)", ev, c.restart)
		return s.cluster.Restart(c.restart)
	case c.release != "":
		s.res.LagReleases++
		s.logf("event %d: gossip release %s", ev, c.release)
		return s.cluster.Gossip(ctx, c.release)
	}
	return nil
}

func (s *sim) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// seedModels PUTs every model through the router and into the
// reference.
func (s *sim) seedModels() error {
	for i, name := range s.models {
		m := benchfix.ModelWorkload(s.cfg.Attrs, s.cfg.Rows+10*i)
		var snap bytes.Buffer
		if err := core.WriteSnapshot(&snap, m, core.SaveOptions{}); err != nil {
			return err
		}
		s.snaps[name] = snap.Bytes()
		acked, err := s.write(name, http.MethodPut, "/v1/models/"+name, snap.Bytes(), 0)
		if err == nil && !acked {
			err = fmt.Errorf("sim: seed PUT %s refused", name)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// write routes one write and, once the fleet acks it, applies it to
// the reference and remembers the acked generation that reference
// answers are attributed to. An unacked write promised nothing and is
// not mirrored; check still sees it, and the sim's tests hold it to
// zero shed answers, since the sim runs no admission control.
func (s *sim) write(model, method, path string, body []byte, appended int) (bool, error) {
	o := check.Outcome{
		Client: "router", Model: model, Kind: check.Write,
		Method: method, Path: path, Body: body, Appended: appended,
	}
	routed := s.h.Do(s.cluster.Client, s.cluster.RouterURL(), o)
	if routed.Status != http.StatusOK {
		s.logf("%v: %d %s%s", &routed, routed.Status, routed.Err, routed.Resp)
		return false, nil
	}
	s.lastGen[model] = routed.Gen
	// The reference's write is not recorded: its generations are its
	// own, and its reads are attributed to the fleet's.
	if ref := (&check.History{}).Serve(s.ref, o); ref.Status != http.StatusOK {
		return true, fmt.Errorf("sim: reference %v: %d %s", &ref, ref.Status, ref.Resp)
	}
	return true, nil
}

// read sends one read through the router and the same read to the
// reference, attributed to the last acked generation.
func (s *sim) read(model string, q query) {
	o := check.Outcome{Model: model, Method: q.method, Path: q.path, Body: q.body}
	o.Client = "router"
	s.h.Do(s.cluster.Client, s.cluster.RouterURL(), o)
	o.Client, o.Gen = "reference", s.lastGen[model]
	s.h.Serve(s.ref, o)
}

// query is one generated read: a method, path, and optional JSON body,
// identical for router and reference.
type query struct {
	method, path string
	body         []byte
}

// genQuery draws one deterministic read from the rng.
func (s *sim) genQuery(model string) query {
	a := benchfix.AttrName(s.rng.Intn(s.cfg.Attrs))
	b := benchfix.AttrName(s.rng.Intn(s.cfg.Attrs))
	switch s.rng.Intn(6) {
	case 0:
		return query{"GET", fmt.Sprintf("/v1/models/%s/rules?head=%s&top=5", model, a), nil}
	case 1:
		return query{"GET", fmt.Sprintf("/v1/models/%s/similar?a=%s&b=%s", model, a, b), nil}
	case 2:
		return query{"GET", fmt.Sprintf("/v1/models/%s/similar?a=%s&top=5", model, a), nil}
	case 3:
		return query{"GET", "/v1/models/" + model + "/dominators", nil}
	case 4:
		// A valid classify names one of the model's current targets and
		// values every dominator attribute, both read from the
		// reference; the draws are the same three (attribute, value)
		// pairs whatever the model, so a seed's schedule never shifts.
		var picks [3]int
		for i := range picks {
			picks[i] = s.rng.Intn(s.cfg.Attrs)<<2 | (1 + s.rng.Intn(3))
		}
		detail := (&check.History{}).Serve(s.ref, check.Outcome{Method: http.MethodGet, Path: "/v1/models/" + model})
		var det struct{ Dominator, Targets []string }
		_ = json.Unmarshal(detail.Resp, &det) // an unusable detail yields a request check flags
		vals := map[string]int{}
		for i, a := range det.Dominator {
			vals[a] = picks[i%len(picks)] & 3
		}
		target := ""
		if len(det.Targets) > 0 {
			target = det.Targets[(picks[0]>>2)%len(det.Targets)]
		}
		body, _ := json.Marshal(map[string]any{"target": target, "values": vals})
		return query{"POST", "/v1/models/" + model + "/classify", body}
	default:
		body, _ := json.Marshal(map[string]any{
			"rules": map[string]any{"head": a, "top": 3},
		})
		return query{"POST", "/v1/models/" + model + ":query", body}
	}
}

// stepQuery routes one generated read and asks the reference the same.
func (s *sim) stepQuery() {
	model := s.models[s.rng.Intn(len(s.models))]
	q := s.genQuery(model)
	s.res.Queries++
	s.read(model, q)
}

// stepAppend routes one generated append of 1-3 correlated rows.
func (s *sim) stepAppend() error {
	model := s.models[s.rng.Intn(len(s.models))]
	rows := make([][]int, 1+s.rng.Intn(3))
	for i := range rows {
		rows[i] = make([]int, s.cfg.Attrs)
		benchfix.CorrelatedRow(s.rng, rows[i], 3)
	}
	body, _ := json.Marshal(map[string]any{"rows": rows})
	s.res.Appends++
	_, err := s.write(model, http.MethodPost, "/v1/models/"+model+":append", body, len(rows))
	return err
}

// finalVerify restarts anything dead, forces gossip convergence, and
// reads every replica of every model directly: its state (generation
// and rows, which must match the last ack) and a full rules mining
// answer (which must match the reference's).
func (s *sim) finalVerify(ctx context.Context) error {
	for _, name := range s.cluster.NodeNames() {
		if !s.cluster.Alive(name) {
			s.res.Restarts++
			if err := s.cluster.Restart(name); err != nil {
				return fmt.Errorf("sim: final restart %s: %w", name, err)
			}
		}
	}
	if err := s.cluster.Converge(ctx); err != nil {
		return fmt.Errorf("sim: final converge: %w", err)
	}
	for _, name := range s.cluster.NodeNames() {
		o := s.h.Do(s.cluster.Client, s.cluster.NodeURL(name), check.Outcome{Client: name, Method: http.MethodGet, Path: "/readyz"})
		if o.Status == http.StatusOK {
			s.res.ReadyNodes++
		}
	}

	for _, model := range s.models {
		rules := query{http.MethodGet, fmt.Sprintf("/v1/models/%s/rules?head=%s&top=10", model, benchfix.AttrName(0)), nil}
		s.h.Serve(s.ref, check.Outcome{Client: "reference", Model: model, Gen: s.lastGen[model], Method: rules.method, Path: rules.path})
		for _, owner := range s.cluster.Ring().Owners(model) {
			s.res.FinalChecks++
			u := s.cluster.NodeURL(owner)
			s.h.Do(s.cluster.Client, u, check.Outcome{Client: owner, Model: model, Method: rules.method, Path: rules.path})
			s.h.Do(s.cluster.Client, u, check.Outcome{Client: owner, Model: model, Kind: check.State, Method: http.MethodGet, Path: "/v1/models/" + model})
		}
	}

	o := s.h.Do(s.cluster.Client, s.cluster.RouterURL(), check.Outcome{Client: "router", Method: http.MethodGet, Path: "/stats"})
	var stats struct {
		Failovers int64 `json:"failovers"`
	}
	if err := json.Unmarshal(o.Resp, &stats); err != nil {
		return fmt.Errorf("sim: router /stats: %w (%d %s)", err, o.Status, o.Err)
	}
	s.res.RouterFailovers = stats.Failovers
	return nil
}
