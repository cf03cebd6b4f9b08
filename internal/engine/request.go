// The transport-neutral typed query layer: a Request is a tagged
// union of the four paper workloads (rules, similarity, leading
// indicators, classification) plus a multiplexed Batch form, and a
// Response mirrors it. Engine.Do executes one Request; the HTTP
// server decodes its body into a Request, calls Do, and encodes the
// result, so in-process Go callers and HTTP clients run identical
// code. All attribute references are by name, making the types
// JSON-stable across model reloads.

package engine

import (
	"context"
	"fmt"
	"slices"

	"hypermine/internal/core"
	"hypermine/internal/similarity"
	"hypermine/internal/table"
)

// ErrorKind classifies an engine error for transport mapping.
type ErrorKind string

// Error kinds. Transports map them onto their own vocabulary (the
// HTTP server uses 400 / 409 / 500); context errors are never wrapped
// in an *Error — they surface as context.Canceled/DeadlineExceeded so
// callers can errors.Is them.
const (
	// ErrBadRequest: the request itself is malformed (unknown
	// attribute name, out-of-range value, conflicting variants).
	ErrBadRequest ErrorKind = "bad_request"
	// ErrUnavailable: the request is well-formed but this model
	// cannot answer it (row-less snapshot, dominator with no targets).
	ErrUnavailable ErrorKind = "unavailable"
	// ErrInternal: an unexpected engine-side failure.
	ErrInternal ErrorKind = "internal"
)

// Error is a typed engine error.
type Error struct {
	Kind    ErrorKind `json:"kind"`
	Message string    `json:"message"`
}

func (e *Error) Error() string { return e.Message }

func badf(format string, args ...any) *Error {
	return &Error{Kind: ErrBadRequest, Message: fmt.Sprintf(format, args...)}
}

func unavailablef(format string, args ...any) *Error {
	return &Error{Kind: ErrUnavailable, Message: fmt.Sprintf(format, args...)}
}

func internalf(format string, args ...any) *Error {
	return &Error{Kind: ErrInternal, Message: fmt.Sprintf(format, args...)}
}

// AsError coerces any error into an *Error, defaulting to
// ErrInternal for untyped failures.
func AsError(err error) *Error {
	if err == nil {
		return nil
	}
	if ee, ok := err.(*Error); ok {
		return ee
	}
	return &Error{Kind: ErrInternal, Message: err.Error()}
}

// Cost is a request's admission cost class: the serving layer gives
// cheap warm reads and expensive cold/mining queries separate
// concurrency gates, so a burst of rule-mining queries cannot starve
// the microsecond classify path.
type Cost int

const (
	// CostCheap is the warm read path: classification, similarity,
	// and dominator queries answer from memoized artifacts in
	// nanoseconds-to-microseconds once built.
	CostCheap Cost = iota
	// CostExpensive is the mining path: a rules query misses the rule
	// cache into a full MineRules run (tens of milliseconds).
	CostExpensive
)

// String names the cost class for stats and metrics labels.
func (c Cost) String() string {
	if c == CostExpensive {
		return "expensive"
	}
	return "cheap"
}

// Cost classifies the request by kind: rules queries (and batches
// containing one) are expensive, everything else is cheap. The
// classification is static — it does not consult cache state — so the
// admission decision is deterministic for a given request shape.
func (r *Request) Cost() Cost {
	if r == nil {
		return CostCheap
	}
	if r.Rules != nil {
		return CostExpensive
	}
	for i := range r.Batch {
		if r.Batch[i].Rules != nil {
			return CostExpensive
		}
	}
	return CostCheap
}

// Request is one engine query: exactly one variant must be set.
type Request struct {
	Rules      *RulesRequest      `json:"rules,omitempty"`
	Similar    *SimilarRequest    `json:"similar,omitempty"`
	Dominators *DominatorsRequest `json:"dominators,omitempty"`
	Classify   *ClassifyRequest   `json:"classify,omitempty"`
	// Batch multiplexes independent sub-requests (no nesting): one
	// round trip, one Response.Batch entry per sub-request, each
	// succeeding or failing on its own.
	Batch []Request `json:"batch,omitempty"`
}

// Response carries the answer of the matching Request variant.
type Response struct {
	Rules      *RulesResponse      `json:"rules,omitempty"`
	Similar    *SimilarResponse    `json:"similar,omitempty"`
	Dominators *DominatorsResponse `json:"dominators,omitempty"`
	Classify   *ClassifyResponse   `json:"classify,omitempty"`
	Batch      []BatchItem         `json:"batch,omitempty"`
}

// BatchItem is one sub-answer of a Batch: the Response fields of a
// successful sub-request, or its Error.
type BatchItem struct {
	Response
	Error *Error `json:"error,omitempty"`
}

// RulesRequest mines ranked mva-type rules pointing at a head
// attribute. Zero thresholds accept everything; Top 0 means 10.
type RulesRequest struct {
	Head          string  `json:"head"`
	Top           int     `json:"top,omitempty"`
	MinSupport    float64 `json:"min_support,omitempty"`
	MinConfidence float64 `json:"min_confidence,omitempty"`
}

// RuleResult is one mined rule rendered with attribute names.
type RuleResult struct {
	Rule       string  `json:"rule"`
	Support    float64 `json:"support"`
	Confidence float64 `json:"confidence"`
	Lift       float64 `json:"lift"`
}

// RulesResponse lists the mined rules, ranked.
type RulesResponse struct {
	Head  string       `json:"head"`
	Rules []RuleResult `json:"rules"`
}

// SimilarRequest asks for the pair similarity of A and B, or — with B
// empty — the Top nearest neighbors of A by similarity distance
// (Top 0 means 10).
type SimilarRequest struct {
	A   string `json:"a"`
	B   string `json:"b,omitempty"`
	Top int    `json:"top,omitempty"`
}

// Neighbor is one ranking entry.
type Neighbor struct {
	Name     string  `json:"name"`
	Distance float64 `json:"distance"`
}

// SimilarResponse is a pair answer (InSim/OutSim/Distance set) or a
// ranking answer (Neighbors set).
type SimilarResponse struct {
	A         string     `json:"a"`
	B         string     `json:"b,omitempty"`
	InSim     *float64   `json:"in_sim,omitempty"`
	OutSim    *float64   `json:"out_sim,omitempty"`
	Distance  *float64   `json:"distance,omitempty"`
	Neighbors []Neighbor `json:"neighbors,omitempty"`
}

// DominatorsRequest asks for a leading indicator. Alg selects the
// greedy algorithm (5 or 6; 0 means 6); both paper enhancements are
// applied — the serving policy, matching hypermine.LeadingIndicators.
type DominatorsRequest struct {
	Alg      int  `json:"alg,omitempty"`
	Complete bool `json:"complete,omitempty"`
}

// DominatorsResponse reports the computed dominator.
type DominatorsResponse struct {
	Dominator  []string `json:"dominator"`
	Targets    []string `json:"targets"`
	Coverage   float64  `json:"coverage"`
	Iterations int      `json:"iterations"`
	TargetSize int      `json:"target_size"`
}

// ClassifyRequest classifies one observation (Values: dominator
// attribute name -> value) or a batch (Rows: one row per observation,
// values in dominator order). Exactly one of Values/Rows must be set.
type ClassifyRequest struct {
	Target string         `json:"target"`
	Values map[string]int `json:"values,omitempty"`
	Rows   [][]int        `json:"rows,omitempty"`
}

// ClassifyResponse is a single answer (Value/Confidence set) or a
// batch answer (Values/Confidences set).
type ClassifyResponse struct {
	Target      string    `json:"target"`
	Value       *int      `json:"value,omitempty"`
	Confidence  *float64  `json:"confidence,omitempty"`
	Values      []int     `json:"values,omitempty"`
	Confidences []float64 `json:"confidences,omitempty"`
}

// Do executes one Request under ctx. Errors are *Error values (see
// ErrorKind) except context failures, which surface unwrapped.
//
// Each answer allocates its Response together with the variant's
// payload (and any values the payload points at) as one anonymous
// struct, so a warm answer costs one allocation, not three to five.
func (e *Engine) Do(ctx context.Context, req *Request) (*Response, error) {
	if req == nil {
		return nil, badf("nil request")
	}
	if req.Batch != nil {
		if req.Rules != nil || req.Similar != nil || req.Dominators != nil || req.Classify != nil {
			return nil, badf("batch request must not carry other variants")
		}
		return e.doBatch(ctx, req.Batch)
	}
	return e.doOne(ctx, req)
}

func (e *Engine) doOne(ctx context.Context, req *Request) (*Response, error) {
	variants := 0
	for _, set := range []bool{req.Rules != nil, req.Similar != nil, req.Dominators != nil, req.Classify != nil} {
		if set {
			variants++
		}
	}
	if variants != 1 {
		return nil, badf("exactly one of rules, similar, dominators, classify must be set (got %d)", variants)
	}
	switch {
	case req.Rules != nil:
		return e.doRules(ctx, req.Rules)
	case req.Similar != nil:
		return e.doSimilar(ctx, req.Similar)
	case req.Dominators != nil:
		return e.doDominators(ctx, req.Dominators)
	default:
		return e.doClassify(ctx, req.Classify)
	}
}

// doBatch answers every sub-request independently: a malformed or
// unanswerable item fails alone, while a context failure aborts the
// whole batch (the remaining items would fail identically).
func (e *Engine) doBatch(ctx context.Context, subs []Request) (*Response, error) {
	if len(subs) == 0 {
		return nil, badf("empty batch")
	}
	items := make([]BatchItem, len(subs))
	for i := range subs {
		if subs[i].Batch != nil {
			items[i].Error = badf("batch item %d: nested batch", i)
			continue
		}
		resp, err := e.doOne(ctx, &subs[i])
		if err != nil {
			if isCtxErr(err) {
				return nil, err
			}
			items[i].Error = AsError(err)
			continue
		}
		items[i].Response = *resp
	}
	return &Response{Batch: items}, nil
}

func (e *Engine) doRules(ctx context.Context, q *RulesRequest) (*Response, error) {
	head := e.model.H.Vertex(q.Head)
	if head < 0 {
		return nil, badf("unknown head attribute %q", q.Head)
	}
	top := q.Top
	if top == 0 {
		top = 10
	}
	if top < 1 {
		return nil, badf("bad top %d", q.Top)
	}
	ans, err := e.ruleAnswer(ctx, head, core.MineOptions{
		MinSupport:    q.MinSupport,
		MinConfidence: q.MinConfidence,
		MaxRules:      top,
	})
	if err != nil {
		return nil, err
	}
	// A copy: the rendered rules stay with the cache entry.
	a := &struct {
		resp  Response
		rules RulesResponse
	}{rules: RulesResponse{Head: q.Head, Rules: slices.Clone(ans.results)}}
	a.resp.Rules = &a.rules
	return &a.resp, nil
}

func (e *Engine) doSimilar(ctx context.Context, q *SimilarRequest) (*Response, error) {
	h := e.model.H
	a := h.Vertex(q.A)
	if a < 0 {
		return nil, badf("unknown attribute %q", q.A)
	}
	if q.B != "" {
		b := h.Vertex(q.B)
		if b < 0 {
			return nil, badf("unknown attribute %q", q.B)
		}
		// A pair answer needs no prepared graph: the two similarity
		// sums are exactly what one matrix cell would hold.
		p := &struct {
			resp          Response
			sim           SimilarResponse
			in, out, dist float64
		}{in: similarity.InSim(h, a, b), out: similarity.OutSim(h, a, b)}
		p.dist = 1 - (p.in+p.out)/2
		p.sim = SimilarResponse{A: q.A, B: q.B, InSim: &p.in, OutSim: &p.out, Distance: &p.dist}
		p.resp.Similar = &p.sim
		return &p.resp, nil
	}
	top := q.Top
	if top == 0 {
		top = 10
	}
	if top < 1 {
		return nil, badf("bad top %d", q.Top)
	}
	// Ranking reads one row of the memoized all-pairs graph: no
	// similarity math on the warm path.
	g, err := e.SimilarityGraph(ctx)
	if err != nil {
		return nil, err
	}
	neighbors := make([]Neighbor, 0, h.NumVertices()-1)
	for v := 0; v < h.NumVertices(); v++ {
		if v == a {
			continue
		}
		neighbors = append(neighbors, Neighbor{Name: h.VertexName(v), Distance: g.Dist(a, v)})
	}
	slices.SortStableFunc(neighbors, func(x, y Neighbor) int {
		switch {
		case x.Distance < y.Distance:
			return -1
		case y.Distance < x.Distance:
			return 1
		}
		return 0
	})
	if top < len(neighbors) {
		neighbors = neighbors[:top]
	}
	r := &struct {
		resp Response
		sim  SimilarResponse
	}{sim: SimilarResponse{A: q.A, Neighbors: neighbors}}
	r.resp.Similar = &r.sim
	return &r.resp, nil
}

func (e *Engine) doDominators(ctx context.Context, q *DominatorsRequest) (*Response, error) {
	spec := DomSpec{Algorithm: q.Alg, Complete: q.Complete, Enhancement1: true, Enhancement2: true}
	ans, err := e.dominator(ctx, spec)
	if err != nil {
		return nil, err
	}
	res := ans.res
	// Copies: the names stay with the dominator memo.
	d := &struct {
		resp Response
		dom  DominatorsResponse
	}{dom: DominatorsResponse{
		Dominator:  slices.Clone(ans.domNames),
		Targets:    slices.Clone(ans.targetNames),
		Coverage:   res.CoverageFraction(),
		Iterations: res.Iterations,
		TargetSize: res.TargetSize,
	}}
	d.resp.Dominators = &d.dom
	return &d.resp, nil
}

func (e *Engine) doClassify(ctx context.Context, q *ClassifyRequest) (*Response, error) {
	if (q.Values == nil) == (q.Rows == nil) {
		return nil, badf("exactly one of values (single) or rows (batch) must be set")
	}
	set, err := e.warmClassifierSet(ctx)
	if err != nil {
		return nil, err
	}
	target, err := e.resolveTarget(set, q.Target)
	if err != nil {
		return nil, err
	}
	h := e.model.H
	dom := set.dom.DomSet
	k := e.model.Table.K()

	if q.Values != nil {
		domVals := make([]table.Value, len(dom))
		for i, a := range dom {
			name := h.VertexName(a)
			v, ok := q.Values[name]
			if !ok {
				return nil, badf("missing value for dominator attribute %q", name)
			}
			if v < 1 || v > k {
				return nil, badf("value %d for %q outside 1..%d", v, name, k)
			}
			domVals[i] = table.Value(v)
		}
		val, conf, err := e.Predict(ctx, domVals, target)
		if err != nil {
			return nil, err
		}
		a := &struct {
			resp  Response
			cls   ClassifyResponse
			value int
			conf  float64
		}{value: int(val), conf: conf}
		a.cls = ClassifyResponse{Target: q.Target, Value: &a.value, Confidence: &a.conf}
		a.resp.Classify = &a.cls
		return &a.resp, nil
	}

	if len(q.Rows) == 0 {
		return nil, badf("empty rows")
	}
	domVals := make([]table.Value, 0, len(q.Rows)*len(dom))
	for i, row := range q.Rows {
		if len(row) != len(dom) {
			return nil, badf("row %d has %d values, want %d (dominator order)", i, len(row), len(dom))
		}
		for j, v := range row {
			if v < 1 || v > k {
				return nil, badf("row %d value %d for %q outside 1..%d", i, v, h.VertexName(dom[j]), k)
			}
			domVals = append(domVals, table.Value(v))
		}
	}
	out := make([]table.Value, len(q.Rows))
	conf := make([]float64, len(q.Rows))
	if err := e.PredictBatch(ctx, domVals, target, out, conf); err != nil {
		return nil, err
	}
	b := &struct {
		resp Response
		cls  ClassifyResponse
	}{cls: ClassifyResponse{Target: q.Target, Values: make([]int, len(out)), Confidences: conf}}
	for i, v := range out {
		b.cls.Values[i] = int(v)
	}
	b.resp.Classify = &b.cls
	return &b.resp, nil
}

// resolveTarget maps a target attribute name to its id, requiring it
// to be one of the model's classifiable targets — asking for a
// dominator member or an uncovered attribute is a client error.
func (e *Engine) resolveTarget(set *classifierSet, name string) (int, error) {
	target := e.model.H.Vertex(name)
	if target < 0 {
		return 0, badf("unknown target attribute %q", name)
	}
	for _, t := range set.targets {
		if t == target {
			return target, nil
		}
	}
	return 0, badf("attribute %q is not a classifiable target (see the model's targets list)", name)
}
