package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/url"

	"hypermine/internal/engine"
	"hypermine/internal/table"
)

// params are one workload's fixed parameters, recorded beside the
// reason the workload exists, so a later change can see which input
// property each workload varies.
type params struct {
	name   string
	why    string // one line: what does the work on this workload
	varies string // the input property this workload varies
	attrs  int
	rows   int
}

var workloads = []params{
	{
		name:   "serve-read",
		why:    "engine warm reads, the server handler and JSON, telemetry and loopback do nearly all the work; mining, delta, registry swaps and fleet do none",
		varies: "rule-cache fit: every rules key fits the engine's 64-entry rule cache, so reads stay warm",
		attrs:  30, rows: 20000,
	},
	{
		name:   "fleet-churn",
		why:    "writes run beside reads: delta, registry republish, engine rewarm, the snapshot codec, replication and routing do most of the work; every append empties the rule cache",
		varies: "writes beside reads: a change that speeds one and slows the other shows here",
		attrs:  30, rows: 20000,
	},
	{
		name:   "mine",
		why:    "the paper's offline pipeline: the mining kernels do all the work and no serving layer runs; the only workload with core.Build on the timed path",
		varies: "table size: 40 x 50k, larger than the serving workloads' 30 x 20k",
		attrs:  40, rows: 50000,
	},
}

func workloadParams(name string) (params, bool) {
	for _, p := range workloads {
		if p.name == name {
			return p, true
		}
	}
	return params{}, false
}

// k is the value-set cardinality of every generated table.
const k = 3

// Independent random streams drawn from one workload seed.
const (
	streamTable uint64 = iota + 1
	streamPool
	streamOrder
	streamWrites
	streamMine // mine tables use streamMine + i
)

func newRNG(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// dist is a table distribution. Attributes fall into groups that share
// a latent per-row value; each attribute copies its group's value with
// its own probability and is uniform noise otherwise. The groups give
// mining strong, distinct associations, so dominators and classifier
// targets stay put under small appends, while the noise keeps every
// ACV below 1. The structure depends only on the attribute count; the
// seed draws the rows, so every seed mines a model of the same shape
// and cost.
type dist struct {
	attrs []string
	group []int
	keep  []float64
	nGrp  int
}

func newDist(nAttrs int) *dist {
	d := &dist{
		attrs: make([]string, nAttrs),
		group: make([]int, nAttrs),
		keep:  make([]float64, nAttrs),
		nGrp:  1 + nAttrs/8,
	}
	for j := range nAttrs {
		d.attrs[j] = fmt.Sprintf("a%02d", j)
		d.group[j] = j % d.nGrp
		d.keep[j] = 0.45 + 0.4*float64((j*7)%nAttrs)/float64(nAttrs)
	}
	return d
}

// row draws one observation into dst; gv is scratch of length nGrp.
func (d *dist) row(rng *rand.Rand, gv, dst []byte) {
	base := byte(1 + rng.IntN(k))
	for g := range gv {
		if rng.Float64() < 0.6 {
			gv[g] = base
		} else {
			gv[g] = byte(1 + rng.IntN(k))
		}
	}
	for j := range dst {
		if rng.Float64() < d.keep[j] {
			dst[j] = gv[d.group[j]]
		} else {
			dst[j] = byte(1 + rng.IntN(k))
		}
	}
}

// columns draws rows observations, column-major.
func (d *dist) columns(rng *rand.Rand, rows int) [][]byte {
	cols := make([][]byte, len(d.attrs))
	for j := range cols {
		cols[j] = make([]byte, rows)
	}
	gv := make([]byte, d.nGrp)
	row := make([]byte, len(d.attrs))
	for i := range rows {
		d.row(rng, gv, row)
		for j, v := range row {
			cols[j][i] = v
		}
	}
	return cols
}

func (d *dist) table(rng *rand.Rand, rows int) (*table.Table, error) {
	return table.FromRawColumns(d.attrs, k, d.columns(rng, rows))
}

// rowValues draws n observations, row-major.
func (d *dist) rowValues(rng *rand.Rand, n int) [][]table.Value {
	gv := make([]byte, d.nGrp)
	raw := make([]byte, len(d.attrs))
	out := make([][]table.Value, n)
	for i := range out {
		d.row(rng, gv, raw)
		out[i] = make([]table.Value, len(raw))
		for j, v := range raw {
			out[i][j] = table.Value(v)
		}
	}
	return out
}

// readReq is one generated read: the HTTP call a client makes and the
// engine request it means, which the verifier runs on its own engine.
type readReq struct {
	kind   string
	method string
	path   string
	body   []byte
	req    engine.Request
}

// readMix is the serve-read mix by weight. Rules keys are (head, top 5),
// at most one per attribute, so they fit the engine's rule cache.
var readMix = []struct {
	kind   string
	weight int
}{
	{"classify", 8}, {"classify:batch", 2}, {"similar", 2}, {"rules", 1}, {"dominators", 1}, {"query", 1},
}

// poolPerWeight sizes the pool of distinct reads: 15 weights x 32.
const poolPerWeight = 32

// batchRows is the observation count of each classify:batch read.
const batchRows = 16

// readPool draws the pool of distinct reads a stream samples from, in
// mix proportion. dom and targets come from the served model.
func readPool(seed uint64, model string, attrs, dom, targets []string) []readReq {
	rng := newRNG(seed, streamPool)
	var pool []readReq
	for _, m := range readMix {
		for range m.weight * poolPerWeight {
			pool = append(pool, genRead(rng, m.kind, model, attrs, dom, targets))
		}
	}
	return pool
}

func pick(rng *rand.Rand, s []string) string { return s[rng.IntN(len(s))] }

func classifyOne(rng *rand.Rand, dom, targets []string) engine.ClassifyRequest {
	vals := make(map[string]int, len(dom))
	for _, a := range dom {
		vals[a] = 1 + rng.IntN(k)
	}
	return engine.ClassifyRequest{Target: pick(rng, targets), Values: vals}
}

func similarPair(rng *rand.Rand, attrs []string) engine.SimilarRequest {
	a := pick(rng, attrs)
	b := pick(rng, attrs)
	for b == a {
		b = pick(rng, attrs)
	}
	return engine.SimilarRequest{A: a, B: b}
}

func genRead(rng *rand.Rand, kind, model string, attrs, dom, targets []string) readReq {
	base := "/v1/models/" + model
	switch kind {
	case "classify":
		q := classifyOne(rng, dom, targets)
		return jsonRead(kind, base+"/classify", q, engine.Request{Classify: &q})
	case "classify:batch":
		rows := make([][]int, batchRows)
		for i := range rows {
			rows[i] = make([]int, len(dom))
			for j := range rows[i] {
				rows[i][j] = 1 + rng.IntN(k)
			}
		}
		q := engine.ClassifyRequest{Target: pick(rng, targets), Rows: rows}
		return jsonRead(kind, base+"/classify:batch", q, engine.Request{Classify: &q})
	case "similar":
		if rng.IntN(2) == 0 {
			q := similarPair(rng, attrs)
			path := base + "/similar?a=" + url.QueryEscape(q.A) + "&b=" + url.QueryEscape(q.B)
			return readReq{kind: kind, method: "GET", path: path, req: engine.Request{Similar: &q}}
		}
		q := engine.SimilarRequest{A: pick(rng, attrs), Top: 5}
		path := base + "/similar?a=" + url.QueryEscape(q.A) + "&top=5"
		return readReq{kind: kind, method: "GET", path: path, req: engine.Request{Similar: &q}}
	case "rules":
		q := engine.RulesRequest{Head: pick(rng, attrs), Top: 5}
		path := base + "/rules?head=" + url.QueryEscape(q.Head) + "&top=5"
		return readReq{kind: kind, method: "GET", path: path, req: engine.Request{Rules: &q}}
	case "dominators":
		return readReq{kind: kind, method: "GET", path: base + "/dominators", req: engine.Request{Dominators: &engine.DominatorsRequest{}}}
	default: // query: a mixed batch through the typed endpoint
		c := classifyOne(rng, dom, targets)
		s := similarPair(rng, attrs)
		r := engine.RulesRequest{Head: pick(rng, attrs), Top: 5}
		q := engine.Request{Batch: []engine.Request{
			{Classify: &c}, {Similar: &s}, {Rules: &r}, {Dominators: &engine.DominatorsRequest{}},
		}}
		return jsonRead("query", base+":query", q, q)
	}
}

func jsonRead(kind, path string, body any, req engine.Request) readReq {
	b, err := json.Marshal(body)
	if err != nil {
		panic(err) // only generator-built values reach here
	}
	return readReq{kind: kind, method: "POST", path: path, body: b, req: req}
}

// readOrder draws the stream: n pool indices, uniformly, so each kind
// appears in mix proportion.
func readOrder(seed uint64, n, poolSize int) []int32 {
	rng := newRNG(seed, streamOrder)
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(rng.IntN(poolSize))
	}
	return out
}

// write is one scheduled write of the fleet-churn workload: an append
// of rows, or a snapshot PUT (hot swap) of the base model.
type write struct {
	put  bool
	rows [][]table.Value
	body []byte // the :append JSON body
}

// putEvery makes every putEvery-th write a snapshot PUT.
const putEvery = 8

// writeSchedule draws n writes: appends of 1-100 rows from the table's
// distribution, with every putEvery-th write a PUT.
func writeSchedule(seed uint64, d *dist, n int) []write {
	rng := newRNG(seed, streamWrites)
	out := make([]write, n)
	for i := range out {
		if (i+1)%putEvery == 0 {
			out[i] = write{put: true}
			continue
		}
		out[i] = appendWrite(d.rowValues(rng, 1+rng.IntN(100)))
	}
	return out
}

func appendWrite(rows [][]table.Value) write {
	ints := make([][]int, len(rows))
	for i, r := range rows {
		ints[i] = make([]int, len(r))
		for j, v := range r {
			ints[i][j] = int(v)
		}
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(map[string]any{"rows": ints}); err != nil {
		panic(err)
	}
	return write{rows: rows, body: buf.Bytes()}
}
