// Package check is the one response checker every harness shares. A
// harness (cmd/loadgen's mixes, the fleet sim) drives traffic, records
// each HTTP exchange as an Outcome in a History, and calls Check;
// nothing else decides whether the answers were right. Check verifies
// the serving contract over the whole history:
//
//   - identity: responses to the same request (method, path, body) at
//     the same content generation have equal status and bytes;
//   - no stale read: no answer's generation is older than a write
//     acked before its request was sent;
//   - no phantom read: no answer's generation is newer than every
//     write sent before it was received;
//   - monotonic generations: each client sees non-decreasing
//     generations per model, and acked write generations strictly
//     increase;
//   - generation header: every 200 model-scoped response carries
//     X-Model-Generation;
//   - no lost acked write: an acked append swaps in a new generation
//     with exactly the rows it sent added (and, when the history writes
//     a single model, the generation right after the previous known
//     one), and a state read made after a model's last ack answers
//     that ack's generation and rows;
//   - shedding contract: every 429/503 carries an integral Retry-After
//     of at least 1, and every other non-200 (or :query batch item
//     error) is a failure;
//   - trace IDs: every X-Trace-Id is 32 lowercase hex digits, not all
//     zero.
//
// Order comes from the History's logical clock: Do ticks it when a
// request is sent and again once its response is read, so "acked
// before sent" is a comparison of ticks, exact across goroutines.
package check

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind says what an exchange means to the checker.
type Kind uint8

const (
	// Read is a query; its answers are identity-checked.
	Read Kind = iota
	// Write is a snapshot PUT or an :append; a 200 is an ack whose
	// X-Model-Generation names the generation it published.
	Write
	// State is GET /v1/models/{name}: a replica's generation and rows.
	State
)

// Outcome is one recorded HTTP exchange. A harness fills the request
// half; Do and Serve fill the rest.
type Outcome struct {
	Client string // who sent it; generations are monotonic per client
	Model  string // the model it is scoped to; "" for /healthz and the like
	Kind   Kind
	Method string
	Path   string
	Body   []byte
	// Appended is the number of rows an :append Write sends.
	Appended int

	Sent, Received int64 // History clock ticks
	Status         int   // 0: transport error, see Err
	Err            string
	// Gen is X-Model-Generation, 0 when absent or malformed. A Gen set
	// before Do or Serve is kept.
	Gen        int64
	RetryAfter string
	TraceID    string
	Resp       []byte
}

func (o *Outcome) String() string {
	return fmt.Sprintf("%s: %s %s", o.Client, o.Method, o.Path)
}

func (o *Outcome) fill(status int, hdr http.Header, body []byte) {
	o.Status, o.Resp = status, body
	if o.Gen == 0 {
		o.Gen, _ = strconv.ParseInt(hdr.Get("X-Model-Generation"), 10, 64)
	}
	o.RetryAfter = hdr.Get("Retry-After")
	o.TraceID = hdr.Get("X-Trace-Id")
}

func (o *Outcome) reader() io.Reader {
	if o.Body == nil {
		return nil
	}
	return bytes.NewReader(o.Body)
}

func (o *Outcome) setContentType(h http.Header) {
	switch {
	case o.Method == http.MethodPut:
		h.Set("Content-Type", "application/octet-stream")
	case o.Body != nil:
		h.Set("Content-Type", "application/json")
	}
}

type modelGen struct {
	model string
	gen   int64
}

// History records outcomes from any number of goroutines.
type History struct {
	clock atomic.Int64
	mu    sync.Mutex
	outs  []Outcome
	alias map[modelGen]int64
}

// Alias declares that generation gen of model serves the same content
// as generation of, because the harness re-PUT byte-identical snapshot
// bytes; identity then holds across the two.
func (h *History) Alias(model string, gen, of int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.alias == nil {
		h.alias = map[modelGen]int64{}
	}
	h.alias[modelGen{model, gen}] = of
}

func (h *History) add(o Outcome) Outcome {
	o.Received = h.clock.Add(1)
	h.mu.Lock()
	h.outs = append(h.outs, o)
	h.mu.Unlock()
	return o
}

// Do sends o's request with c to base+o.Path, records the outcome and
// returns it.
func (h *History) Do(c *http.Client, base string, o Outcome) Outcome {
	req, err := http.NewRequest(o.Method, base+o.Path, o.reader())
	o.Sent = h.clock.Add(1)
	if err != nil {
		o.Err = err.Error()
		return h.add(o)
	}
	o.setContentType(req.Header)
	resp, err := c.Do(req)
	if err != nil {
		o.Err = err.Error()
		return h.add(o)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		o.Err = err.Error()
		return h.add(o)
	}
	o.fill(resp.StatusCode, resp.Header, raw)
	return h.add(o)
}

// Serve is Do against an in-process handler. The fleet sim sets Gen on
// its single-node reference's outcomes to the fleet's last acked
// generation, so "routed ≡ reference" is the identity rule.
func (h *History) Serve(hd http.Handler, o Outcome) Outcome {
	req := httptest.NewRequest(o.Method, o.Path, o.reader())
	o.setContentType(req.Header)
	o.Sent = h.clock.Add(1)
	rec := httptest.NewRecorder()
	hd.ServeHTTP(rec, req)
	o.fill(rec.Code, rec.Header(), rec.Body.Bytes())
	return h.add(o)
}

// Counts tallies violations per invariant.
type Counts struct {
	Identity  int `json:"identity"`
	Stale     int `json:"stale"`
	Phantom   int `json:"phantom"`
	Monotonic int `json:"monotonic"`
	GenHeader int `json:"generation_header"`
	LostWrite int `json:"lost_write"`
	// Shedding counts 429/503 answers without a valid Retry-After and
	// every failed exchange: another non-200, a transport error, or a
	// :query batch item error.
	Shedding int `json:"shedding"`
	TraceID  int `json:"trace_id"`
}

// Report is Check's verdict on a history.
type Report struct {
	Outcomes   int    `json:"outcomes"`
	Shed       int    `json:"shed"`   // 429/503 answers
	Traced     int    `json:"traced"` // answers carrying X-Trace-Id
	Violations Counts `json:"violations"`
	// Examples describes the first violations found.
	Examples []string `json:"examples,omitempty"`
}

const maxExamples = 8

func (r *Report) flag(n *int, format string, args ...any) {
	*n++
	if len(r.Examples) < maxExamples {
		r.Examples = append(r.Examples, fmt.Sprintf(format, args...))
	}
}

// Err is nil when the history holds every invariant.
func (r *Report) Err() error {
	v := r.Violations
	if v == (Counts{}) {
		return nil
	}
	return fmt.Errorf("check: violations %+v; first: %s", v, strings.Join(r.Examples, "; "))
}

func shed(status int) bool {
	return status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable
}

// batchFailed reports whether a typed :query batch answer carries an
// item error: each item is its own request, so an item error is a
// failed answer inside a 200.
func batchFailed(resp []byte) bool {
	var body struct {
		Batch []struct {
			Error json.RawMessage `json:"error"`
		} `json:"batch"`
	}
	if json.Unmarshal(resp, &body) != nil {
		return false // not a batch answer; identity still covers it
	}
	for _, item := range body.Batch {
		if len(item.Error) > 0 && string(item.Error) != "null" {
			return true
		}
	}
	return false
}

func validTraceID(s string) bool {
	if len(s) != 32 || s == strings.Repeat("0", 32) {
		return false
	}
	for i := 0; i < len(s); i++ {
		if c := s[i]; (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Check verifies every invariant over the outcomes recorded so far.
func (h *History) Check() *Report {
	h.mu.Lock()
	outs := slices.Clone(h.outs)
	alias := maps.Clone(h.alias)
	h.mu.Unlock()

	r := &Report{Outcomes: len(outs)}
	v := &r.Violations
	answers := map[string]*Outcome{}
	writes := map[string][]*Outcome{} // model -> writes, in Sent order below
	clients := map[string][]*Outcome{}
	for i := range outs {
		o := &outs[i]
		if o.TraceID != "" {
			r.Traced++
			if !validTraceID(o.TraceID) {
				r.flag(&v.TraceID, "%v answered X-Trace-Id %q", o, o.TraceID)
			}
		}
		switch {
		case o.Status == http.StatusOK:
			if o.Model != "" && o.Gen == 0 {
				r.flag(&v.GenHeader, "%v: 200 without X-Model-Generation", o)
			}
			if o.Kind == Read && strings.HasSuffix(o.Path, ":query") && batchFailed(o.Resp) {
				r.flag(&v.Shedding, "%v: a batch item failed: %.120s", o, o.Resp)
			}
		case shed(o.Status):
			r.Shed++
			if secs, err := strconv.Atoi(o.RetryAfter); err != nil || secs < 1 {
				r.flag(&v.Shedding, "%v: %d with Retry-After %q", o, o.Status, o.RetryAfter)
			}
		case o.Status == 0:
			r.flag(&v.Shedding, "%v: %s", o, o.Err)
		default:
			r.flag(&v.Shedding, "%v: %d %.120s", o, o.Status, o.Resp)
		}
		if o.Kind == Read && o.Status != 0 && !shed(o.Status) {
			key := o.Method + " " + o.Path + "\x00" + string(o.Body) + "\x00" +
				strconv.FormatInt(canonical(alias, o.Model, o.Gen), 10)
			if first, ok := answers[key]; !ok {
				answers[key] = o
			} else if first.Status != o.Status || !bytes.Equal(first.Resp, o.Resp) {
				r.flag(&v.Identity, "%v at generation %d: %d %.80s, earlier %d %.80s",
					o, o.Gen, o.Status, o.Resp, first.Status, first.Resp)
			}
		}
		if o.Model == "" {
			continue
		}
		if o.Kind == Write {
			writes[o.Model] = append(writes[o.Model], o)
		}
		if o.Status == http.StatusOK && o.Gen > 0 {
			clients[o.Client+"\x00"+o.Model] = append(clients[o.Client+"\x00"+o.Model], o)
		}
	}

	for _, key := range slices.Sorted(maps.Keys(clients)) {
		seq := clients[key]
		sort.SliceStable(seq, func(i, j int) bool { return seq[i].Sent < seq[j].Sent })
		for i := 1; i < len(seq); i++ {
			if seq[i].Gen < seq[i-1].Gen {
				r.flag(&v.Monotonic, "%v: generation %d after %d", seq[i], seq[i].Gen, seq[i-1].Gen)
			}
		}
	}
	// Generations are registry-wide, so a model's acked appends are
	// consecutive only when no other model is written.
	sole := len(writes) == 1
	for _, model := range slices.Sorted(maps.Keys(writes)) {
		r.checkModel(outs, model, writes[model], sole)
	}
	return r
}

// canonical resolves a generation through the declared aliases.
func canonical(alias map[modelGen]int64, model string, gen int64) int64 {
	for {
		of, ok := alias[modelGen{model, gen}]
		if !ok {
			return gen
		}
		gen = of
	}
}

// checkModel applies the write-ordering invariants (stale, phantom,
// acked generations, lost writes) to one model's history; sole says
// the model is the only one written.
func (r *Report) checkModel(outs []Outcome, model string, ws []*Outcome, sole bool) {
	v := &r.Violations
	sort.SliceStable(ws, func(i, j int) bool { return ws[i].Sent < ws[j].Sent })
	// clean: every write was acked or cleanly refused, so no write of
	// unknown effect sits between two known generations.
	var acks []*Outcome
	clean := true
	for _, w := range ws {
		switch {
		case w.Status == http.StatusOK && w.Gen > 0:
			acks = append(acks, w)
		case !shed(w.Status):
			clean = false
		}
	}
	if len(acks) == 0 {
		return
	}
	sort.SliceStable(acks, func(i, j int) bool { return acks[i].Received < acks[j].Received })
	// ackedMax[i] is the newest generation among acks[:i+1].
	ackedMax := make([]int64, len(acks))
	minGen := acks[0].Gen
	for i, a := range acks {
		ackedMax[i] = a.Gen
		if i > 0 {
			if a.Gen <= acks[i-1].Gen {
				r.flag(&v.Monotonic, "%v: acked generation %d after %d", a, a.Gen, acks[i-1].Gen)
			}
			ackedMax[i] = max(a.Gen, ackedMax[i-1])
		}
		minGen = min(minGen, a.Gen)
	}

	// rows records each generation's row count, from acks and state
	// reads; two answers for one generation must agree.
	rows := map[int64]int{}
	record := func(o *Outcome) {
		var body struct {
			Rows    *int `json:"rows"`
			Swapped bool `json:"swapped"`
		}
		if err := json.Unmarshal(o.Resp, &body); err != nil || body.Rows == nil {
			r.flag(&v.LostWrite, "%v: no row count in %.80s", o, o.Resp)
			return
		}
		if o.Appended > 0 && !body.Swapped {
			r.flag(&v.LostWrite, "%v: acked %d rows without swapping in a new generation", o, o.Appended)
		}
		if known, ok := rows[o.Gen]; !ok {
			rows[o.Gen] = *body.Rows
		} else if known != *body.Rows {
			r.flag(&v.LostWrite, "%v: generation %d has %d rows, elsewhere %d", o, o.Gen, *body.Rows, known)
		}
	}
	for _, a := range acks {
		record(a)
	}

	var states []*Outcome
	for i := range outs {
		o := &outs[i]
		if o.Model != model || o.Kind == Write || o.Status != http.StatusOK || o.Gen == 0 {
			continue
		}
		// Stale: an ack received before o was sent bounds it below.
		if n := sort.Search(len(acks), func(j int) bool { return acks[j].Received >= o.Sent }); n > 0 && o.Gen < ackedMax[n-1] {
			r.flag(&v.Stale, "%v: generation %d after generation %d was acked", o, o.Gen, ackedMax[n-1])
		}
		// Phantom: the writes sent before o was received bound it
		// above, unless one of them failed without a clean refusal and
		// may have applied anyway.
		bound, known := minGen-1, true
		for _, w := range ws {
			if w.Sent >= o.Received {
				break
			}
			switch {
			case w.Status == http.StatusOK && w.Gen > 0:
				bound = max(bound, w.Gen)
			case !shed(w.Status):
				known = false
			}
		}
		if known && o.Gen > bound {
			r.flag(&v.Phantom, "%v: generation %d, but writes sent before it published at most %d", o, o.Gen, bound)
		}
		if o.Kind == State {
			record(o)
			states = append(states, o)
		}
	}

	// An acked append adds exactly its rows to the model's previous
	// known generation and, when sole, publishes the next generation.
	gens := slices.Sorted(maps.Keys(rows))
	for _, a := range acks {
		i, _ := slices.BinarySearch(gens, a.Gen)
		if !clean || a.Appended == 0 || i == 0 {
			continue
		}
		prev := gens[i-1]
		if sole && a.Gen != prev+1 {
			r.flag(&v.LostWrite, "%v: acked generation %d, previous known generation %d", a, a.Gen, prev)
		}
		if rows[a.Gen] != rows[prev]+a.Appended {
			r.flag(&v.LostWrite, "%v: appending %d rows to generation %d (%d rows) acked %d rows",
				a, a.Appended, prev, rows[prev], rows[a.Gen])
		}
	}
	// A state read sent after the last ack, with no write in flight
	// that might have applied, must answer that ack's generation (and
	// so, by the rule above, its rows).
	last := acks[len(acks)-1]
	for _, w := range ws {
		if w.Sent > last.Received && !shed(w.Status) {
			return
		}
	}
	for _, o := range states {
		if o.Sent > last.Received && o.Gen != last.Gen {
			r.flag(&v.LostWrite, "%v: final state is generation %d with %d rows, last ack generation %d with %d rows",
				o, o.Gen, rows[o.Gen], last.Gen, rows[last.Gen])
		}
	}
}
