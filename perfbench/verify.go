package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"reflect"

	"hypermine/internal/apriori"
	"hypermine/internal/cover"
	"hypermine/internal/engine"
	"hypermine/internal/hypergraph"
	"hypermine/internal/table"
)

// checkAnswer decodes a served answer and compares it field for field
// with the reference engine's answer to the same read. Both sides go
// through the same JSON decoding, so omitted-empty fields compare
// equal and every float compares bit for bit.
func checkAnswer(kind string, body []byte, ref *engine.Response) error {
	var got, want any
	switch kind {
	case "classify", "classify:batch":
		got, want = new(engine.ClassifyResponse), ref.Classify
	case "similar":
		got, want = new(engine.SimilarResponse), ref.Similar
	case "rules":
		got, want = new(engine.RulesResponse), ref.Rules
	case "dominators":
		got, want = new(engine.DominatorsResponse), ref.Dominators
	case "query":
		got, want = new(engine.Response), ref
	default:
		return fmt.Errorf("unknown read kind %q", kind)
	}
	if reflect.ValueOf(want).IsNil() {
		return fmt.Errorf("reference has no %s answer", kind)
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(got); err != nil {
		return fmt.Errorf("%s answer does not decode: %v", kind, err)
	}
	wb, err := json.Marshal(want)
	if err != nil {
		return err
	}
	norm := reflect.New(reflect.TypeOf(got).Elem()).Interface()
	if err := json.Unmarshal(wb, norm); err != nil {
		return err
	}
	if !reflect.DeepEqual(got, norm) {
		return fmt.Errorf("%s answer differs from the reference: got %s, want %s", kind, clip(bytes.TrimSpace(body)), clip(wb))
	}
	return nil
}

func clip(b []byte) string {
	if len(b) > 300 {
		return string(b[:300]) + "..."
	}
	return string(b)
}

// verifyGen checks every kept answer of one model generation against
// eng, the reference engine at that generation. It returns how many
// reads were answered wrongly and up to five messages.
func verifyGen(ctx context.Context, pool []readReq, bodies []*keyedBody, eng *engine.Engine) (int, []string) {
	refs := map[int32]*engine.Response{}
	wrong := 0
	var msgs []string
	for _, kb := range bodies {
		q := &pool[kb.key.idx]
		ref, ok := refs[kb.key.idx]
		if !ok {
			r, err := eng.Do(ctx, &q.req)
			if err != nil {
				r = nil
				msgs = appendMsg(msgs, fmt.Sprintf("reference %s %s: %v", q.method, q.path, err))
			}
			refs[kb.key.idx], ref = r, r
		}
		if ref == nil {
			wrong += kb.n
			continue
		}
		if err := checkAnswer(q.kind, kb.body, ref); err != nil {
			wrong += kb.n
			msgs = appendMsg(msgs, fmt.Sprintf("%s %s @gen %d: %v", q.method, q.path, kb.key.gen, err))
		}
	}
	return wrong, msgs
}

func appendMsg(msgs []string, m string) []string {
	if len(msgs) < 5 {
		return append(msgs, m)
	}
	return msgs
}

// writeLog is the fleet-churn client's record of acknowledged writes:
// what the served model must look like once they have all landed.
type writeLog struct {
	baseRows int
	recs     []writeRec
}

type writeRec struct {
	put     bool
	added   int             // rows appended (0 for a PUT)
	rows    [][]table.Value // the appended rows, replayed into the reference
	gen     int64           // acknowledged generation
	ackRows int             // row count the acknowledgement reported
}

// expected returns the generation and row count the acked writes
// leave behind: the last acked generation, and the base rows plus
// every row appended since the last PUT.
func (l *writeLog) expected() (int64, int) {
	var gen int64
	rows := l.baseRows
	for _, r := range l.recs {
		gen = r.gen
		if r.put {
			rows = l.baseRows
		} else {
			rows += r.added
		}
	}
	return gen, rows
}

// check verifies the acknowledgements themselves (generations strictly
// increase, each ack reports the expected row count) and then that the
// observed final state equals what the acks promised: a lost acked
// append shows as a row or generation mismatch.
func (l *writeLog) check(gen int64, rows int) error {
	var last int64
	expect := l.baseRows
	for i, r := range l.recs {
		if r.put {
			expect = l.baseRows
		} else {
			expect += r.added
		}
		if r.gen <= last {
			return fmt.Errorf("write %d acked generation %d, not after %d", i, r.gen, last)
		}
		if r.ackRows != expect {
			return fmt.Errorf("write %d acked %d rows, want %d", i, r.ackRows, expect)
		}
		last = r.gen
	}
	wantGen, wantRows := l.expected()
	if gen != wantGen || rows != wantRows {
		return fmt.Errorf("served model is at generation %d with %d rows, acked writes promise generation %d with %d rows", gen, rows, wantGen, wantRows)
	}
	return nil
}

// scanACV recomputes ACV(tail, {head}) by a plain scan of the table:
// per tail value combination, the count of its most frequent head
// value, summed and divided by the row count.
func scanACV(tb *table.Table, tail []int, head int) float64 {
	kk := tb.K()
	cells := kk
	for range tail {
		cells *= kk
	}
	counts := make([]int, cells)
	hc := tb.Column(head)
	for i := range tb.NumRows() {
		r := 0
		for _, a := range tail {
			r = r*kk + int(tb.At(i, a)-1)
		}
		counts[r*kk+int(hc[i]-1)]++
	}
	sum := 0
	for r := 0; r < cells; r += kk {
		best := 0
		for _, c := range counts[r : r+kk] {
			best = max(best, c)
		}
		sum += best
	}
	return float64(sum) / float64(tb.NumRows())
}

// checkEdgeWeights recomputes n evenly spaced edge weights of h.
func checkEdgeWeights(tb *table.Table, h *hypergraph.H, n int) error {
	edges := h.Edges()
	if len(edges) == 0 {
		return fmt.Errorf("model has no edges")
	}
	step := max(1, len(edges)/n)
	for i := 0; i < len(edges); i += step {
		e := edges[i]
		want := scanACV(tb, e.Tail, e.Head[0])
		if math.Abs(want-e.Weight) > 1e-12 {
			return fmt.Errorf("edge %v -> %v weight %v, table scan gives %v", e.Tail, e.Head, e.Weight, want)
		}
	}
	return nil
}

// checkDominator re-derives the covered set by set arithmetic: the
// dominator's members plus the head of every edge whose tail lies
// inside the dominator (Definition 4.1), and compares it with what the
// algorithm reported.
func checkDominator(h *hypergraph.H, res *cover.Result) error {
	in := make([]bool, h.NumVertices())
	for _, v := range res.DomSet {
		in[v] = true
	}
	covered := append([]bool(nil), in...)
	for _, e := range h.Edges() {
		inside := true
		for _, t := range e.Tail {
			inside = inside && in[t]
		}
		if inside {
			for _, v := range e.Head {
				covered[v] = true
			}
		}
	}
	n := 0
	for v, c := range covered {
		if c != res.Covered[v] {
			return fmt.Errorf("vertex %d: covered by set arithmetic %v, reported %v", v, c, res.Covered[v])
		}
		if c {
			n++
		}
	}
	if n != res.TargetCovered {
		return fmt.Errorf("dominator reports %d covered, set arithmetic gives %d", res.TargetCovered, n)
	}
	return nil
}

// checkItemsets recounts n evenly spaced frequent itemsets by a scan.
func checkItemsets(tb *table.Table, freq []apriori.Frequent, n int) error {
	if len(freq) == 0 {
		return fmt.Errorf("no frequent itemsets")
	}
	step := max(1, len(freq)/n)
	for i := 0; i < len(freq); i += step {
		f := freq[i]
		count := 0
		for r := range tb.NumRows() {
			all := true
			for _, it := range f.Items {
				all = all && tb.At(r, it.Attr) == it.Val
			}
			if all {
				count++
			}
		}
		if count != f.Count {
			return fmt.Errorf("itemset %v: count %d, table scan gives %d", f.Items, f.Count, count)
		}
	}
	return nil
}
