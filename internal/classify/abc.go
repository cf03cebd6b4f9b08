// Package classify implements the association-based classifier of
// §4.2 (Algorithm 9) and the baseline classifiers it is evaluated
// against in §5.5: perceptron (Algorithm 3), linear SVM, multilayer
// perceptron, and logistic regression — all from scratch on the
// standard library, substituting for the paper's Weka classifiers.
package classify

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"hypermine/internal/core"
	"hypermine/internal/table"
)

// abcEdge is one hyperedge relevant to a target: the precomputed
// positions of its tail attributes (all inside the dominator) in the
// dominator-value vector, and its association table built from the
// training data.
type abcEdge struct {
	tailPos []int32 // at.Tail[i]'s index into Dominator() order
	at      *core.AssociationTable
}

// ABC is the association-based classifier (Algorithm 9). Given the
// values of a dominator set S of attributes, it predicts the value of
// every target attribute by accumulating Supp x Conf contributions
// from all hyperedges whose tail lies inside S and whose head is the
// target.
type ABC struct {
	model    *core.Model
	dom      []int
	domPos   map[int]int // attribute id -> index into dom
	targets  []int
	edges    map[int][]abcEdge
	fallback map[int]table.Value // majority training value per target
	cells    int                 // int32 count cells across all association tables
}

// NewABC prepares the classifier: it indexes, per target, every
// hyperedge of the model with head {target} and tail inside dom, and
// prebuilds the association tables from the model's training table,
// all counted through one core.CountingIndex (the table's resident
// index, or postings built for this call and then dropped).
// A first pass sizes every table, so the tables, their tails, counts
// and tail positions, and the per-target edge lists are carved from
// one slab each instead of being allocated table by table.
func NewABC(m *core.Model, dom []int, targets []int) (*ABC, error) {
	if len(dom) == 0 {
		return nil, errors.New("classify: empty dominator")
	}
	if len(targets) == 0 {
		return nil, errors.New("classify: no targets")
	}
	if err := m.RequireRows(); err != nil {
		return nil, fmt.Errorf("classify: %w", err)
	}
	c := &ABC{
		model:    m,
		dom:      append([]int(nil), dom...),
		domPos:   make(map[int]int, len(dom)),
		targets:  append([]int(nil), targets...),
		edges:    make(map[int][]abcEdge, len(targets)),
		fallback: make(map[int]table.Value, len(targets)),
	}
	n, k := m.Table.NumAttrs(), m.Table.K()
	for i, a := range c.dom {
		if a < 0 || a >= n {
			return nil, fmt.Errorf("classify: dominator attribute %d out of range", a)
		}
		if _, dup := c.domPos[a]; dup {
			return nil, fmt.Errorf("classify: duplicate dominator attribute %d", a)
		}
		c.domPos[a] = i
	}
	inDom := make([]bool, n)
	for _, a := range c.dom {
		inDom[a] = true
	}
	usable := func(tail []int) bool {
		for _, a := range tail {
			if !inDom[a] {
				return false
			}
		}
		return true
	}
	// First pass: validate the targets and size the slabs.
	var ats, ids int
	for _, y := range c.targets {
		if y < 0 || y >= n {
			return nil, fmt.Errorf("classify: target attribute %d out of range", y)
		}
		if inDom[y] {
			return nil, fmt.Errorf("classify: target %d is inside the dominator", y)
		}
		for _, ei := range m.H.In(y) {
			tail := m.H.Edge(int(ei)).Tail
			if !usable(tail) {
				continue
			}
			if len(tail) > core.MaxTail {
				return nil, fmt.Errorf("classify: AT for edge into %d: tail size %d outside 1..%d", y, len(tail), core.MaxTail)
			}
			ats++
			ids += len(tail)
			c.cells += atRows(k, len(tail)) * (1 + k)
		}
	}
	// Second pass: carve each table's slices, every one capped at its
	// exact size, and fill it.
	atSlab := make([]core.AssociationTable, ats)
	edgeSlab := make([]abcEdge, ats)
	idSlab := make([]int, ids)
	posSlab := make([]int32, ids)
	cellSlab := make([]int32, c.cells)
	ix := core.CountingIndex(m.Table)
	next := 0
	for _, y := range c.targets {
		// Majority value fallback for targets with no usable edges.
		bestV, bestC := table.Value(1), -1
		for v, cnt := range m.Table.ValueCounts(y) {
			if cnt > bestC {
				bestC = cnt
				bestV = table.Value(v + 1)
			}
		}
		c.fallback[y] = bestV
		first := next
		for _, ei := range m.H.In(y) {
			tail := m.H.Edge(int(ei)).Tail
			if !usable(tail) {
				continue
			}
			t, rows := len(tail), atRows(k, len(tail))
			at := &atSlab[next]
			at.Tail, idSlab = idSlab[:t:t], idSlab[t:]
			at.Counts, cellSlab = cellSlab[:rows:rows], cellSlab[rows:]
			at.HeadCounts, cellSlab = cellSlab[:rows*k:rows*k], cellSlab[rows*k:]
			if err := at.FillFrom(m.Table, ix, tail, y); err != nil {
				return nil, fmt.Errorf("classify: AT for edge into %d: %w", y, err)
			}
			pos := posSlab[:t:t]
			posSlab = posSlab[t:]
			for i, a := range at.Tail {
				pos[i] = int32(c.domPos[a])
			}
			edgeSlab[next] = abcEdge{tailPos: pos, at: at}
			next++
		}
		// Configured even with zero edges.
		c.edges[y] = edgeSlab[first:next:next]
	}
	return c, nil
}

// atRows is the row count k^t of an association table with t tail
// attributes.
func atRows(k, t int) int {
	rows := 1
	for range t {
		rows *= k
	}
	return rows
}

// TableBytes returns the resident size of the classifier's association
// tables: their int32 support and head-value count cells.
func (c *ABC) TableBytes() int64 { return 4 * int64(c.cells) }

// Targets returns the configured target attributes.
func (c *ABC) Targets() []int { return append([]int(nil), c.targets...) }

// Dominator returns the dominator attributes in configured order.
func (c *ABC) Dominator() []int { return append([]int(nil), c.dom...) }

// EdgeCount returns the number of usable hyperedges for a target.
func (c *ABC) EdgeCount(target int) int { return len(c.edges[target]) }

// Predictor carries the reusable per-query scratch of Algorithm 9, so
// repeated predictions through one Predictor perform zero heap
// allocations. It is not safe for concurrent use: share the ABC across
// goroutines and give each its own Predictor (EvaluateParallel does
// exactly that).
type Predictor struct {
	c   *ABC
	val []float64
}

// NewPredictor returns a Predictor over this classifier.
func (c *ABC) NewPredictor() *Predictor {
	return &Predictor{c: c, val: make([]float64, c.model.Table.K())}
}

// Predict runs Algorithm 9 for one target: domVals holds the values of
// the dominator attributes in Dominator() order. It returns the best
// classified value y* and the normalized classification confidence
// val[y*] / sum(val). Targets with no contributing hyperedges fall
// back to the training-majority value with confidence 0.
//
//hyper:noalloc
func (p *Predictor) Predict(domVals []table.Value, target int) (table.Value, float64, error) {
	c := p.c
	if len(domVals) != len(c.dom) {
		return 0, 0, fmt.Errorf("classify: %d dominator values, want %d", len(domVals), len(c.dom))
	}
	edges, ok := c.edges[target]
	if !ok {
		return 0, 0, fmt.Errorf("classify: %d is not a configured target", target)
	}
	k := c.model.Table.K()
	val := p.val[:k]
	for i := range val {
		val[i] = 0
	}
	var tailVals [core.MaxTail]table.Value
	for ei := range edges {
		e := &edges[ei]
		tv := tailVals[:len(e.tailPos)]
		for i, pos := range e.tailPos {
			tv[i] = domVals[pos]
		}
		row, err := e.at.RowIndex(tv)
		if err != nil {
			return 0, 0, err
		}
		y, _ := e.at.Best(row)
		contrib := e.at.Support(row) * e.at.Confidence(row)
		if contrib > 0 {
			val[y-1] += contrib
		}
	}
	var total float64
	for _, v := range val {
		total += v
	}
	if total == 0 {
		return c.fallback[target], 0, nil
	}
	best, bestVal := 0, val[0]
	for y := 1; y < k; y++ {
		if val[y] > bestVal {
			best, bestVal = y, val[y]
		}
	}
	return table.Value(best + 1), bestVal / total, nil
}

// PredictBatch classifies many observations for one target. domVals is
// row-major, len(Dominator()) values per observation; out receives one
// predicted value per observation and must be sized len(domVals)/len(Dominator());
// conf may be nil, or sized like out to also receive confidences.
// Beyond the Predictor itself the batch performs no heap allocations.
func (p *Predictor) PredictBatch(domVals []table.Value, target int, out []table.Value, conf []float64) error {
	return p.PredictBatchContext(context.Background(), domVals, target, out, conf)
}

// batchCheckEvery is the row stride between context polls in
// PredictBatchContext: one prediction is a few microseconds, so 64
// rows bound cancellation latency well under a millisecond while
// keeping the poll cost far below 2% of the predict work.
const batchCheckEvery = 64

// PredictBatchContext is PredictBatch under a context: cancellation
// is polled every batchCheckEvery rows and ctx.Err() is returned
// promptly, leaving out/conf partially written. Bit-identical to
// PredictBatch when never canceled, and free of extra allocations
// either way.
func (p *Predictor) PredictBatchContext(ctx context.Context, domVals []table.Value, target int, out []table.Value, conf []float64) error {
	return p.predictBatch(ctx, domVals, target, out, conf)
}

// predictBatch is the shared batch loop; a nil ctx (the v1 path)
// skips cancellation polling entirely.
//
//hyper:noalloc
func (p *Predictor) predictBatch(ctx context.Context, domVals []table.Value, target int, out []table.Value, conf []float64) error {
	nd := len(p.c.dom)
	if len(domVals)%nd != 0 {
		return fmt.Errorf("classify: %d batch values not a multiple of %d dominator attributes", len(domVals), nd)
	}
	rows := len(domVals) / nd
	if len(out) != rows {
		return fmt.Errorf("classify: out has %d slots for %d observations", len(out), rows)
	}
	if conf != nil && len(conf) != rows {
		return fmt.Errorf("classify: conf has %d slots for %d observations", len(conf), rows)
	}
	for i := 0; i < rows; i++ {
		if ctx != nil && i%batchCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		v, cf, err := p.Predict(domVals[i*nd:(i+1)*nd], target)
		if err != nil {
			return err
		}
		out[i] = v
		if conf != nil {
			conf[i] = cf
		}
	}
	return nil
}

// Predict is the one-shot form of Predictor.Predict, kept for callers
// without a hot loop; it allocates one scratch per call.
func (c *ABC) Predict(domVals []table.Value, target int) (table.Value, float64, error) {
	return c.NewPredictor().Predict(domVals, target)
}

// PredictBatch is the one-shot form of Predictor.PredictBatch,
// allocating the result slices.
func (c *ABC) PredictBatch(domVals []table.Value, target int) ([]table.Value, []float64, error) {
	nd := len(c.dom)
	if nd == 0 || len(domVals)%nd != 0 {
		return nil, nil, fmt.Errorf("classify: %d batch values not a multiple of %d dominator attributes", len(domVals), nd)
	}
	rows := len(domVals) / nd
	out := make([]table.Value, rows)
	conf := make([]float64, rows)
	if err := c.NewPredictor().PredictBatch(domVals, target, out, conf); err != nil {
		return nil, nil, err
	}
	return out, conf, nil
}

// Evaluate classifies every observation of tb for every target and
// returns, per target, the classification confidence of §5.5: the
// fraction of observations where the predicted value matches the
// actual one. tb must share the training table's schema. Rows are
// evaluated by GOMAXPROCS workers; use EvaluateParallel to pick the
// worker count explicitly.
func (c *ABC) Evaluate(tb *table.Table) (map[int]float64, error) {
	return c.EvaluateParallel(tb, 0)
}

// EvaluateParallel is Evaluate with an explicit parallelism bound (0
// means GOMAXPROCS, matching core.Config.Parallelism). Workers stripe
// the rows, each with its own Predictor; per-target match counts are
// integers, so the result is bit-identical at every parallelism level.
func (c *ABC) EvaluateParallel(tb *table.Table, parallelism int) (map[int]float64, error) {
	if tb.K() != c.model.Table.K() {
		return nil, fmt.Errorf("classify: evaluation table k=%d, want %d", tb.K(), c.model.Table.K())
	}
	if tb.NumAttrs() != c.model.Table.NumAttrs() {
		return nil, fmt.Errorf("classify: evaluation table has %d attributes, want %d", tb.NumAttrs(), c.model.Table.NumAttrs())
	}
	rows := tb.NumRows()
	if rows == 0 {
		return nil, errors.New("classify: empty evaluation table")
	}
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	if parallelism > rows {
		parallelism = rows
	}
	counts := make([][]int, parallelism) // worker -> per-target matches
	errRows := make([]int, parallelism)  // first failing row per worker, or -1
	errs := make([]error, parallelism)
	var wg sync.WaitGroup
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := c.NewPredictor()
			domVals := make([]table.Value, len(c.dom))
			local := make([]int, len(c.targets))
			counts[w], errRows[w] = local, -1
			for i := w; i < rows; i += parallelism {
				for j, a := range c.dom {
					domVals[j] = tb.At(i, a)
				}
				for ti, y := range c.targets {
					pred, _, err := p.Predict(domVals, y)
					if err != nil {
						errRows[w], errs[w] = i, err
						return
					}
					if pred == tb.At(i, y) {
						local[ti]++
					}
				}
			}
		}(w)
	}
	wg.Wait()
	// Surface the error of the smallest failing row, matching what a
	// serial scan would have reported first.
	firstRow, firstErr := -1, error(nil)
	for w := 0; w < parallelism; w++ {
		if errs[w] != nil && (firstRow < 0 || errRows[w] < firstRow) {
			firstRow, firstErr = errRows[w], errs[w]
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	out := make(map[int]float64, len(c.targets))
	for ti, y := range c.targets {
		total := 0
		for w := 0; w < parallelism; w++ {
			total += counts[w][ti]
		}
		out[y] = float64(total) / float64(rows)
	}
	return out, nil
}

// MeanConfidence averages a per-target confidence map (the "mean
// classification confidence" column of Tables 5.3/5.4).
func MeanConfidence(conf map[int]float64) float64 {
	if len(conf) == 0 {
		return 0
	}
	keys := make([]int, 0, len(conf))
	for k := range conf {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	var sum float64
	for _, k := range keys {
		sum += conf[k]
	}
	return sum / float64(len(conf))
}
