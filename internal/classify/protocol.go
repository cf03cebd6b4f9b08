package classify

import (
	"context"
	"errors"
	"fmt"

	"hypermine/internal/core"
	"hypermine/internal/runopt"
	"hypermine/internal/table"
)

// PaperProtocolData builds a baseline training set exactly the way
// §5.5 prescribes: "Consider a directed hyperedge e in H such that
// e = ({A1,A2},{Y}) and A1,A2 in S. The training data set is built by
// using each row in AT(e) as a data point. Here, the particular value
// assignment A1=v1 and A2=v2 is the feature value, and the
// corresponding value y* of Y is the class value."
//
// Features are one-hot encodings over the dominator attributes (zeros
// for attributes outside the edge's tail); one data point per nonempty
// AT row per qualifying hyperedge. This is deliberately *weaker* than
// training on full observations — the paper's Weka numbers were
// produced this way, which is part of why its baselines trail the
// association-based classifier.
func PaperProtocolData(m *core.Model, dom []int, target int) (x [][]float64, y []int, err error) {
	if len(dom) == 0 {
		return nil, nil, errors.New("classify: empty dominator")
	}
	domPos := make(map[int]int, len(dom))
	for i, a := range dom {
		if a < 0 || a >= m.Table.NumAttrs() {
			return nil, nil, fmt.Errorf("classify: dominator attribute %d out of range", a)
		}
		domPos[a] = i
	}
	if target < 0 || target >= m.Table.NumAttrs() {
		return nil, nil, fmt.Errorf("classify: target %d out of range", target)
	}
	k := m.Table.K()
	for _, ei := range m.H.In(target) {
		e := m.H.Edge(int(ei))
		inDom := true
		for _, tv := range e.Tail {
			if _, ok := domPos[tv]; !ok {
				inDom = false
				break
			}
		}
		if !inDom {
			continue
		}
		at, err := core.BuildAssociationTable(m.Table, e.Tail, target)
		if err != nil {
			return nil, nil, err
		}
		vals := make([]table.Value, len(at.Tail))
		var walk func(depth, row int)
		walk = func(depth, row int) {
			if depth == len(at.Tail) {
				if at.Counts[row] == 0 {
					return
				}
				feat := make([]float64, len(dom)*k)
				for i, a := range at.Tail {
					feat[domPos[a]*k+int(vals[i]-1)] = 1
				}
				best, _ := at.Best(row)
				x = append(x, feat)
				y = append(y, int(best)-1)
				return
			}
			for v := 1; v <= k; v++ {
				vals[depth] = table.Value(v)
				walk(depth+1, row*k+(v-1))
			}
		}
		walk(0, 0)
	}
	if len(x) == 0 {
		return nil, nil, fmt.Errorf("classify: no qualifying hyperedges into target %d", target)
	}
	return x, y, nil
}

// EvaluateBaselinePaperProtocol fits a fresh classifier per target on
// the §5.5 AT-row training set and scores it on the test table's full
// observations, returning the mean accuracy across targets. Targets
// with no qualifying hyperedges are skipped; if none qualify an error
// is returned.
func EvaluateBaselinePaperProtocol(newC func() Classifier, m *core.Model, test *table.Table, dom, targets []int) (float64, error) {
	if len(targets) == 0 {
		return 0, errors.New("classify: no targets")
	}
	xTest, err := OneHotFeatures(test, dom)
	if err != nil {
		return 0, err
	}
	k := m.Table.K()
	var sum float64
	used := 0
	for _, target := range targets {
		xTrain, yTrain, err := PaperProtocolData(m, dom, target)
		if err != nil {
			continue // target without qualifying edges
		}
		yTest, err := Labels(test, target)
		if err != nil {
			return 0, err
		}
		c := newC()
		if err := c.Fit(xTrain, yTrain, k); err != nil {
			return 0, fmt.Errorf("classify: target %d: %w", target, err)
		}
		acc, err := Accuracy(c, xTest, yTest)
		if err != nil {
			return 0, err
		}
		sum += acc
		used++
	}
	if used == 0 {
		return 0, errors.New("classify: no target had qualifying hyperedges")
	}
	return sum / float64(used), nil
}

// KFoldIndices deterministically splits n observations into k
// contiguous folds and returns, per fold, the (train, test) row
// indexes. Contiguity matters for time series: shuffling day rows
// would leak look-ahead information.
func KFoldIndices(n, k int) ([][2][]int, error) {
	if k < 2 || k > n {
		return nil, fmt.Errorf("classify: k=%d folds for %d rows", k, n)
	}
	folds := make([][2][]int, k)
	for f := 0; f < k; f++ {
		lo := f * n / k
		hi := (f + 1) * n / k
		var train, test []int
		for i := 0; i < n; i++ {
			if i >= lo && i < hi {
				test = append(test, i)
			} else {
				train = append(train, i)
			}
		}
		folds[f] = [2][]int{train, test}
	}
	return folds, nil
}

// CrossValidateABC runs k-fold cross-validation of the association-
// based classifier on one table: per fold, the model is rebuilt on the
// training rows and evaluated on the held-out rows. Returns the mean
// classification confidence across folds.
func CrossValidateABC(tb *table.Table, cfg core.Config, dom, targets []int, k int) (float64, error) {
	return CrossValidateABCContext(context.Background(), tb, cfg, dom, targets, k)
}

// CrossValidateABCContext is CrossValidateABC under a context: the
// per-fold model build inherits ctx (and cfg.Run's progress/stride
// hooks), cancellation is additionally polled between folds, and
// ctx.Err() is returned promptly. cfg.Run.Progress, when set, also
// observes PhaseFolds (one unit per completed fold). Bit-identical to
// CrossValidateABC when never canceled.
func CrossValidateABCContext(ctx context.Context, tb *table.Table, cfg core.Config, dom, targets []int, k int) (float64, error) {
	folds, err := KFoldIndices(tb.NumRows(), k)
	if err != nil {
		return 0, err
	}
	prog := runopt.NewMeter(runopt.PhaseFolds, len(folds), cfg.Run.Func())
	var sum float64
	for _, fold := range folds {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		train, err := selectRows(tb, fold[0])
		if err != nil {
			return 0, err
		}
		test, err := selectRows(tb, fold[1])
		if err != nil {
			return 0, err
		}
		model, err := core.BuildContext(ctx, train, cfg)
		if err != nil {
			return 0, err
		}
		abc, err := NewABC(model, dom, targets)
		if err != nil {
			return 0, err
		}
		conf, err := abc.Evaluate(test)
		if err != nil {
			return 0, err
		}
		sum += MeanConfidence(conf)
		prog.Tick(1)
	}
	return sum / float64(len(folds)), nil
}

func selectRows(tb *table.Table, rows []int) (*table.Table, error) {
	out, err := table.NewOver(tb.Schema(), tb.K())
	if err != nil {
		return nil, err
	}
	buf := make([]table.Value, tb.NumAttrs())
	for _, i := range rows {
		if i < 0 || i >= tb.NumRows() {
			return nil, fmt.Errorf("classify: row %d out of range", i)
		}
		if err := out.AppendRow(tb.Row(i, buf)); err != nil {
			return nil, err
		}
	}
	return out, nil
}
