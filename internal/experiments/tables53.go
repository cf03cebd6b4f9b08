package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"

	"hypermine/internal/classify"
	"hypermine/internal/cover"
	"hypermine/internal/hypergraph"
)

// DominatorAlgorithm selects which greedy dominator computation a run
// uses: Algorithm 5 (graph dominating-set adaptation) or Algorithm 6
// (set-cover adaptation with Enhancements 1 and 2).
type DominatorAlgorithm int

// Dominator algorithm identifiers.
const (
	Alg5 DominatorAlgorithm = 5
	Alg6 DominatorAlgorithm = 6
)

// DomClassRow is one row of Table 5.3 / 5.4.
type DomClassRow struct {
	Config         string
	TopFrac        float64 // top fraction of hyperedges kept
	ACVThreshold   float64
	DominatorSize  int
	PercentCovered float64

	ABCInSample  float64
	ABCOutSample float64
	SVM          float64
	MLP          float64
	Logistic     float64

	// SVMPaper/LogisticPaper are the same baselines trained with the
	// paper's exact §5.5 protocol (AT rows as data points) instead of
	// full observations. Only populated when Params.PaperProtocol is
	// set — they are what the paper's Weka numbers correspond to.
	SVMPaper      float64
	LogisticPaper float64
}

// DomClassReport reproduces Table 5.3 (Algorithm 5) or Table 5.4
// (Algorithm 6): dominator sizes and mean classification confidences.
type DomClassReport struct {
	Algorithm DominatorAlgorithm
	Rows      []DomClassRow
}

// dominatorFor filters the hypergraph to the top fraction of edges by
// ACV and computes the dominator for all series.
func dominatorFor(h *hypergraph.H, frac float64, alg DominatorAlgorithm) (float64, *cover.Result, error) {
	th, err := h.TopFractionThreshold(frac)
	if err != nil {
		return 0, nil, err
	}
	filtered := h.FilterByWeight(th)
	all := make([]int, h.NumVertices())
	for i := range all {
		all[i] = i
	}
	var res *cover.Result
	switch alg {
	case Alg5:
		res, err = cover.DominatorGreedyDS(filtered, all, cover.Options{})
	case Alg6:
		res, err = cover.DominatorSetCover(filtered, all, cover.Options{Enhancement1: true, Enhancement2: true})
	default:
		return 0, nil, fmt.Errorf("experiments: unknown dominator algorithm %d", alg)
	}
	if err != nil {
		return 0, nil, err
	}
	return th, res, nil
}

// RunDomClass runs the full Table 5.3/5.4 protocol for one algorithm:
// for each configuration and each ACV-threshold choice (top 40%, 30%,
// 20% of hyperedges), compute the dominator, then measure mean
// classification confidence of the association-based classifier
// (in-sample and out-sample) and of the baseline classifiers
// (out-sample).
func RunDomClass(e *Env, alg DominatorAlgorithm) (*DomClassReport, error) {
	rep := &DomClassReport{Algorithm: alg}
	for _, name := range []string{"C1", "C2"} {
		b, err := e.Built(name)
		if err != nil {
			return nil, err
		}
		for _, frac := range []float64{0.40, 0.30, 0.20} {
			th, res, err := dominatorFor(b.Model.H, frac, alg)
			if err != nil {
				return nil, err
			}
			row := DomClassRow{
				Config:         name,
				TopFrac:        frac,
				ACVThreshold:   th,
				DominatorSize:  len(res.DomSet),
				PercentCovered: 100 * res.CoverageFraction(),
			}
			targets := res.Targets()
			if len(targets) > 0 && len(res.DomSet) > 0 {
				abc, err := classify.NewABC(b.Model, res.DomSet, targets)
				if err != nil {
					return nil, err
				}
				inConf, err := abc.Evaluate(b.InTable)
				if err != nil {
					return nil, err
				}
				outConf, err := abc.Evaluate(b.OutTable)
				if err != nil {
					return nil, err
				}
				row.ABCInSample = classify.MeanConfidence(inConf)
				row.ABCOutSample = classify.MeanConfidence(outConf)

				baseTargets := targets
				if cap := e.P.BaselineTargetCap; cap > 0 && len(baseTargets) > cap {
					baseTargets = baseTargets[:cap]
				}
				row.SVM, err = classify.EvaluateBaseline(func() classify.Classifier { return &classify.SVM{} },
					b.InTable, b.OutTable, res.DomSet, baseTargets)
				if err != nil {
					return nil, err
				}
				row.MLP, err = classify.EvaluateBaseline(func() classify.Classifier { return &classify.MLP{} },
					b.InTable, b.OutTable, res.DomSet, baseTargets)
				if err != nil {
					return nil, err
				}
				row.Logistic, err = classify.EvaluateBaseline(func() classify.Classifier { return &classify.Logistic{} },
					b.InTable, b.OutTable, res.DomSet, baseTargets)
				if err != nil {
					return nil, err
				}
				if e.P.PaperProtocol {
					row.SVMPaper, err = classify.EvaluateBaselinePaperProtocol(
						func() classify.Classifier { return &classify.SVM{} },
						b.Model, b.OutTable, res.DomSet, baseTargets)
					if err != nil {
						return nil, err
					}
					row.LogisticPaper, err = classify.EvaluateBaselinePaperProtocol(
						func() classify.Classifier { return &classify.Logistic{} },
						b.Model, b.OutTable, res.DomSet, baseTargets)
					if err != nil {
						return nil, err
					}
				}
			}
			rep.Rows = append(rep.Rows, row)
		}
	}
	return rep, nil
}

// RunTable53 regenerates Table 5.3 (Algorithm 5 dominators).
func RunTable53(e *Env) (*DomClassReport, error) { return RunDomClass(e, Alg5) }

// RunTable54 regenerates Table 5.4 (Algorithm 6 dominators).
func RunTable54(e *Env) (*DomClassReport, error) { return RunDomClass(e, Alg6) }

// Render writes the table in the paper's layout.
func (r *DomClassReport) Render(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "== Table 5.%d dominator + mean classification confidence (Algorithm %d) ==\n",
		map[DominatorAlgorithm]int{Alg5: 3, Alg6: 4}[r.Algorithm], r.Algorithm)
	paperCols := false
	for _, row := range r.Rows {
		if row.SVMPaper != 0 || row.LogisticPaper != 0 {
			paperCols = true
			break
		}
	}
	header := "config\ttop %\tACV-thr\tdom size\t% covered\tABC in\tABC out\tSVM\tMLP\tlogistic"
	if paperCols {
		header += "\tSVM(AT)\tlogistic(AT)"
	}
	fmt.Fprintln(tw, header)
	for _, row := range r.Rows {
		fmt.Fprintf(tw, "%s\t%.0f%%\t%.3f\t%d\t%.0f\t%.3f\t%.3f\t%.3f\t%.3f\t%.3f",
			row.Config, 100*row.TopFrac, row.ACVThreshold, row.DominatorSize, row.PercentCovered,
			row.ABCInSample, row.ABCOutSample, row.SVM, row.MLP, row.Logistic)
		if paperCols {
			fmt.Fprintf(tw, "\t%.3f\t%.3f", row.SVMPaper, row.LogisticPaper)
		}
		fmt.Fprintln(tw)
	}
	return tw.Flush()
}
