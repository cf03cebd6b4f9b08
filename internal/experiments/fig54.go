package experiments

import (
	"fmt"
	"io"

	"hypermine/internal/classify"
	"hypermine/internal/core"
)

// Fig54Point is one training-window measurement of Figure 5.4: the
// model is rebuilt on a growing in-sample window and evaluated on the
// following year.
type Fig54Point struct {
	TrainDays    int
	TestDays     int
	ABCInSample  float64
	ABCOutSample float64
}

// Fig54Report reproduces Figure 5.4(a)/(b): classification-confidence
// distribution over incrementally grown training windows, for the
// dominator produced by Algorithm 5 (a) and Algorithm 6 (b).
type Fig54Report struct {
	Config    string
	Algorithm DominatorAlgorithm
	YearDays  int
	Points    []Fig54Point
}

// RunFig54 grows the training window one "year" (yearDays trading
// days) at a time, mirrors §5.5.1: train on [0, y), test on the next
// year. The dominator is recomputed per window with the top-40%
// ACV-threshold, like the paper's 0.45 threshold choice.
func RunFig54(e *Env, alg DominatorAlgorithm, yearDays int) (*Fig54Report, error) {
	if yearDays <= 0 {
		yearDays = 250
	}
	cfg := core.C1()
	rep := &Fig54Report{Config: "C1", Algorithm: alg, YearDays: yearDays}
	days := e.U.Days()
	for trainEnd := 2 * yearDays; trainEnd+yearDays <= days; trainEnd += yearDays {
		trainU, err := e.U.Window(0, trainEnd)
		if err != nil {
			return nil, err
		}
		testU, err := e.U.Window(trainEnd, trainEnd+yearDays)
		if err != nil {
			return nil, err
		}
		trainTb, disc, err := trainU.BuildTable(cfg.K)
		if err != nil {
			return nil, err
		}
		testTb, err := disc.Apply(testU)
		if err != nil {
			return nil, err
		}
		model, err := core.Build(trainTb, cfg)
		if err != nil {
			return nil, err
		}
		_, res, err := dominatorFor(model.H, 0.40, alg)
		if err != nil {
			return nil, err
		}
		targets := res.Targets()
		pt := Fig54Point{TrainDays: trainTb.NumRows(), TestDays: testTb.NumRows()}
		if len(targets) > 0 && len(res.DomSet) > 0 {
			abc, err := classify.NewABC(model, res.DomSet, targets)
			if err != nil {
				return nil, err
			}
			inConf, err := abc.Evaluate(trainTb)
			if err != nil {
				return nil, err
			}
			outConf, err := abc.Evaluate(testTb)
			if err != nil {
				return nil, err
			}
			pt.ABCInSample = classify.MeanConfidence(inConf)
			pt.ABCOutSample = classify.MeanConfidence(outConf)
		}
		rep.Points = append(rep.Points, pt)
	}
	if len(rep.Points) == 0 {
		return nil, fmt.Errorf("experiments: universe too short for fig 5.4 (days=%d, yearDays=%d)", days, yearDays)
	}
	return rep, nil
}

// Render writes the per-window series.
func (r *Fig54Report) Render(w io.Writer) error {
	fmt.Fprintf(w, "== Figure 5.4 classification confidence by training window (%s, Algorithm %d) ==\n", r.Config, r.Algorithm)
	fmt.Fprintln(w, "train days | test days | ABC in-sample | ABC out-sample")
	for _, p := range r.Points {
		fmt.Fprintf(w, "%10d | %9d | %12.3f | %13.3f\n", p.TrainDays, p.TestDays, p.ABCInSample, p.ABCOutSample)
	}
	return nil
}
