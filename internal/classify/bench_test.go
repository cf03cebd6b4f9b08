package classify_test

import (
	"math/rand"
	"testing"

	"hypermine/internal/benchfix"
	"hypermine/internal/classify"
	"hypermine/internal/table"
)

// BenchmarkABCPredict measures one Algorithm 9 prediction through the
// one-shot compatibility entry point (allocates its scratch per call).
func BenchmarkABCPredict(b *testing.B) {
	abc, _ := benchfix.ABCWorkload(30, 1500)
	domVals := []table.Value{1, 2, 3, 1, 2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := abc.Predict(domVals, 5); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPredict measures one Algorithm 9 prediction through the
// scratch-reusing Predictor — the 0 allocs/op per-query path.
func BenchmarkPredict(b *testing.B) {
	abc, _ := benchfix.ABCWorkload(30, 1500)
	p := abc.NewPredictor()
	domVals := []table.Value{1, 2, 3, 1, 2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := p.Predict(domVals, 5); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPredictBatch measures batched classification of 256
// observations through one Predictor.
func BenchmarkPredictBatch(b *testing.B) {
	abc, tb := benchfix.ABCWorkload(30, 1500)
	p := abc.NewPredictor()
	nd := len(abc.Dominator())
	rows := 256
	flat := make([]table.Value, 0, rows*nd)
	for i := 0; i < rows; i++ {
		for _, a := range abc.Dominator() {
			flat = append(flat, tb.At(i, a))
		}
	}
	out := make([]table.Value, rows)
	conf := make([]float64, rows)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.PredictBatch(flat, 5, out, conf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkABCEvaluate measures a full-table evaluation pass at
// default (GOMAXPROCS) parallelism.
func BenchmarkABCEvaluate(b *testing.B) {
	abc, tb := benchfix.ABCWorkload(30, 1500)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := abc.Evaluate(tb); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkABCEvaluateSerial pins Evaluate to one worker, quantifying
// the row-striped speedup.
func BenchmarkABCEvaluateSerial(b *testing.B) {
	abc, tb := benchfix.ABCWorkload(30, 1500)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := abc.EvaluateParallel(tb, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func benchFitData(n int) ([][]float64, []int) {
	rng := rand.New(rand.NewSource(3))
	x := make([][]float64, n)
	y := make([]int, n)
	for i := range x {
		x[i] = make([]float64, 15)
		c := rng.Intn(3)
		x[i][c*5+rng.Intn(5)] = 1
		y[i] = c
	}
	return x, y
}

// BenchmarkFitClassifiers compares the baselines' training cost on the
// same one-hot workload.
func BenchmarkFitClassifiers(b *testing.B) {
	x, y := benchFitData(1000)
	for name, mk := range map[string]func() classify.Classifier{
		"perceptron": func() classify.Classifier { return &classify.Perceptron{} },
		"logistic":   func() classify.Classifier { return &classify.Logistic{} },
		"svm":        func() classify.Classifier { return &classify.SVM{} },
		"mlp":        func() classify.Classifier { return &classify.MLP{} },
		"regression": func() classify.Classifier { return &classify.LinearRegression{} },
		"tree":       func() classify.Classifier { return &classify.DecisionTree{} },
	} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := mk().Fit(x, y, 3); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkNewABC measures preparing the classifier (every association
// table of the ABCWorkload) — the work a rewarm redoes after an append.
func BenchmarkNewABC(b *testing.B) {
	m := benchfix.ModelWorkload(30, 1500)
	dom, targets := []int{0, 1, 2, 3, 4}, []int{5, 6, 7, 8, 9, 10}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := classify.NewABC(m, dom, targets); err != nil {
			b.Fatal(err)
		}
	}
}
