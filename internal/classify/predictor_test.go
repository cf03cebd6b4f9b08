package classify

import (
	"math/rand"
	"testing"

	"hypermine/internal/core"
	"hypermine/internal/table"
	"hypermine/internal/testutil"
)

// randomABC builds a classifier with dominator {0, 1, 2} and targets
// {3, 4, 5} over randomModel.
func randomABC(t *testing.T, seed int64, k int, cfg core.Config, nAttrs, rows int) (*ABC, *table.Table) {
	t.Helper()
	m := randomModel(t, seed, k, cfg, nAttrs, rows)
	abc, err := NewABC(m, []int{0, 1, 2}, []int{3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	return abc, m.Table
}

// randomModel mines a noisy random table with the given cardinality
// and configuration.
func randomModel(t testing.TB, seed int64, k int, cfg core.Config, nAttrs, rows int) *core.Model {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	attrs := make([]string, nAttrs)
	for j := range attrs {
		attrs[j] = "A" + string(rune('a'+j%26)) + string(rune('0'+j/26))
	}
	tb, err := table.New(attrs, k)
	if err != nil {
		t.Fatal(err)
	}
	row := make([]table.Value, nAttrs)
	for i := 0; i < rows; i++ {
		base := table.Value(1 + rng.Intn(k))
		for j := range row {
			if rng.Intn(3) == 0 {
				row[j] = table.Value(1 + rng.Intn(k))
			} else {
				row[j] = base
			}
		}
		if err := tb.AppendRow(row); err != nil {
			t.Fatal(err)
		}
	}
	m, err := core.Build(tb, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestPredictorMatchesPredict runs the scratch-reusing Predictor
// against the one-shot ABC.Predict on every row/target combination,
// for both k=3 (C1-shaped) and k=5 (C2-shaped) tables.
func TestPredictorMatchesPredict(t *testing.T) {
	for _, tc := range []struct {
		name string
		k    int
		cfg  core.Config
	}{
		{"k3", 3, core.Config{GammaEdge: 1.0, GammaPair: 1.0}},
		{"k5-C2", 5, core.Config{K: 5, GammaEdge: 1.20, GammaPair: 1.12}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			abc, tb := randomABC(t, 21, tc.k, tc.cfg, 12, 600)
			p := abc.NewPredictor()
			domVals := make([]table.Value, len(abc.Dominator()))
			for i := 0; i < tb.NumRows(); i += 7 {
				for j, a := range abc.Dominator() {
					domVals[j] = tb.At(i, a)
				}
				for _, y := range abc.Targets() {
					v1, c1, err1 := abc.Predict(domVals, y)
					v2, c2, err2 := p.Predict(domVals, y)
					if err1 != nil || err2 != nil {
						t.Fatal(err1, err2)
					}
					if v1 != v2 || c1 != c2 {
						t.Fatalf("row %d target %d: Predictor (%d, %v) vs Predict (%d, %v)",
							i, y, v2, c2, v1, c1)
					}
				}
			}
		})
	}
}

// TestPredictorEdgeCases exercises the scratch path's error and
// fallback behavior.
func TestPredictorEdgeCases(t *testing.T) {
	abc, _ := randomABC(t, 22, 3, core.Config{GammaEdge: 1.0, GammaPair: 1.0}, 10, 400)
	p := abc.NewPredictor()
	if _, _, err := p.Predict([]table.Value{1}, 3); err == nil {
		t.Error("want error for wrong dominator-value length")
	}
	if _, _, err := p.Predict([]table.Value{1, 1, 1, 1}, 3); err == nil {
		t.Error("want error for overlong dominator values")
	}
	if _, _, err := p.Predict([]table.Value{1, 1, 1}, 0); err == nil {
		t.Error("want error for unconfigured target")
	}
	// A failed call must not poison the scratch for the next one.
	if _, _, err := p.Predict([]table.Value{1, 2, 3}, 3); err != nil {
		t.Errorf("predict after error: %v", err)
	}
}

// TestPredictorZeroContributionFallback drives the scratch path into
// the training-majority fallback: a target with no usable hyperedges
// must return the majority value with confidence 0.
func TestPredictorZeroContributionFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	tb, _ := table.New([]string{"A", "B", "Z"}, 2)
	for i := 0; i < 300; i++ {
		z := table.Value(1)
		if rng.Intn(10) == 0 {
			z = 2
		}
		_ = tb.AppendRow([]table.Value{table.Value(1 + rng.Intn(2)), table.Value(1 + rng.Intn(2)), z})
	}
	m, err := core.Build(tb, core.Config{GammaEdge: 1.2, GammaPair: 1.2})
	if err != nil {
		t.Fatal(err)
	}
	abc, err := NewABC(m, []int{0, 1}, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	if abc.EdgeCount(2) != 0 {
		t.Skip("edges survived gamma; fallback not exercised")
	}
	p := abc.NewPredictor()
	pred, conf, err := p.Predict([]table.Value{1, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if pred != 1 || conf != 0 {
		t.Errorf("fallback through Predictor = (%d, %v), want (1, 0)", pred, conf)
	}
}

// TestPredictBatch checks the batch API against per-row Predict, plus
// its shape validation.
func TestPredictBatch(t *testing.T) {
	abc, tb := randomABC(t, 24, 3, core.Config{GammaEdge: 1.0, GammaPair: 1.0}, 10, 500)
	nd := len(abc.Dominator())
	rows := 40
	flat := make([]table.Value, 0, rows*nd)
	for i := 0; i < rows; i++ {
		for _, a := range abc.Dominator() {
			flat = append(flat, tb.At(i, a))
		}
	}
	out, conf, err := abc.PredictBatch(flat, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		v, c, err := abc.Predict(flat[i*nd:(i+1)*nd], 3)
		if err != nil {
			t.Fatal(err)
		}
		if out[i] != v || conf[i] != c {
			t.Fatalf("batch row %d: (%d, %v) vs single (%d, %v)", i, out[i], conf[i], v, c)
		}
	}
	p := abc.NewPredictor()
	if err := p.PredictBatch(flat[:nd+1], 3, make([]table.Value, 1), nil); err == nil {
		t.Error("want error for ragged batch length")
	}
	if err := p.PredictBatch(flat, 3, make([]table.Value, rows-1), nil); err == nil {
		t.Error("want error for short out slice")
	}
	if err := p.PredictBatch(flat, 3, make([]table.Value, rows), make([]float64, 1)); err == nil {
		t.Error("want error for short conf slice")
	}
}

// TestEvaluateParallelDeterministic checks serial vs parallel Evaluate
// bit-identity on both k=3 and k=5 models.
func TestEvaluateParallelDeterministic(t *testing.T) {
	for _, tc := range []struct {
		name string
		k    int
		cfg  core.Config
	}{
		{"k3", 3, core.Config{GammaEdge: 1.0, GammaPair: 1.0}},
		{"k5-C2", 5, core.Config{K: 5, GammaEdge: 1.20, GammaPair: 1.12}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			abc, tb := randomABC(t, 25, tc.k, tc.cfg, 12, 700)
			serial, err := abc.EvaluateParallel(tb, 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, par := range []int{2, 4, 8, 1000} {
				got, err := abc.EvaluateParallel(tb, par)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(serial) {
					t.Fatalf("parallelism %d: %d targets, want %d", par, len(got), len(serial))
				}
				for y, v := range serial {
					if got[y] != v {
						t.Fatalf("parallelism %d: conf[%d] = %v, serial %v", par, y, got[y], v)
					}
				}
			}
			got, err := abc.Evaluate(tb)
			if err != nil {
				t.Fatal(err)
			}
			for y, v := range serial {
				if got[y] != v {
					t.Fatalf("Evaluate: conf[%d] = %v, serial %v", y, got[y], v)
				}
			}
		})
	}
}

// TestPredictorZeroAlloc pins the tentpole property: per-query
// classification through a Predictor makes no heap allocations.
func TestPredictorZeroAlloc(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("alloc counts unreliable under the race detector")
	}
	abc, _ := randomABC(t, 26, 3, core.Config{GammaEdge: 1.0, GammaPair: 1.0}, 10, 500)
	p := abc.NewPredictor()
	domVals := []table.Value{1, 2, 3}
	if n := testing.AllocsPerRun(200, func() {
		if _, _, err := p.Predict(domVals, 3); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Predictor.Predict allocates %v objects/op, want 0", n)
	}
	rows := 16
	flat := make([]table.Value, rows*3)
	for i := range flat {
		flat[i] = table.Value(1 + i%3)
	}
	out := make([]table.Value, rows)
	conf := make([]float64, rows)
	if n := testing.AllocsPerRun(100, func() {
		if err := p.PredictBatch(flat, 4, out, conf); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("PredictBatch allocates %v objects/op, want 0", n)
	}
}
