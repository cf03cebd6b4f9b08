package delta_test

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"hypermine/internal/core"
	"hypermine/internal/delta"
	"hypermine/internal/table"
)

// genRows draws n rows whose attributes correlate through a hidden
// state, with per-attribute noise; bias shifts the correlation so
// append schedules drift the distribution and cross admission
// thresholds in both directions.
func genRows(rng *rand.Rand, n, attrs, k int, noise float64, bias int) [][]table.Value {
	rows := make([][]table.Value, n)
	for i := range rows {
		hidden := rng.Intn(k)
		row := make([]table.Value, attrs)
		for j := range row {
			v := hidden
			if rng.Float64() < noise {
				v = rng.Intn(k)
			}
			if bias != 0 && j%2 == 1 {
				v = (v + bias) % k
			}
			row[j] = table.Value(1 + v)
		}
		rows[i] = row
	}
	return rows
}

// modelsEqual asserts bit-for-bit equality of two models: edge count,
// per-edge tail/head/weight (exact float bits), every edge's Lookup
// id, every vertex's out- and in-incidence list (which got must hold
// at exactly its size, as the assembly's degree count reserves it),
// and the full EdgeACV cache.
func modelsEqual(t *testing.T, got, want *core.Model) {
	t.Helper()
	if got.Table.NumRows() != want.Table.NumRows() {
		t.Fatalf("rows: got %d want %d", got.Table.NumRows(), want.Table.NumRows())
	}
	if g, w := got.H.NumEdges(), want.H.NumEdges(); g != w {
		t.Fatalf("edges: got %d want %d", g, w)
	}
	for i := 0; i < want.H.NumEdges(); i++ {
		ge, we := got.H.Edge(i), want.H.Edge(i)
		if len(ge.Tail) != len(we.Tail) || len(ge.Head) != len(we.Head) {
			t.Fatalf("edge %d shape: got %v->%v want %v->%v", i, ge.Tail, ge.Head, we.Tail, we.Head)
		}
		for j := range we.Tail {
			if ge.Tail[j] != we.Tail[j] {
				t.Fatalf("edge %d tail: got %v want %v", i, ge.Tail, we.Tail)
			}
		}
		for j := range we.Head {
			if ge.Head[j] != we.Head[j] {
				t.Fatalf("edge %d head: got %v want %v", i, ge.Head, we.Head)
			}
		}
		if math.Float64bits(ge.Weight) != math.Float64bits(we.Weight) {
			t.Fatalf("edge %d weight: got %x want %x (%.17g vs %.17g)",
				i, math.Float64bits(ge.Weight), math.Float64bits(we.Weight), ge.Weight, we.Weight)
		}
		if id, ok := got.H.Lookup(we.Tail, we.Head); !ok || id != i {
			t.Fatalf("edge %d %v->%v: Lookup = %d, %v", i, we.Tail, we.Head, id, ok)
		}
	}
	if g, w := got.H.NumVertices(), want.H.NumVertices(); g != w {
		t.Fatalf("vertices: got %d want %d", g, w)
	}
	for v := 0; v < want.H.NumVertices(); v++ {
		out, in := got.H.Out(v), got.H.In(v)
		if !slices.Equal(out, want.H.Out(v)) || !slices.Equal(in, want.H.In(v)) {
			t.Fatalf("vertex %d incidence: got out %v in %v, want out %v in %v", v, out, in, want.H.Out(v), want.H.In(v))
		}
		if cap(out) != len(out) || cap(in) != len(in) {
			t.Fatalf("vertex %d incidence not exactly reserved: out len %d cap %d, in len %d cap %d", v, len(out), cap(out), len(in), cap(in))
		}
	}
	if len(got.EdgeACV) != len(want.EdgeACV) {
		t.Fatalf("EdgeACV len: got %d want %d", len(got.EdgeACV), len(want.EdgeACV))
	}
	for i := range want.EdgeACV {
		if math.Float64bits(got.EdgeACV[i]) != math.Float64bits(want.EdgeACV[i]) {
			t.Fatalf("EdgeACV[%d]: got %.17g want %.17g", i, got.EdgeACV[i], want.EdgeACV[i])
		}
	}
}

// fullRemine builds the ground truth: core.Build on the concatenated
// table (fresh copy so no index state is shared with the dataset).
func fullRemine(t *testing.T, attrs []string, k int, all [][]table.Value, cfg core.Config) *core.Model {
	t.Helper()
	tb, err := table.FromRows(attrs, k, all)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.Build(tb, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// attrNames generates attribute names a0..a{n-1}.
func attrNames(n int) []string {
	names := make([]string, n)
	for j := range names {
		names[j] = "a" + string(rune('0'+j/10)) + string(rune('0'+j%10))
	}
	return names
}

// runSchedule is the differential harness: mine a base table, wrap it
// in a Dataset, run a randomized append schedule (drifting the
// distribution so admissions cross thresholds both ways), and after
// every step require delta.Apply ≡ core.Build on the concatenated
// table, bit for bit.
func runSchedule(t *testing.T, seed int64, attrs, k int, cfg core.Config, opts delta.Options, steps int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	names := attrNames(attrs)
	all := genRows(rng, 60+rng.Intn(120), attrs, k, 0.25, 0)
	base, err := table.FromRows(names, k, all)
	if err != nil {
		t.Fatal(err)
	}
	m0, err := core.Build(base, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := delta.New(m0, opts)
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < steps; step++ {
		// Drift hard every other step: high-noise anti-correlated
		// batches demote edges, clean correlated batches promote them.
		noise := 0.15
		bias := 0
		if step%2 == 1 {
			noise = 0.9
			bias = 1 + rng.Intn(k-1)
		}
		batch := genRows(rng, 1+rng.Intn(80), attrs, k, noise, bias)
		all = append(all, batch...)
		got, ch, err := ds.AppendRowsContext(context.Background(), batch)
		if err != nil {
			t.Fatal(err)
		}
		if ch.Appended != len(batch) {
			t.Fatalf("step %d: Changes.Appended=%d want %d", step, ch.Appended, len(batch))
		}
		modelsEqual(t, got, fullRemine(t, names, k, all, cfg))
	}
}

func TestDifferentialDefaultConfig(t *testing.T) {
	runSchedule(t, 1, 8, 3, core.C1(), delta.Options{}, 6)
}

func TestDifferentialC2(t *testing.T) {
	runSchedule(t, 2, 6, 5, core.C2(), delta.Options{}, 5)
}

func TestDifferentialEdgeSeeded(t *testing.T) {
	cfg := core.C1()
	cfg.Candidates = core.EdgeSeeded
	runSchedule(t, 3, 8, 3, cfg, delta.Options{}, 5)
}

func TestDifferentialMaxTailSize1(t *testing.T) {
	cfg := core.C1()
	cfg.MaxTailSize = 1
	runSchedule(t, 4, 9, 3, cfg, delta.Options{}, 5)
}

func TestDifferentialMaxTailSize3(t *testing.T) {
	cfg := core.C1()
	cfg.MaxTailSize = 3
	cfg.GammaTriple = 1.02
	runSchedule(t, 5, 6, 3, cfg, delta.Options{}, 4)
}

// TestDifferentialScalarKernels drives k past the bitset crossover
// (bitsMaxK = 8) so the ground-truth build uses the scalar reference
// kernels — the maintained counts must match those bit for bit too.
func TestDifferentialScalarKernels(t *testing.T) {
	cfg := core.Config{K: 9, GammaEdge: 1.1, GammaPair: 1.03}
	runSchedule(t, 6, 5, 9, cfg, delta.Options{}, 4)
}

// TestDifferentialFallback pins the over-memory-cap path: every apply
// is a full re-mine, and the result is still exactly the ground truth.
func TestDifferentialFallback(t *testing.T) {
	runSchedule(t, 7, 6, 3, core.C1(), delta.Options{MaxCountBytes: -1}, 3)
}

// TestThresholdCrossingsBothDirections pins, with crafted rows rather
// than random drift, that an append can demote a previously admitted
// edge and promote a previously rejected one, and the incremental
// model tracks both transitions exactly.
func TestThresholdCrossingsBothDirections(t *testing.T) {
	cfg := core.Config{K: 2, GammaEdge: 1.3, GammaPair: 1.05}
	names := []string{"x", "y", "z"}
	// Base: x and y perfectly correlated (edge x->y strong), z random.
	var base [][]table.Value
	for i := 0; i < 40; i++ {
		v := table.Value(1 + i%2)
		z := table.Value(1 + (i/2)%2)
		base = append(base, []table.Value{v, v, z})
	}
	tb, err := table.FromRows(names, 2, base)
	if err != nil {
		t.Fatal(err)
	}
	m0, err := core.Build(tb, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m0.H.Lookup([]int{0}, []int{1}); !ok {
		t.Fatal("precondition: edge x->y not admitted in base model")
	}
	if _, ok := m0.H.Lookup([]int{2}, []int{1}); ok {
		t.Fatal("precondition: edge z->y admitted in base model")
	}
	ds, err := delta.New(m0, delta.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Append: x independent of y (demotes x->y — note anti-correlation
	// would not, since a flipped value is still perfectly predictive),
	// z perfectly correlated with y (promotes z->y).
	var batch [][]table.Value
	for i := 0; i < 120; i++ {
		y := table.Value(1 + i%2)
		x := table.Value(1 + (i/2)%2)
		batch = append(batch, []table.Value{x, y, y})
	}
	all := append(append([][]table.Value{}, base...), batch...)
	got, _, err := ds.AppendRowsContext(context.Background(), batch)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := got.H.Lookup([]int{0}, []int{1}); ok {
		t.Fatal("edge x->y should have been demoted by the anti-correlated append")
	}
	if _, ok := got.H.Lookup([]int{2}, []int{1}); !ok {
		t.Fatal("edge z->y should have been promoted by the correlated append")
	}
	modelsEqual(t, got, fullRemine(t, names, 2, all, cfg))
}

// TestNoOpAppend pins that a zero-row append returns the previous
// model unchanged (same pointer) with Changes.Unchanged().
func TestNoOpAppend(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	tb, err := table.FromRows(attrNames(5), 3, genRows(rng, 50, 5, 3, 0.3, 0))
	if err != nil {
		t.Fatal(err)
	}
	m0, err := core.Build(tb, core.C1())
	if err != nil {
		t.Fatal(err)
	}
	ds, err := delta.New(m0, delta.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, ch, err := ds.AppendRowsContext(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got != m0 {
		t.Fatal("no-op append returned a different model")
	}
	if !ch.Unchanged() {
		t.Fatalf("no-op append reported changes: %+v", ch)
	}
}

// TestStructuralSharing pins that edges surviving an append share
// their vertex-id slices with the previous model's edges.
func TestStructuralSharing(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	tb, err := table.FromRows(attrNames(6), 3, genRows(rng, 200, 6, 3, 0.2, 0))
	if err != nil {
		t.Fatal(err)
	}
	m0, err := core.Build(tb, core.C1())
	if err != nil {
		t.Fatal(err)
	}
	if m0.H.NumEdges() == 0 {
		t.Fatal("precondition: base model has no edges")
	}
	ds, err := delta.New(m0, delta.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// A tiny low-drift append keeps the edge set stable.
	got, ch, err := ds.AppendRowsContext(context.Background(), genRows(rng, 3, 6, 3, 0.2, 0))
	if err != nil {
		t.Fatal(err)
	}
	if ch.SharedEdges == 0 {
		t.Fatalf("no structural sharing after a small append: %+v", ch)
	}
	shared := 0
	for i := 0; i < got.H.NumEdges(); i++ {
		e := got.H.Edge(i)
		if id, ok := m0.H.Lookup(e.Tail, e.Head); ok {
			old := m0.H.Edge(id)
			if &e.Tail[0] == &old.Tail[0] {
				shared++
			}
		}
	}
	if shared != ch.SharedEdges {
		t.Fatalf("slice-identity sharing %d != reported SharedEdges %d", shared, ch.SharedEdges)
	}
}

// TestAppendRawMatchesRows pins that the column-major raw path yields
// the same model as the row-major path.
func TestAppendRawMatchesRows(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	tb, err := table.FromRows(attrNames(5), 3, genRows(rng, 80, 5, 3, 0.3, 0))
	if err != nil {
		t.Fatal(err)
	}
	m0, err := core.Build(tb, core.C1())
	if err != nil {
		t.Fatal(err)
	}
	dsRows, err := delta.New(m0, delta.Options{})
	if err != nil {
		t.Fatal(err)
	}
	dsRaw, err := delta.New(m0, delta.Options{})
	if err != nil {
		t.Fatal(err)
	}
	batch := genRows(rng, 15, 5, 3, 0.6, 1)
	cols := make([][]byte, 5)
	for j := range cols {
		cols[j] = make([]byte, len(batch))
		for i, row := range batch {
			cols[j][i] = byte(row[j])
		}
	}
	byRows, _, err := dsRows.AppendRowsContext(context.Background(), batch)
	if err != nil {
		t.Fatal(err)
	}
	byRaw, _, err := dsRaw.AppendRawContext(context.Background(), cols)
	if err != nil {
		t.Fatal(err)
	}
	modelsEqual(t, byRaw, byRows)
}

// TestCanceledAppendLeavesDatasetIntact pins the rollback: a canceled
// apply must not move the dataset, and a later append must still be
// exactly right.
func TestCanceledAppendLeavesDatasetIntact(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	names := attrNames(5)
	all := genRows(rng, 60, 5, 3, 0.3, 0)
	tb, err := table.FromRows(names, 3, all)
	if err != nil {
		t.Fatal(err)
	}
	m0, err := core.Build(tb, core.C1())
	if err != nil {
		t.Fatal(err)
	}
	ds, err := delta.New(m0, delta.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := ds.AppendRowsContext(ctx, genRows(rng, 20, 5, 3, 0.5, 1)); err == nil {
		t.Fatal("canceled append succeeded")
	}
	if ds.Model() != m0 {
		t.Fatal("canceled append moved the dataset's model")
	}
	batch := genRows(rng, 10, 5, 3, 0.4, 0)
	all = append(all, batch...)
	got, _, err := ds.AppendRowsContext(context.Background(), batch)
	if err != nil {
		t.Fatal(err)
	}
	modelsEqual(t, got, fullRemine(t, names, 3, all, core.C1()))
}

// TestInvalidAppendRejected pins validation atomicity at the dataset
// level.
func TestInvalidAppendRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	tb, err := table.FromRows(attrNames(4), 3, genRows(rng, 30, 4, 3, 0.3, 0))
	if err != nil {
		t.Fatal(err)
	}
	m0, err := core.Build(tb, core.C1())
	if err != nil {
		t.Fatal(err)
	}
	ds, err := delta.New(m0, delta.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ds.AppendRowsContext(context.Background(), [][]table.Value{{1, 2, 3, 9}}); err == nil {
		t.Fatal("out-of-range value accepted")
	}
	if _, _, err := ds.AppendRowsContext(context.Background(), [][]table.Value{{1, 2}}); err == nil {
		t.Fatal("short row accepted")
	}
	if ds.Model() != m0 {
		t.Fatal("failed append moved the dataset's model")
	}
}
