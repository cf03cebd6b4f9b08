package registry

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"
	"weak"

	"hypermine/internal/core"
	"hypermine/internal/engine"
	"hypermine/internal/table"
	"hypermine/internal/testutil"
)

// appendRows generates extra observations shaped like testModel's.
func appendRows(seed int64, nAttrs, n int) [][]table.Value {
	rng := rand.New(rand.NewSource(seed))
	rows := make([][]table.Value, n)
	for i := range rows {
		base := table.Value(1 + rng.Intn(3))
		rows[i] = make([]table.Value, nAttrs)
		for j := range rows[i] {
			if rng.Intn(3) == 0 {
				rows[i][j] = table.Value(1 + rng.Intn(3))
			} else {
				rows[i][j] = base
			}
		}
	}
	return rows
}

// sameModels compares two mined models bit for bit: edge sets,
// weights, and EdgeACV entries.
func sameModels(t *testing.T, got, want *core.Model) {
	t.Helper()
	if got.H.NumEdges() != want.H.NumEdges() {
		t.Fatalf("edges: got %d want %d", got.H.NumEdges(), want.H.NumEdges())
	}
	for _, e := range want.H.Edges() {
		idx, ok := got.H.Lookup(e.Tail, e.Head)
		if !ok {
			t.Fatalf("missing edge %v -> %v", e.Tail, e.Head)
		}
		ge := got.H.Edges()[idx]
		if math.Float64bits(ge.Weight) != math.Float64bits(e.Weight) {
			t.Fatalf("edge %v -> %v weight %v != %v", e.Tail, e.Head, ge.Weight, e.Weight)
		}
	}
}

// TestAppendPublishesNewGeneration: a real append bumps the
// generation, serves the concatenated rows, and the published model is
// bit-identical to a full re-mine of the concatenated table.
func TestAppendPublishesNewGeneration(t *testing.T) {
	m := testModel(t, 41, 10, 300)
	r := New(Options{})
	li, err := r.Load("m", m)
	if err != nil {
		t.Fatal(err)
	}
	rows := appendRows(42, 10, 30)
	info, err := r.AppendRows("m", rows)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Swapped {
		t.Fatal("real append did not swap")
	}
	if info.Generation <= li.Generation {
		t.Fatalf("generation did not advance: %d -> %d", li.Generation, info.Generation)
	}
	if info.Appended != len(rows) || info.Rows != m.Table.NumRows()+len(rows) {
		t.Fatalf("info rows: %+v", info)
	}

	sv := r.Acquire("m")
	if sv == nil {
		t.Fatal("model gone after append")
	}
	defer sv.Release()
	if sv.Generation() != info.Generation {
		t.Fatalf("serving generation %d, append reported %d", sv.Generation(), info.Generation)
	}
	nt, err := m.Table.AppendRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Build(nt, m.Config)
	if err != nil {
		t.Fatal(err)
	}
	sameModels(t, sv.Model(), want)

	st := r.Stats()
	if len(st.Models) != 1 || st.Models[0].Generation != info.Generation {
		t.Fatalf("stats generation: %+v", st.Models)
	}
}

// TestAppendNoOp: zero rows publish nothing — same generation, same
// engine, Swapped false.
func TestAppendNoOp(t *testing.T) {
	m := testModel(t, 43, 8, 200)
	r := New(Options{})
	li, err := r.Load("m", m)
	if err != nil {
		t.Fatal(err)
	}
	info, err := r.AppendRows("m", nil)
	if err != nil {
		t.Fatal(err)
	}
	if info.Swapped || info.Generation != li.Generation || info.Appended != 0 {
		t.Fatalf("no-op append published: %+v", info)
	}
}

// TestAppendUnknownModel pins ErrNotFound.
func TestAppendUnknownModel(t *testing.T) {
	r := New(Options{})
	if _, err := r.AppendRows("ghost", appendRows(1, 4, 2)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

// TestAppendReseedsAfterLoad: a hot swap between appends must reseed
// the live dataset from the newly served model, not keep extending the
// replaced one.
func TestAppendReseedsAfterLoad(t *testing.T) {
	m1 := testModel(t, 44, 8, 200)
	r := New(Options{})
	if _, err := r.Load("m", m1); err != nil {
		t.Fatal(err)
	}
	if _, err := r.AppendRows("m", appendRows(45, 8, 10)); err != nil {
		t.Fatal(err)
	}
	m2 := testModel(t, 46, 8, 250) // hot swap to an unrelated model
	if _, err := r.Load("m", m2); err != nil {
		t.Fatal(err)
	}
	rows := appendRows(47, 8, 15)
	info, err := r.AppendRows("m", rows)
	if err != nil {
		t.Fatal(err)
	}
	if want := m2.Table.NumRows() + len(rows); info.Rows != want {
		t.Fatalf("append extended the replaced model: rows %d, want %d", info.Rows, want)
	}
}

// TestLoadReleasesLiveDataset: a Load drops the live dataset of the
// model it replaces at once, instead of pinning that model, its rows,
// its extended index and its joint counts until the next append. The
// same holds for a replicated load at an explicit generation.
func TestLoadReleasesLiveDataset(t *testing.T) {
	for _, replicated := range []bool{false, true} {
		r := New(Options{})
		if _, err := r.Load("m", testModel(t, 51, 8, 200)); err != nil {
			t.Fatal(err)
		}
		info, err := r.AppendRows("m", appendRows(52, 8, 10))
		if err != nil {
			t.Fatal(err)
		}
		appended := weakServedModel(t, r, "m")
		m2 := testModel(t, 53, 8, 220)
		if replicated {
			_, err = r.LoadGenerationContext(context.Background(), "m", m2, info.Generation+1)
		} else {
			_, err = r.Load("m", m2)
		}
		if err != nil {
			t.Fatal(err)
		}
		for range 3 {
			runtime.GC()
		}
		if appended.Value() != nil {
			t.Fatalf("replicated=%v: the replaced model is still reachable after the load", replicated)
		}
		// The next append reseeds from the model now served.
		rows := appendRows(54, 8, 5)
		info, err = r.AppendRows("m", rows)
		if err != nil {
			t.Fatal(err)
		}
		if want := m2.Table.NumRows() + len(rows); info.Rows != want {
			t.Fatalf("replicated=%v: append after load has %d rows, want %d", replicated, info.Rows, want)
		}
	}
}

// weakServedModel returns a weak pointer to the model served as name.
func weakServedModel(t *testing.T, r *Registry, name string) weak.Pointer[core.Model] {
	t.Helper()
	sv := r.Acquire(name)
	if sv == nil {
		t.Fatalf("%s not served", name)
	}
	defer sv.Release()
	return weak.Make(sv.Model())
}

// raceContext runs race the first time an append asks whether it was
// canceled: a point inside the delta's preparation, before the publish.
type raceContext struct {
	context.Context
	once sync.Once
	race func()
}

func (c *raceContext) Err() error {
	c.once.Do(c.race)
	return c.Context.Err()
}

// TestAppendConflict: a Load that lands while the delta is being
// prepared wins; the append is abandoned with ErrConflict and the
// admin action's model keeps serving.
func TestAppendConflict(t *testing.T) {
	m := testModel(t, 48, 8, 200)
	r := New(Options{})
	if _, err := r.Load("m", m); err != nil {
		t.Fatal(err)
	}
	m2 := testModel(t, 49, 8, 220)
	raced := false
	ctx := &raceContext{Context: context.Background(), race: func() {
		if _, err := r.Load("m", m2); err != nil {
			t.Error(err)
		}
		raced = true
	}}
	_, err := r.AppendRowsContext(ctx, "m", appendRows(50, 8, 5))
	if !raced {
		t.Fatal("the append never checked its context")
	}
	if !errors.Is(err, ErrConflict) {
		t.Fatalf("err = %v, want ErrConflict", err)
	}
	sv := r.Acquire("m")
	if sv == nil {
		t.Fatal("model gone")
	}
	defer sv.Release()
	if sv.Model() != m2 {
		t.Fatal("conflicted append overwrote the newer Load")
	}
}

// TestConcurrentQueriesDuringAppend hammers one model with queries
// from several goroutines while appends republish it repeatedly. Every
// response must come from a coherent generation (the engine answers,
// no panics, no races — run under -race), old generations must drain,
// and no goroutines may leak.
func TestConcurrentQueriesDuringAppend(t *testing.T) {
	base := testutil.GoroutineBaseline()
	m := testModel(t, 51, 10, 300)
	r := New(Options{})
	if _, err := r.Load("m", m); err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				sv := r.Acquire("m")
				if sv == nil {
					t.Error("model vanished mid-run")
					return
				}
				var req engine.Request
				switch i % 3 {
				case 0:
					req.Rules = &engine.RulesRequest{Head: "A00", Top: 5}
				case 1:
					req.Similar = &engine.SimilarRequest{A: "A01", B: "A02"}
				default:
					req.Dominators = &engine.DominatorsRequest{}
				}
				if _, err := sv.Engine().Do(ctx, &req); err != nil {
					t.Errorf("query during append: %v", err)
					sv.Release()
					return
				}
				sv.Release()
			}
		}(w)
	}

	lastGen := int64(0)
	for step := 0; step < 6; step++ {
		info, err := r.AppendRows("m", appendRows(int64(52+step), 10, 10))
		if err != nil {
			t.Fatal(err)
		}
		if info.Generation <= lastGen {
			t.Fatalf("generation not monotonic: %d after %d", info.Generation, lastGen)
		}
		lastGen = info.Generation
	}
	close(stop)
	wg.Wait()
	testutil.CheckGoroutines(t.Fatalf, base, 0, 5*time.Second)
}
