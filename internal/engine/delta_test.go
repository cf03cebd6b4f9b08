package engine

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"hypermine/internal/core"
	"hypermine/internal/table"
)

// appendedModel extends m's table by extra random rows (through the
// copy-on-write append, so the extended TID index rides along) and
// re-mines it with m's own config — the ground-truth next generation.
func appendedModel(t *testing.T, m *core.Model, seed int64, extra int) *core.Model {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := m.Table.NumAttrs()
	rows := make([][]table.Value, extra)
	for i := range rows {
		base := table.Value(1 + rng.Intn(3))
		rows[i] = make([]table.Value, n)
		for j := range rows[i] {
			if rng.Intn(3) == 0 {
				rows[i][j] = table.Value(1 + rng.Intn(3))
			} else {
				rows[i][j] = base
			}
		}
	}
	nt, err := m.Table.AppendRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	next, err := core.Build(nt, m.Config)
	if err != nil {
		t.Fatal(err)
	}
	return next
}

// answers snapshots one of every query kind; used to compare a
// carried-forward engine against a fresh one over the same model.
type answers struct {
	rules []core.ScoredRule
	sim   float64
	dom   DominatorsResponse
	cls   int
	conf  float64
}

func queryAll(t *testing.T, e *Engine) answers {
	t.Helper()
	ctx := context.Background()
	var a answers
	var err error
	if a.rules, err = e.Rules(ctx, 0, core.MineOptions{MaxRules: 8}); err != nil {
		t.Fatal(err)
	}
	g, err := e.SimilarityGraph(ctx)
	if err != nil {
		t.Fatal(err)
	}
	a.sim = g.Dist(0, 1)
	resp, err := e.Do(ctx, &Request{Dominators: &DominatorsRequest{}})
	if err != nil {
		t.Fatal(err)
	}
	a.dom = *resp.Dominators
	if len(a.dom.Targets) == 0 {
		t.Fatal("dominator covers no targets; classify would be unavailable")
	}
	values := make(map[string]int, len(a.dom.Dominator))
	for _, attr := range a.dom.Dominator {
		values[attr] = 2
	}
	cresp, err := e.Do(ctx, &Request{Classify: &ClassifyRequest{
		Target: a.dom.Targets[0],
		Values: values,
	}})
	if err != nil {
		t.Fatal(err)
	}
	a.cls = *cresp.Classify.Value
	a.conf = *cresp.Classify.Confidence
	return a
}

// TestNewFromPreviousPrimesIndex: after a real append the next
// generation's engine must start with the extended TID index already
// warm (zero index builds) and answer every query kind exactly like a
// fresh engine over the same model.
func TestNewFromPreviousPrimesIndex(t *testing.T) {
	ctx := context.Background()
	m := testModel(t, 31, 10, 300, 0)
	prev := newEngine(t, m, Options{})
	if err := prev.Warmup(ctx, WarmupAll); err != nil {
		t.Fatal(err)
	}
	next := appendedModel(t, m, 32, 40)
	if next.Table.IndexIfBuilt() == nil {
		t.Fatal("append did not carry the extended index")
	}

	e, err := NewFromPrevious(ctx, prev, next, 0)
	if err != nil {
		t.Fatal(err)
	}
	ix, ixErr := e.Index(ctx)
	if ixErr != nil {
		t.Fatal(ixErr)
	}
	if ix != next.Table.IndexIfBuilt() {
		t.Error("primed index is not the appended table's extended index")
	}
	if got := e.Stats().IndexBuilds; got != 0 {
		t.Errorf("IndexBuilds = %d after priming, want 0", got)
	}
	fresh := newEngine(t, next, Options{})
	if got, want := queryAll(t, e), queryAll(t, fresh); !reflect.DeepEqual(got, want) {
		t.Errorf("carried engine answers differ from fresh engine:\ngot  %+v\nwant %+v", got, want)
	}
	if got := e.Stats().IndexBuilds; got != 0 {
		t.Errorf("IndexBuilds = %d after queries, want 0 (primed)", got)
	}
}

// TestRewarmFromPrevious: the next engine is built with exactly the
// artifact set that was warm before the append, plus the warmup policy
// — a hot model stays hot (subsequent queries build nothing), a cold
// model stays cold (nothing is built), and a policy on a cold model
// builds what it selects and nothing more.
func TestRewarmFromPrevious(t *testing.T) {
	ctx := context.Background()
	m := testModel(t, 35, 10, 300, 0)
	next := appendedModel(t, m, 36, 25)

	t.Run("hot stays hot", func(t *testing.T) {
		prev := newEngine(t, m, Options{})
		if err := prev.Warmup(ctx, WarmupAll); err != nil {
			t.Fatal(err)
		}
		e, err := NewFromPrevious(ctx, prev, next, 0)
		if err != nil {
			t.Fatal(err)
		}
		before := e.Stats()
		queryAll(t, e)
		after := e.Stats()
		if before.IndexBuilds != after.IndexBuilds ||
			before.SimilarityBuilds != after.SimilarityBuilds ||
			before.DominatorBuilds != after.DominatorBuilds ||
			before.ClassifierBuilds != after.ClassifierBuilds {
			t.Errorf("queries built artifacts after rewarm: before %+v after %+v", before, after)
		}
	})

	t.Run("cold stays cold", func(t *testing.T) {
		prev := newEngine(t, m, Options{}) // never queried, nothing warm
		e, err := NewFromPrevious(ctx, prev, next, 0)
		if err != nil {
			t.Fatal(err)
		}
		st := e.Stats()
		if st.SimilarityBuilds+st.DominatorBuilds+st.ClassifierBuilds != 0 {
			t.Errorf("rewarm of a cold engine built artifacts: %+v", st)
		}
	})

	t.Run("policy adds to cold", func(t *testing.T) {
		prev := newEngine(t, m, Options{})
		e, err := NewFromPrevious(ctx, prev, next, WarmupSimilarity)
		if err != nil {
			t.Fatal(err)
		}
		st := e.Stats()
		if st.SimilarityBuilds != 1 || st.DominatorBuilds+st.ClassifierBuilds != 0 {
			t.Errorf("similarity policy on a cold engine: %+v, want one similarity build only", st)
		}
	})
}

// TestNewFromPreviousRequiresPrev pins the nil-prev error.
func TestNewFromPreviousRequiresPrev(t *testing.T) {
	m := testModel(t, 37, 6, 100, 0)
	if _, err := NewFromPrevious(context.Background(), nil, m, 0); err == nil {
		t.Fatal("NewFromPrevious(nil, ...) succeeded")
	}
}
