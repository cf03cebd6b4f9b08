package engine

import (
	"context"
	"errors"
	"testing"

	"hypermine/internal/core"
	"hypermine/internal/similarity"
	"hypermine/internal/testutil"
)

// warmBar fails unless a warm repeat query is at least 10x faster than
// the v1 free function that recomputes on every call: the memoization
// the engine exists for. warm runs once first to fill the cache.
func warmBar(t *testing.T, what string, v1, warm func() error) {
	t.Helper()
	if err := warm(); err != nil {
		t.Fatal(err)
	}
	v1Ns, warmNs := testutil.BestOfPair(t, v1, warm)
	sp := v1Ns / warmNs
	t.Logf("%s: v1 %.0f ns, warm %.0f ns -> %.0fx (bar >= 10x)", what, v1Ns, warmNs, sp)
	if sp < 10 {
		t.Errorf("%s is %.1fx faster than v1, want >= 10x", what, sp)
	}
}

// TestWarmRulesBar: warm Rules against the v1 re-mine (core.MineRules)
// on the head with the most incoming edges.
func TestWarmRulesBar(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("timing ratios are not meaningful under the race detector")
	}
	ctx := context.Background()
	m := testModel(t, 21, 12, 1500, 0)
	head := 0
	for h := 0; h < m.Table.NumAttrs(); h++ {
		if len(m.H.In(h)) > len(m.H.In(head)) {
			head = h
		}
	}
	opt := core.MineOptions{MaxRules: 10}
	e := newEngine(t, m, Options{})
	warmBar(t, "warm rules",
		func() error { _, err := core.MineRules(m, head, opt); return err },
		func() error { _, err := e.Rules(ctx, head, opt); return err })
}

// TestWarmSimilarBar: a warm top-10 similarity ranking against the v1
// repeat-caller path, which rebuilds the similarity graph per call.
func TestWarmSimilarBar(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("timing ratios are not meaningful under the race detector")
	}
	ctx := context.Background()
	m := testModel(t, 21, 12, 1500, 0)
	all := make([]int, m.H.NumVertices())
	for i := range all {
		all[i] = i
	}
	req := &Request{Similar: &SimilarRequest{A: m.H.VertexName(0), Top: 10}}
	e := newEngine(t, m, Options{})
	warmBar(t, "warm similar ranking",
		func() error {
			g, err := similarity.BuildGraphParallel(m.H, all, 1)
			if err == nil && g.Dist(0, 1) < 0 {
				err = errors.New("negative distance")
			}
			return err
		},
		func() error { _, err := e.Do(ctx, req); return err })
}
