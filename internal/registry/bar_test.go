package registry

import (
	"context"
	"testing"

	"hypermine/internal/core"
	"hypermine/internal/testutil"
)

// TestAppendFasterThanReloadBar: the end-to-end 1-row republish
// (delta update, engine carry-over, generation swap) must beat the
// path it replaces, a full Build on the concatenated table plus Load,
// on a 12x1500 model. Both registries answer one rules query first, so
// every republish re-primes a live TID index exactly as an append
// against a serving model does.
func TestAppendFasterThanReloadBar(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("timing comparisons are not meaningful under the race detector")
	}
	ctx := context.Background()
	m := testModel(t, 41, 12, 1500)
	one := appendRows(42, 12, 1)
	nt, err := m.Table.AppendRows(one)
	if err != nil {
		t.Fatal(err)
	}
	serving := func() *Registry {
		r := New(Options{})
		if _, err := r.Load("m", m); err != nil {
			t.Fatal(err)
		}
		sv := r.Acquire("m")
		defer sv.Release()
		if _, err := sv.Engine().Rules(ctx, 0, core.MineOptions{MaxRules: 5}); err != nil {
			t.Fatal(err)
		}
		return r
	}
	full, inc := serving(), serving()
	// The first append seeds the dataset's joint counts once.
	if _, err := inc.AppendRows("m", one); err != nil {
		t.Fatal(err)
	}
	reloadNs, appendNs := testutil.BestOfPair(t,
		func() error {
			nm, err := core.BuildContext(ctx, nt, m.Config)
			if err == nil {
				_, err = full.Load("m", nm)
			}
			return err
		},
		func() error { _, err := inc.AppendRows("m", one); return err })
	t.Logf("1-row append-republish %.0f ns, build+reload %.0f ns -> %.2fx", appendNs, reloadNs, reloadNs/appendNs)
	if appendNs >= reloadNs {
		t.Errorf("append-republish (%.0f ns) is not faster than build+reload (%.0f ns)", appendNs, reloadNs)
	}
}
