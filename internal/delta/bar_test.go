package delta_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"hypermine/internal/core"
	"hypermine/internal/delta"
	"hypermine/internal/testutil"
)

// TestAppendFasterThanRemineBar: the subsystem's reason to exist. A
// steady-state 1- or 10-row append must beat core.BuildContext on the
// concatenated table it replaces, on a 12x1500 base. The dataset is
// primed with one append first, so the one-time count seeding of a
// fresh dataset is not in the timed side.
func TestAppendFasterThanRemineBar(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("timing comparisons are not meaningful under the race detector")
	}
	ctx := context.Background()
	rng := rand.New(rand.NewSource(9))
	const attrs, k = 12, 3
	m := fullRemine(t, attrNames(attrs), k, genRows(rng, 1500, attrs, k, 0.25, 0), core.Config{GammaEdge: 1.0, GammaPair: 1.0})
	for _, n := range []int{1, 10} {
		t.Run(fmt.Sprintf("rows=%d", n), func(t *testing.T) {
			batch := genRows(rng, n, attrs, k, 0.25, 0)
			nt, err := m.Table.AppendRows(batch)
			if err != nil {
				t.Fatal(err)
			}
			ds, err := delta.New(m, delta.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := ds.AppendRowsContext(ctx, batch); err != nil {
				t.Fatal(err)
			}
			fullNs, deltaNs := testutil.BestOfPair(t,
				func() error { _, err := core.BuildContext(ctx, nt, m.Config); return err },
				func() error { _, _, err := ds.AppendRowsContext(ctx, batch); return err })
			t.Logf("%d-row append %.0f ns, full re-mine %.0f ns -> %.2fx", n, deltaNs, fullNs, fullNs/deltaNs)
			if deltaNs >= fullNs {
				t.Errorf("%d-row delta append (%.0f ns) is not faster than the full re-mine (%.0f ns)", n, deltaNs, fullNs)
			}
		})
	}
}
