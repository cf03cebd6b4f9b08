package apriori

import (
	"math/rand"
	"testing"

	"hypermine/internal/testutil"
)

// TestFrequentItemsetsAllocsIndependentOfCandidates pins the scratch
// candidate: a join candidate costs no allocation, and frequent
// itemsets are copied into one slab per level, so mining a table with
// many times the candidates of another, to the same depth, allocates
// within a small constant of it (list growth only).
func TestFrequentItemsetsAllocsIndependentOfCandidates(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("alloc counts unreliable under the race detector")
	}
	opt := Options{MinSupport: 0.2, MaxLen: 3}
	measure := func(nAttrs int) (itemsets int, allocs float64) {
		tb := randomTable(rand.New(rand.NewSource(4)), nAttrs, 2, 2000)
		freq, err := FrequentItemsets(tb, opt)
		if err != nil {
			t.Fatal(err)
		}
		return len(freq), testing.AllocsPerRun(10, func() {
			if _, err := FrequentItemsets(tb, opt); err != nil {
				t.Fatal(err)
			}
		})
	}
	few, fewAllocs := measure(8)
	many, manyAllocs := measure(24)
	t.Logf("%d itemsets: %v allocs; %d itemsets: %v allocs", few, fewAllocs, many, manyAllocs)
	if many < 8*few {
		t.Fatalf("fixtures differ only %d vs %d itemsets; the pin needs many more", few, many)
	}
	if manyAllocs > fewAllocs+aprioriAllocSlack {
		t.Errorf("%d more itemsets cost %v more allocations, want at most %d",
			many-few, manyAllocs-fewAllocs, aprioriAllocSlack)
	}
}

// aprioriAllocSlack bounds the growth steps of the level lists and
// scratch buffers that the larger fixture adds.
const aprioriAllocSlack = 24
