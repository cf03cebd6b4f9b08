package cover

import (
	"fmt"
	"math/rand"
	"testing"

	"hypermine/internal/core"
	"hypermine/internal/table"
)

// plantedLeader builds a k=3 table of 2,000 rows whose truth comes from
// the generator, not the miner: attribute leader is uniform; each
// follower copies it with probability 0.8 and is otherwise uniform; the
// noise attributes are independent uniforms. It returns the table and
// the follower and noise indices.
func plantedLeader(t *testing.T, seed int64, leader int) (*table.Table, []int, []int) {
	t.Helper()
	const attrs, followers, rows = 10, 5, 2000
	names := make([]string, attrs)
	for j := range names {
		names[j] = fmt.Sprintf("X%d", j)
	}
	tb, err := table.New(names, 3)
	if err != nil {
		t.Fatal(err)
	}
	var follow, noise []int
	for j := 0; j < attrs; j++ {
		switch {
		case j == leader:
		case len(follow) < followers:
			follow = append(follow, j)
		default:
			noise = append(noise, j)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	row := make([]table.Value, attrs)
	for i := 0; i < rows; i++ {
		for j := range row {
			row[j] = table.Value(1 + rng.Intn(3))
		}
		for _, j := range follow {
			if rng.Float64() < 0.8 {
				row[j] = row[leader]
			}
		}
		if err := tb.AppendRow(row); err != nil {
			t.Fatal(err)
		}
	}
	return tb, follow, noise
}

// TestDominatorPlantedLeader: with S = the followers of a planted
// leader, Algorithm 5 must name exactly the leader, and Algorithm 6
// (both enhancements) must cover S without ever picking a noise
// attribute. Algorithm 6 is not held to {leader}: a follower in S
// covers itself and can tie with it.
func TestDominatorPlantedLeader(t *testing.T) {
	const leader = 3
	for seed := int64(1); seed <= 20; seed++ {
		tb, follow, noise := plantedLeader(t, seed, leader)
		for _, gamma := range []float64{1.0, 1.2} {
			m, err := core.Build(tb, core.Config{GammaEdge: gamma, GammaPair: gamma})
			if err != nil {
				t.Fatal(err)
			}
			ds, err := DominatorGreedyDS(m.H, follow, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if len(ds.DomSet) != 1 || ds.DomSet[0] != leader {
				t.Errorf("seed %d gamma %.1f: Algorithm 5 dominator %v, want [%d]", seed, gamma, ds.DomSet, leader)
			}
			sc, err := DominatorSetCover(m.H, follow, Options{Enhancement1: true, Enhancement2: true})
			if err != nil {
				t.Fatal(err)
			}
			if sc.TargetCovered != len(follow) {
				t.Errorf("seed %d gamma %.1f: Algorithm 6 covers %d of %d followers (dominator %v)",
					seed, gamma, sc.TargetCovered, len(follow), sc.DomSet)
			}
			for _, v := range sc.DomSet {
				for _, z := range noise {
					if v == z {
						t.Errorf("seed %d gamma %.1f: Algorithm 6 dominator %v contains noise attribute %d",
							seed, gamma, sc.DomSet, z)
					}
				}
			}
		}
	}
}
