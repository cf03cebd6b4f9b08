package registry

import (
	"context"
	"slices"
	"testing"
	"time"

	"hypermine/internal/core"
	"hypermine/internal/engine"
)

// TestPublishContract holds the five registry writes to one contract.
// For each write:
//   - the generation it replaces or removes is drained before it
//     returns: a reader holding that generation blocks the write until
//     it releases;
//   - a write that publishes evicts other models over MaxResidentEdges
//     in LRU order, and OnEvict sees each victim with its generation; a
//     remove evicts nothing;
//   - the Stats swaps counter moves for a publish over a served model
//     only, and the evictions counter by the victims;
//   - LoadHook fires for the two loads only.
func TestPublishContract(t *testing.T) {
	ctx := context.Background()
	a := testModel(t, 71, 10, 300)
	b := testModel(t, 72, 10, 300)
	m := testModel(t, 73, 10, 300)
	rows := appendRows(74, 10, 20)

	type result struct {
		gen     int64 // the generation published; 0 for a remove
		evicted []string
	}
	writes := []struct {
		name         string
		load, remove bool
		do           func(r *Registry, old int64) (result, error)
	}{
		{"Load", true, false, func(r *Registry, _ int64) (result, error) {
			info, err := r.Load("m", m)
			if err != nil {
				return result{}, err
			}
			return result{info.Generation, info.Evicted}, nil
		}},
		{"LoadGenerationContext", true, false, func(r *Registry, old int64) (result, error) {
			info, err := r.LoadGenerationContext(ctx, "m", m, old+5)
			if err != nil {
				return result{}, err
			}
			if info.Stale || info.Generation != old+5 {
				t.Errorf("replicated load at %d: %+v", old+5, info)
			}
			return result{info.Generation, info.Evicted}, nil
		}},
		{"AppendRows", false, false, func(r *Registry, _ int64) (result, error) {
			info, err := r.AppendRows("m", rows)
			if err != nil {
				return result{}, err
			}
			return result{info.Generation, info.Evicted}, nil
		}},
		{"Remove", false, true, func(r *Registry, _ int64) (result, error) {
			if !r.Remove("m") {
				t.Error("Remove reported the model absent")
			}
			return result{}, nil
		}},
		{"RemoveGeneration", false, true, func(r *Registry, old int64) (result, error) {
			if !r.RemoveGeneration("m", old) {
				t.Error("RemoveGeneration at the served generation removed nothing")
			}
			return result{}, nil
		}},
	}

	// The three lazy models fit under the bound; once a and b are warm,
	// m plus the two of them exceed it by half the warm-up growth, which
	// leaves room for an append to change m's own cost.
	warmCost := func(x *core.Model) int64 {
		eng, err := engine.New(x, engine.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Warmup(ctx, engine.WarmupAll); err != nil {
			t.Fatal(err)
		}
		return eng.ResidentCost()
	}
	wa, wb := warmCost(a), warmCost(b)
	growth := wa + wb - int64(a.H.NumEdges()+b.H.NumEdges())
	bound := int(int64(m.H.NumEdges()) + wa + wb - growth/2)

	for _, w := range writes {
		t.Run(w.name, func(t *testing.T) {
			hookCalls := 0
			r := New(Options{MaxResidentEdges: bound, LoadHook: func(string, error) { hookCalls++ }})
			type victim struct {
				name string
				gen  int64
			}
			var seen []victim
			r.OnEvict(func(name string, gen int64) { seen = append(seen, victim{name, gen}) })
			for _, l := range []struct {
				name string
				m    *core.Model
			}{{"m", m}, {"a", a}, {"b", b}} {
				if _, err := r.Load(l.name, l.m); err != nil {
					t.Fatal(err)
				}
			}
			// Warm a, then b: LRU order is now m (kept), a, b.
			var lru []victim
			cost := map[string]int64{}
			for _, name := range []string{"a", "b"} {
				s := r.Acquire(name)
				if err := s.Engine().Warmup(ctx, engine.WarmupAll); err != nil {
					t.Fatal(err)
				}
				lru = append(lru, victim{name, s.Generation()})
				cost[name] = s.Engine().ResidentCost()
				s.Release()
			}
			if got := r.Names(); !slices.Equal(got, []string{"a", "b", "m"}) {
				t.Fatalf("setup evicted: resident %v", got)
			}
			hookCalls = 0
			before := r.Stats()

			// Hold the served generation across the write.
			held := r.Peek("m")
			old := held.Generation()
			var res result
			var err error
			done := make(chan struct{})
			go func() {
				defer close(done)
				res, err = w.do(r, old)
			}()
			for deadline := time.Now().Add(10 * time.Second); ; {
				s := r.Peek("m")
				if s == nil || s.Generation() != old {
					if s != nil {
						s.Release()
					}
					break
				}
				s.Release()
				if time.Now().After(deadline) {
					t.Fatal("the write never swapped the served generation")
				}
				time.Sleep(time.Millisecond)
			}
			time.Sleep(20 * time.Millisecond)
			select {
			case <-done:
				t.Fatal("the write returned while a reader still held the generation it replaced")
			default:
			}
			held.Release()
			<-done
			if err != nil {
				t.Fatal(err)
			}
			if !held.retired.Load() || held.refs.Load() != 0 {
				t.Fatal("the replaced generation was not drained")
			}

			after := r.Stats()
			var want []victim
			if !w.remove {
				s := r.Peek("m")
				if s == nil || s.Generation() != res.gen || res.gen <= old {
					t.Fatalf("served %v after publishing generation %d over %d", s, res.gen, old)
				}
				// The reference LRU: evict a, then b, until the bound holds.
				total := s.Engine().ResidentCost() + cost["a"] + cost["b"]
				s.Release()
				for _, v := range lru {
					if total <= int64(bound) {
						break
					}
					want = append(want, v)
					total -= cost[v.name]
				}
				if len(want) == 0 {
					t.Fatalf("fixture: the write evicted nothing (bound %d, total %d)", bound, total)
				}
				if after.Swaps != before.Swaps+1 {
					t.Errorf("swaps %d -> %d, want +1", before.Swaps, after.Swaps)
				}
			} else {
				if s := r.Peek("m"); s != nil {
					s.Release()
					t.Fatal("m still served after a remove")
				}
				if after.Swaps != before.Swaps {
					t.Errorf("a remove moved swaps %d -> %d", before.Swaps, after.Swaps)
				}
			}
			if !slices.Equal(seen, want) {
				t.Errorf("OnEvict saw %v, want %v", seen, want)
			}
			names := make([]string, len(want))
			for i, v := range want {
				names[i] = v.name
			}
			if !slices.Equal(res.evicted, names) {
				t.Errorf("evicted %v, want %v", res.evicted, names)
			}
			if after.Evictions != before.Evictions+int64(len(want)) {
				t.Errorf("evictions %d -> %d, want +%d", before.Evictions, after.Evictions, len(want))
			}
			if w.load != (hookCalls == 1) || hookCalls > 1 {
				t.Errorf("LoadHook fired %d times", hookCalls)
			}
		})
	}
}
