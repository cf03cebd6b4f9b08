package registry

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// TestLoadGenerationContext pins the replication-publish contract:
// explicit generations publish verbatim, stale deliveries are skipped
// idempotently, and the local counter is raised past everything seen.
func TestLoadGenerationContext(t *testing.T) {
	ctx := context.Background()
	r := New(Options{})
	m := testModel(t, 1, 8, 200)

	// Publish under an explicit generation on a fresh name.
	info, err := r.LoadGenerationContext(ctx, "m", m, 7)
	if err != nil {
		t.Fatal(err)
	}
	if info.Stale || info.Generation != 7 || info.Swapped {
		t.Fatalf("fresh explicit publish: %+v", info)
	}
	s := r.Acquire("m")
	if s == nil || s.Generation() != 7 {
		t.Fatalf("served generation = %v, want 7", s)
	}
	s.Release()

	// A stale (equal) redelivery is skipped without publishing.
	info, err = r.LoadGenerationContext(ctx, "m", testModel(t, 2, 8, 200), 7)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Stale || info.Generation != 7 {
		t.Fatalf("equal-generation redelivery: %+v", info)
	}
	// ...and so is an older one.
	info, err = r.LoadGenerationContext(ctx, "m", testModel(t, 3, 8, 200), 3)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Stale || info.Generation != 7 {
		t.Fatalf("older-generation redelivery: %+v", info)
	}

	// A newer generation swaps the old one out.
	m2 := testModel(t, 4, 8, 220)
	info, err = r.LoadGenerationContext(ctx, "m", m2, 9)
	if err != nil {
		t.Fatal(err)
	}
	if info.Stale || info.Generation != 9 || !info.Swapped {
		t.Fatalf("newer-generation publish: %+v", info)
	}

	// The registry-wide counter was raised past 9: the next local load
	// must number strictly above every replicated generation.
	li, err := r.Load("other", testModel(t, 5, 8, 200))
	if err != nil {
		t.Fatal(err)
	}
	if li.Generation <= 9 {
		t.Fatalf("local load after replication at gen 9 got gen %d, want > 9", li.Generation)
	}

	// Explicit generations must be positive.
	if _, err := r.LoadGenerationContext(ctx, "m", m, 0); err == nil {
		t.Fatal("gen 0 accepted")
	}
}

// TestGenerationOrderUnderConcurrentWrites: concurrent Loads and
// appends on one name publish their generations in increasing order.
// A reader polling the name must never see its generation go back,
// and the generation served at the end must be the largest any write
// returned. Each round races fresh writers; an append that loses to a
// Load returns ErrConflict and is not counted.
func TestGenerationOrderUnderConcurrentWrites(t *testing.T) {
	const (
		loaders, loads = 4, 10
		appends        = 3
	)
	rounds := 150
	if testing.Short() {
		rounds = 30
	}
	m := testModel(t, 61, 8, 200)
	rows := appendRows(62, 8, 4)
	for round := 0; round < rounds; round++ {
		r := New(Options{})
		if _, err := r.Load("m", m); err != nil {
			t.Fatal(err)
		}
		var (
			wg         sync.WaitGroup
			maxGen     atomic.Int64
			stop       = make(chan struct{})
			backs      int // written by the reader, read once it is done
			readerDone = make(chan struct{})
		)
		record := func(gen int64) {
			for {
				cur := maxGen.Load()
				if gen <= cur || maxGen.CompareAndSwap(cur, gen) {
					return
				}
			}
		}
		go func() {
			defer close(readerDone)
			var last int64
			for {
				select {
				case <-stop:
					return
				default:
				}
				if s := r.Peek("m"); s != nil {
					if g := s.Generation(); g < last {
						backs++
					} else {
						last = g
					}
					s.Release()
				}
			}
		}()
		for w := 0; w < loaders; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < loads; i++ {
					info, err := r.Load("m", m)
					if err != nil {
						t.Error(err)
						return
					}
					record(info.Generation)
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < appends; i++ {
				info, err := r.AppendRows("m", rows)
				if errors.Is(err, ErrConflict) {
					continue
				}
				if err != nil {
					t.Error(err)
					return
				}
				record(info.Generation)
			}
		}()
		wg.Wait()
		close(stop)
		<-readerDone
		if backs > 0 {
			t.Fatalf("round %d: the reader saw the served generation go back %d times", round, backs)
		}
		s := r.Peek("m")
		if got, want := s.Generation(), maxGen.Load(); got != want {
			t.Fatalf("round %d: serving generation %d, but a write returned %d", round, got, want)
		}
		s.Release()
	}
}
