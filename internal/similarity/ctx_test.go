package similarity

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"hypermine/internal/runopt"
)

// TestBuildGraphContextBackgroundIdentical proves that progress hooks
// and the poll stride leave the graph bit-identical to the default
// build at every parallelism level when never canceled.
func TestBuildGraphContextBackgroundIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	h := randomSimGraph(t, rng, 25, 120)
	s := make([]int, h.NumVertices())
	for i := range s {
		s[i] = i
	}
	want, err := BuildGraphContext(context.Background(), h, s, GraphOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 2, 7} {
		got, err := BuildGraphContext(context.Background(), h, s, GraphOptions{
			Parallelism: par,
			Progress:    func(runopt.Phase, int, int) {},
			CheckEvery:  1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("parallelism %d: hooks changed the graph", par)
		}
	}
}

func TestBuildGraphContextCancel(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	h := randomSimGraph(t, rng, 30, 150)
	s := make([]int, h.NumVertices())
	for i := range s {
		s[i] = i
	}
	for _, par := range []int{1, 3} {
		// Pre-canceled.
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		g, err := BuildGraphContext(ctx, h, s, GraphOptions{Parallelism: par})
		if g != nil || !errors.Is(err, context.Canceled) {
			t.Fatalf("par %d pre-canceled: want (nil, Canceled), got (%v, %v)", par, g, err)
		}
		// Mid-flight: cancel after the first completed row; workers
		// observe it at the next row poll (stride 1 row).
		ctx2, cancel2 := context.WithCancel(context.Background())
		g, err = BuildGraphContext(ctx2, h, s, GraphOptions{
			Parallelism: par,
			Progress:    func(runopt.Phase, int, int) { cancel2() },
		})
		cancel2()
		if g != nil || !errors.Is(err, context.Canceled) {
			t.Fatalf("par %d mid-flight: want (nil, Canceled), got (%v, %v)", par, g, err)
		}
	}
}
