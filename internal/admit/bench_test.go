package admit

import (
	"context"
	"testing"

	"hypermine/internal/testutil"
)

func newBenchController() *Controller {
	return NewController(Config{
		TenantRate: 1e12, TenantBurst: 1e12,
		ModelRate: 1e12, ModelBurst: 1e12,
		CheapCapacity: 64, CheapQueue: 64,
		ExpensiveCapacity: 8, ExpensiveQueue: 16,
		BreakerFailures: 100,
	})
}

// BenchmarkTicket is the full admission round trip exactly as the
// serving path runs it — AdmitInto with a stack ticket, every
// mechanism active, nothing shedding.
func BenchmarkTicket(b *testing.B) {
	c := newBenchController()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var tk Ticket
		if admitted, rej, err := c.AdmitInto(ctx, &tk, "bench", "bench", Cheap); !admitted {
			b.Fatalf("rejected: %v %v", rej, err)
		}
		tk.Done(OutcomeOK)
	}
}

// TestTicketNoAlloc pins the admission round trip, with every
// mechanism active, at zero heap allocations: the serving path admits
// into a stack ticket on every query.
func TestTicketNoAlloc(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("alloc counts are not meaningful under the race detector")
	}
	c := newBenchController()
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		var tk Ticket
		if admitted, rej, err := c.AdmitInto(ctx, &tk, "bench", "bench", Cheap); !admitted {
			t.Fatalf("rejected: %v %v", rej, err)
		}
		tk.Done(OutcomeOK)
	})
	if allocs != 0 {
		t.Fatalf("AdmitInto+Done allocates %v per op, want 0", allocs)
	}
}
