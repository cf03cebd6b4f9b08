package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"time"
)

// minBeyond is the reporting rule for percentiles: a percentile is
// reported only when at least this many samples lie beyond it.
const minBeyond = 10

// percentile returns the q-quantile (0 < q < 1) of xs by nearest rank,
// and whether at least minBeyond samples lie beyond it. xs need not be
// sorted; it is not modified.
func percentile(xs []float64, q float64) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return sortedPercentile(s, q)
}

func sortedPercentile(s []float64, q float64) (float64, bool) {
	if len(s) == 0 {
		return 0, false
	}
	idx := int(math.Ceil(q*float64(len(s)))) - 1
	idx = max(0, min(idx, len(s)-1))
	return s[idx], len(s)-1-idx >= minBeyond
}

// tailQ returns the highest quantile, at most target and at least 0.5,
// that n samples can report under the minBeyond rule (two decimals).
func tailQ(n int, target float64) float64 {
	if n <= 0 {
		return 0.5
	}
	q := math.Floor(float64(n-minBeyond)/float64(n)*100) / 100
	return max(0.5, min(target, q))
}

// median is the 0.5 percentile without the reporting rule.
func median(xs []float64) float64 {
	v, _ := percentile(xs, 0.5)
	return v
}

func durMs(d time.Duration) float64 { return float64(d) / 1e6 }
func durUs(d time.Duration) float64 { return float64(d) / 1e3 }

// ladderStep is one fixed rate of the serve-read ladder.
type ladderStep struct {
	rate    float64 // offered requests per second
	p99     float64 // read p99, µs (valid only when p99ok)
	p99ok   bool    // enough samples beyond the p99
	failed  int     // failed or wrong reads
	backlog bool    // the generator ended the step further behind than the limit
}

// passes reports whether the step meets the latency limit: a valid p99
// within the limit, no failed reads, and no growing backlog.
func (s ladderStep) passes(limitUs float64) bool {
	return s.p99ok && s.p99 <= limitUs && s.failed == 0 && !s.backlog
}

// maxRate is read_max_qps: the highest ladder rate that passes, with
// every lower rate passing too (a lucky pass above a failure does not
// count). Steps must be in increasing rate order; 0 means none passed.
func maxRate(steps []ladderStep, limitUs float64) float64 {
	best := 0.0
	for _, s := range steps {
		if !s.passes(limitUs) {
			break
		}
		best = s.rate
	}
	return best
}

// rtSnap is a point-in-time read of the Go runtime's counters.
type rtSnap struct {
	mallocs    uint64
	totalAlloc uint64
	numGC      uint32
	pauseNs    uint64
	sched      *metrics.Float64Histogram
}

func readRT() rtSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: "/sched/latencies:seconds"}}
	metrics.Read(s)
	var h *metrics.Float64Histogram
	if s[0].Value.Kind() == metrics.KindFloat64Histogram {
		h = s[0].Value.Float64Histogram()
	}
	return rtSnap{mallocs: ms.Mallocs, totalAlloc: ms.TotalAlloc, numGC: ms.NumGC, pauseNs: ms.PauseTotalNs, sched: h}
}

// rtDelta is what the runtime did between two snapshots.
type rtDelta struct {
	allocs     float64
	allocBytes float64
	gcCycles   float64
	gcPauseMs  float64
	schedP99Us float64
}

func (a rtSnap) to(b rtSnap) rtDelta {
	d := rtDelta{
		allocs:     float64(b.mallocs - a.mallocs),
		allocBytes: float64(b.totalAlloc - a.totalAlloc),
		gcCycles:   float64(b.numGC - a.numGC),
		gcPauseMs:  float64(b.pauseNs-a.pauseNs) / 1e6,
	}
	if a.sched != nil && b.sched != nil && len(a.sched.Counts) == len(b.sched.Counts) {
		counts := make([]uint64, len(b.sched.Counts))
		var total uint64
		for i := range counts {
			counts[i] = b.sched.Counts[i] - a.sched.Counts[i]
			total += counts[i]
		}
		target := uint64(math.Ceil(0.99 * float64(total)))
		var run uint64
		for i, c := range counts {
			run += c
			if total > 0 && run >= target {
				// Upper bound of the bucket holding the 99th percentile.
				if ub := b.sched.Buckets[i+1]; !math.IsInf(ub, 1) {
					d.schedP99Us = ub * 1e6
				} else {
					d.schedP99Us = b.sched.Buckets[i] * 1e6
				}
				break
			}
		}
	}
	return d
}

// heapLiveMB forces a collection and returns the live heap in MiB.
func heapLiveMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// mallocs returns the cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}
