package core

import (
	"context"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"hypermine/internal/table"
	"hypermine/internal/testutil"
)

// TestSupportCountBitsMatchesScan: on an indexed table, SupportCount
// (bitset path) must agree with the scan fallback for random
// conjunctions of every length.
func TestSupportCountBitsMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		tb := randTable(t, rng, 2+rng.Intn(6), 2+rng.Intn(4), 50+rng.Intn(400))
		ix := tb.Index()
		for rep := 0; rep < 50; rep++ {
			nItems := 1 + rng.Intn(min(4, tb.NumAttrs()))
			attrs := rng.Perm(tb.NumAttrs())[:nItems]
			items := make([]Item, nItems)
			for i, a := range attrs {
				items[i] = Item{Attr: a, Val: table.Value(1 + rng.Intn(tb.K()))}
			}
			bits := supportCountBits(ix, items)
			scan := supportCountScan(tb, items)
			if bits != scan {
				t.Fatalf("trial %d: supportCountBits=%d supportCountScan=%d for %v", trial, bits, scan, items)
			}
			if got := SupportCount(tb, items); got != scan {
				t.Fatalf("trial %d: SupportCount=%d, want %d", trial, got, scan)
			}
		}
	}
}

// TestACVKernelsBitsMatchScalar: the pair cells and the 3-way counter
// must produce the very contingency counts the scalar reference kernels
// count row by row, cell for cell, and so bit-identical ACVs: the
// numerators are integer counts either way, so the final divisions are
// the same floating-point operations. It covers k = 1..8 (the gated
// range), row counts on both sides of a word boundary, and marginals
// that are zero: attribute 0 never takes its last value (a derived
// cell) and attribute 1 never its first (a popcounted one). The three
// head-choice ACVs stage 2 reads off each 3-way table must equal
// acvTail per candidate on both scorer paths, the scalar one also past
// the gate (k = 9, 10).
func TestACVKernelsBitsMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for k := 1; k <= bitsMaxK+2; k++ {
		for _, rows := range []int{1, 63, 64, 65, 30 + rng.Intn(400)} {
			tb := randTable(t, rng, 5, k, 0)
			row := make([]table.Value, tb.NumAttrs())
			for range rows {
				for j := range row {
					row[j] = table.Value(1 + rng.Intn(k))
				}
				if k > 1 {
					row[0] = table.Value(1 + rng.Intn(k-1))
					row[1] = table.Value(2 + rng.Intn(k-1))
				}
				if err := tb.AppendRow(row); err != nil {
					t.Fatal(err)
				}
			}
			if k <= bitsMaxK {
				checkACVKernels(t, tb)
			}
			checkTripleACVs(t, tb, "scalar", tableScorers(tb, nil, nil, nil)())
		}
	}
}

// checkACVKernels compares every edge and 2-to-1 table of tb counted by
// the bitmap kernels against the scalar ones.
func checkACVKernels(t *testing.T, tb *table.Table) {
	t.Helper()
	n, k, m := tb.NumAttrs(), tb.K(), tb.NumRows()
	ix := tb.Index()
	pc, err := CountPairCells(context.Background(), ix, Config{})
	if err != nil {
		t.Fatal(err)
	}
	cntE := make([]int32, k*k)
	cntP := make([]int32, k*k*k)
	cells := make([]int32, k*k*k)
	tailRow := make([]int32, m)
	for a := 0; a < n; a++ {
		for c := 0; c < n; c++ {
			if a == c {
				continue
			}
			scalar := acvEdge(tb.Column(a), tb.Column(c), k, cntE)
			cells, sa, sc := pc.view(a, c)
			for va := range k {
				for vc := range k {
					if got := cells[va*sa+vc*sc]; got != cntE[va*k+vc] {
						t.Fatalf("k=%d rows=%d: pair cell (%d=%d, %d=%d) = %d, want %d", k, m, a, va+1, c, vc+1, got, cntE[va*k+vc])
					}
				}
			}
			if bits := float64(pc.EdgeSum(a, c)) / float64(m); bits != scalar {
				t.Fatalf("k=%d rows=%d: acvEdge(%d,%d) scalar=%v bits=%v", k, m, a, c, scalar, bits)
			}
		}
	}
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			colA, colB := tb.Column(a), tb.Column(b)
			for i := range m {
				tailRow[i] = int32(colA[i]-1)*int32(k) + int32(colB[i]-1)
			}
			for c := 0; c < n; c++ {
				if c == a || c == b {
					continue
				}
				scalar := acvTail(tailRow, tb.Column(c), k, cntP)
				pc.Triple(ix, a, b, c, cells)
				for i, want := range cntP {
					if cells[i] != want {
						t.Fatalf("k=%d rows=%d: ({%d,%d},%d) cell (%d,%d,%d) = %d, want %d",
							k, m, a, b, c, i/(k*k)+1, i/k%k+1, i%k+1, cells[i], want)
					}
				}
				if bits := float64(sumOfMax(cells, k)) / float64(m); bits != scalar {
					t.Fatalf("k=%d rows=%d: acvPair({%d,%d},%d) scalar=%v bits=%v", k, m, a, b, c, scalar, bits)
				}
			}
		}
	}
	checkTripleACVs(t, tb, "bitmap", tableScorers(tb, ix, pc, nil)())
}

// checkTripleACVs compares the three ACVs s.Triple scores for every
// attribute triple a < b < c of tb against acvTail's count of each
// candidate: ({b,c},{a}), ({a,c},{b}) and ({a,b},{c}).
func checkTripleACVs(t *testing.T, tb *table.Table, path string, s Scorer) {
	t.Helper()
	n, k, m := tb.NumAttrs(), tb.K(), tb.NumRows()
	cnt := make([]int32, k*k*k)
	tailRow := make([]int32, m)
	scalar := func(x, y, z int) float64 {
		colX, colY := tb.Column(x), tb.Column(y)
		for i := range m {
			tailRow[i] = int32(colX[i]-1)*int32(k) + int32(colY[i]-1)
		}
		return acvTail(tailRow, tb.Column(z), k, cnt)
	}
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			for c := b + 1; c < n; c++ {
				got := s.Triple(a, b, c)
				want := [3]float64{scalar(b, c, a), scalar(a, c, b), scalar(a, b, c)}
				if got != want {
					t.Fatalf("%s k=%d rows=%d: triple (%d,%d,%d) ACVs %v, want %v", path, k, m, a, b, c, got, want)
				}
			}
		}
	}
}

// TestPairStageBar holds stage 2's bitmap scoring, which counts each
// attribute triple's 3-way table once ((k-1)^3 popcounted cells, the
// rest derived from the pair cells) and reads its three candidates'
// ACVs off it, at least 6x faster than fullPairStage, which popcounts
// all k^3 cells of every ({a,b},{c}) on its own, over a 50000x40,
// k = 3 table on one thread. Both must give the same ACVs in stage 2's
// (a, b, c) order.
func TestPairStageBar(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("timing ratios are not meaningful under the race detector")
	}
	tb := randTable(t, rand.New(rand.NewSource(24)), 40, 3, 50000)
	ix := tb.Index()
	pc, err := CountPairCells(context.Background(), ix, Config{})
	if err != nil {
		t.Fatal(err)
	}
	n := tb.NumAttrs()
	got := make([]float64, 0, n*(n-1)/2*(n-2))
	want := make([]float64, 0, cap(got))
	pairACV := make([]float64, n*(n-1)/2*n)
	pairStage := func() error {
		s := tableScorers(tb, ix, pc, nil)()
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				for c := b + 1; c < n; c++ {
					acv := s.Triple(a, b, c)
					pairACV[pairIndex(b, c, n)*n+a] = acv[0]
					pairACV[pairIndex(a, c, n)*n+b] = acv[1]
					pairACV[pairIndex(a, b, n)*n+c] = acv[2]
				}
			}
		}
		got = got[:0]
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				for c, acv := range pairACV[pairIndex(a, b, n)*n:][:n] {
					if c != a && c != b {
						got = append(got, acv)
					}
				}
			}
		}
		return nil
	}
	full := func() error { want = fullPairStage(ix, want[:0]); return nil }
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	kernelNs, fullNs := testutil.BestOfPair(t, pairStage, full)
	if !slices.Equal(got, want) {
		t.Fatal("stage-2 kernel ACVs differ from the full k^3 count")
	}
	ratio := fullNs / kernelNs
	t.Logf("%d 2-to-1 candidates: stage 2 %.1f ms, full k^3 count %.1f ms (%.1fx)", len(got), kernelNs/1e6, fullNs/1e6, ratio)
	if ratio < 6 {
		t.Errorf("stage 2 is %.1fx faster than the full k^3 count, want >= 6x", ratio)
	}
}

// fullPairStage is the 2-to-1 bitmap kernel as it was before cells
// were derived from marginals, kept as TestPairStageBar's reference:
// per tail pair it materializes all k^2 intersections, and per head
// it popcounts every one of the k^3 cells. It appends the ACV of
// every ({a,b},{c}) to out in stage 2's order.
func fullPairStage(ix *table.Index, out []float64) []float64 {
	n, k, w := ix.Attrs(), ix.K(), ix.Words()
	buf := make([]uint64, k*k*w)
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			for va := range k {
				for vb := range k {
					dst := buf[(va*k+vb)*w : (va*k+vb+1)*w]
					copy(dst, ix.Posting(a, table.Value(va+1)))
					table.AndInto(dst, ix.Posting(b, table.Value(vb+1)))
				}
			}
			for c := 0; c < n; c++ {
				if c == a || c == b {
					continue
				}
				sum := 0
				for slot := range k * k {
					best := 0
					for vc := range k {
						best = max(best, table.PopcountAnd(buf[slot*w:(slot+1)*w], ix.Posting(c, table.Value(vc+1))))
					}
					sum += best
				}
				out = append(out, float64(sum)/float64(ix.Rows()))
			}
		}
	}
	return out
}

// TestBuildBitsMatchesScalar: a full Build on the bitset kernels must
// be byte-identical — same EdgeACV cache, same admitted edges in the
// same order with the same weights — to the stage driver run with the
// scalar table scorer, across strategies and tail sizes.
func TestBuildBitsMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 8; trial++ {
		k := 2 + rng.Intn(4)
		tb := randTable(t, rng, 5+rng.Intn(4), k, 60+rng.Intn(300))
		for _, cfg := range []Config{
			{GammaEdge: 1.0, GammaPair: 1.0},
			{GammaEdge: 1.05, GammaPair: 1.02},
			{GammaEdge: 1.0, GammaPair: 1.0, Candidates: EdgeSeeded},
			{GammaEdge: 1.0, GammaPair: 1.0, MaxTailSize: 3},
		} {
			mBits, err := Build(tb, cfg)
			if err != nil {
				t.Fatal(err)
			}
			mScalar := buildScalar(t, tb, cfg)
			for i := range mScalar.EdgeACV {
				if mBits.EdgeACV[i] != mScalar.EdgeACV[i] {
					t.Fatalf("trial %d cfg %+v: EdgeACV[%d] bits=%v scalar=%v",
						trial, cfg, i, mBits.EdgeACV[i], mScalar.EdgeACV[i])
				}
			}
			eb, es := mBits.H.Edges(), mScalar.H.Edges()
			if len(eb) != len(es) {
				t.Fatalf("trial %d cfg %+v: %d edges with bits, %d with scalar", trial, cfg, len(eb), len(es))
			}
			for i := range eb {
				if !intsEqual(eb[i].Tail, es[i].Tail) || !intsEqual(eb[i].Head, es[i].Head) ||
					eb[i].Weight != es[i].Weight {
					t.Fatalf("trial %d cfg %+v: edge %d bits=%+v scalar=%+v", trial, cfg, i, eb[i], es[i])
				}
			}
		}
	}
}

// buildScalar mines tb through the stage driver with the scalar table
// scorer, whatever k is.
func buildScalar(t *testing.T, tb *table.Table, cfg Config) *Model {
	t.Helper()
	null := make([]float64, tb.NumAttrs())
	for c := range null {
		null[c] = NullACV(tb, c)
	}
	m, _, err := MineStages(context.Background(), tb, cfg, tableScorers(tb, nil, nil, null), nil)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func intsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func randTable(t testing.TB, rng *rand.Rand, nAttrs, k, rows int) *table.Table {
	t.Helper()
	attrs := make([]string, nAttrs)
	for j := range attrs {
		attrs[j] = "A" + string(rune('a'+j%26)) + string(rune('a'+j/26))
	}
	tb, err := table.New(attrs, k)
	if err != nil {
		t.Fatal(err)
	}
	row := make([]table.Value, nAttrs)
	for i := 0; i < rows; i++ {
		for j := range row {
			row[j] = table.Value(1 + rng.Intn(k))
		}
		if err := tb.AppendRow(row); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}
