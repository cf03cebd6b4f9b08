package core

import (
	"math/rand"
	"testing"

	"hypermine/internal/table"
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

// TestACVKernelsBitsMatchScalar: the bitmap edge/pair kernels must
// produce bit-identical ACVs to the scalar reference kernels — the
// sums are integer counts either way, so the final divisions are the
// same floating-point operations.
func TestACVKernelsBitsMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 15; trial++ {
		k := 2 + rng.Intn(7) // 2..8, the gated range
		tb := randTable(t, rng, 4, k, 30+rng.Intn(300))
		ix := tb.Index()
		m := tb.NumRows()
		cntE := make([]int32, k*k)
		cntP := make([]int32, k*k*k)
		tailRow := make([]int32, m)
		pairBuf := make([]uint64, k*k*ix.Words())
		pairCnt := make([]int, k*k)
		for a := 0; a < tb.NumAttrs(); a++ {
			for c := 0; c < tb.NumAttrs(); c++ {
				if a == c {
					continue
				}
				scalar := acvEdge(tb.Column(a), tb.Column(c), k, cntE)
				bits := acvEdgeBits(ix, a, c)
				if scalar != bits {
					t.Fatalf("trial %d: acvEdge(%d,%d) scalar=%v bits=%v", trial, a, c, scalar, bits)
				}
			}
		}
		for a := 0; a < tb.NumAttrs(); a++ {
			for b := a + 1; b < tb.NumAttrs(); b++ {
				colA, colB := tb.Column(a), tb.Column(b)
				for i := 0; i < m; i++ {
					tailRow[i] = int32(colA[i]-1)*int32(k) + int32(colB[i]-1)
				}
				fillTailPairBits(ix, a, b, pairBuf, pairCnt)
				for c := 0; c < tb.NumAttrs(); c++ {
					if c == a || c == b {
						continue
					}
					scalar := acvPair(tailRow, tb.Column(c), k, cntP)
					bits := acvPairBits(ix, pairBuf, pairCnt, c)
					if scalar != bits {
						t.Fatalf("trial %d: acvPair({%d,%d},%d) scalar=%v bits=%v", trial, a, b, c, scalar, bits)
					}
				}
			}
		}
	}
}

// TestBuildBitsMatchesScalar: a full Build on the bitset kernels must
// be byte-identical — same EdgeACV cache, same admitted edges in the
// same order with the same weights — to a Build forced onto the scalar
// kernels, across strategies and tail sizes.
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
			scalarCfg := cfg
			scalarCfg.noBits = true
			mBits, err := Build(tb, cfg)
			if err != nil {
				t.Fatal(err)
			}
			mScalar, err := Build(tb, scalarCfg)
			if err != nil {
				t.Fatal(err)
			}
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
