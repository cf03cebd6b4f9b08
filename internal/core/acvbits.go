package core

import (
	"math/bits"

	"hypermine/internal/table"
)

// bitsMaxK gates the posting-bitmap counting kernels: the builder's
// ACV kernels below and the association-table kernel (countBits) that
// fills the tables of rule mining and the classifier. Deriving an edge
// (pair) contingency table from posting-bitmap intersections costs
// O(k^2 * rows/64) (resp. O(k^3 * rows/64)) word operations against
// O(rows) scalar increments, so bitmaps win only while k^2 (resp. k^3)
// stays small relative to the 64-rows-per-word payoff. k <= 8 covers
// the paper's configurations (k = 3 and k = 5) with headroom; larger
// cardinalities keep the row scan.
const bitsMaxK = 8

// acvEdgeBits computes ACV({a},{c}) from the TID-bitset index:
// contingency cell (va, vc) is the popcount of the intersection of the
// two value postings, and only the per-row maximum is kept, so no k*k
// scratch table is needed.
func acvEdgeBits(ix *table.Index, a, c int) float64 {
	k := ix.K()
	sum := 0
	for va := 1; va <= k; va++ {
		if ix.Count(a, table.Value(va)) == 0 {
			continue
		}
		pa := ix.Posting(a, table.Value(va))
		best := 0
		for vc := 1; vc <= k; vc++ {
			if n := table.PopcountAnd(pa, ix.Posting(c, table.Value(vc))); n > best {
				best = n
			}
		}
		sum += best
	}
	return float64(sum) / float64(ix.Rows())
}

// fillTailPairBits materializes the k*k tail bitmaps of the pair
// (a, b): slot (va-1)*k+(vb-1) of buf holds posting(a,va) AND
// posting(b,vb). buf must hold k*k*Words() words; counts (length k*k)
// receives each slot's popcount so downstream loops can skip empty
// value combinations. The materialization is what lets one pair's
// intersections be reused across all n-2 heads.
func fillTailPairBits(ix *table.Index, a, b int, buf []uint64, counts []int) {
	k, w := ix.K(), ix.Words()
	for va := 1; va <= k; va++ {
		pa := ix.Posting(a, table.Value(va))
		for vb := 1; vb <= k; vb++ {
			slot := (va-1)*k + vb - 1
			dst := buf[slot*w : (slot+1)*w]
			copy(dst, pa)
			table.AndInto(dst, ix.Posting(b, table.Value(vb)))
			counts[slot] = table.Popcount(dst)
		}
	}
}

// acvPairBits computes ACV({a,b},{c}) from tail bitmaps previously
// materialized by fillTailPairBits.
func acvPairBits(ix *table.Index, buf []uint64, counts []int, c int) float64 {
	k, w := ix.K(), ix.Words()
	sum := 0
	for slot := 0; slot < k*k; slot++ {
		if counts[slot] == 0 {
			continue
		}
		tbits := buf[slot*w : (slot+1)*w]
		best := 0
		for vc := 1; vc <= k; vc++ {
			if n := table.PopcountAnd(tbits, ix.Posting(c, table.Value(vc))); n > best {
				best = n
			}
		}
		sum += best
	}
	return float64(sum) / float64(ix.Rows())
}

// CountingIndex returns the posting bitmaps that FillFrom reads for
// tb's association tables: the table's resident TID index when one is
// fresh (a mined model, or a live dataset's index extended by an
// append), and otherwise a transient index for the caller to share
// across one call's tables and then drop. It returns nil when k >
// bitsMaxK, where the row scan counts the tables.
func CountingIndex(tb *table.Table) *table.Index {
	if tb.K() > bitsMaxK {
		return nil
	}
	if ix := tb.IndexIfBuilt(); ix != nil {
		return ix
	}
	return tb.BuildIndex()
}

// countBits is the association-table kernel. For every combination of
// tail values it ANDs the tail postings word by word and, in the same
// pass, popcounts the intersection against each head-value posting:
// one pass yields the row's k head counts (two passes for k > 4, so
// every count stays in a register), and their sum is the row's support
// because the head postings partition the rows (padding bits past the
// last row are zero in every posting). tails[i] and head are attribute
// posting blocks (table.Index.Postings layout) of at.Tail[i] and
// at.Head, each value's bitmap words long; at's shape and zeroed cell
// slices must already be set.
func (at *AssociationTable) countBits(tails [MaxTail][]uint64, head []uint64, words int) {
	k := at.K
	var hp [bitsMaxK][]uint64
	for y := range k {
		hp[y] = head[y*words : (y+1)*words]
	}
	post := func(a, v int) []uint64 { return tails[a][v*words : (v+1)*words] }
	switch len(at.Tail) {
	case 1:
		for v0 := range k {
			p := post(0, v0)
			at.addRow(v0, hp[:k], 0, words, p, p)
		}
	case 2:
		for v0 := range k {
			for v1 := range k {
				at.addRow(v0*k+v1, hp[:k], 0, words, post(0, v0), post(1, v1))
			}
		}
	case 3:
		// The first two tails' intersection is materialized a chunk of
		// words at a time, so each row is again a two-operand pass.
		var ab [512]uint64
		for v0 := range k {
			for v1 := range k {
				p0, p1 := post(0, v0), post(1, v1)
				for lo := 0; lo < words; lo += len(ab) {
					hi := min(lo+len(ab), words)
					t := ab[:hi-lo]
					for i := range t {
						t[i] = p0[lo+i] & p1[lo+i]
					}
					for v2 := range k {
						at.addRow((v0*k+v1)*k+v2, hp[:k], lo, hi, t, post(2, v2)[lo:hi])
					}
				}
			}
		}
	}
}

// addRow adds to association-table row `row` the counts of words
// [lo, hi) of the tail intersection a AND b, split by head value.
func (at *AssociationTable) addRow(row int, hp [][]uint64, lo, hi int, a, b []uint64) {
	k := len(hp)
	var h [bitsMaxK][]uint64
	for y := range k {
		h[y] = hp[y][lo:hi]
	}
	var n [bitsMaxK]int
	half := k
	if k > 4 {
		half = (k + 1) / 2
	}
	popAnd(n[:half], a, b, h[:half])
	popAnd(n[half:k], a, b, h[half:k])
	cells := at.HeadCounts[row*k : (row+1)*k]
	sum := 0
	for y, c := range n[:k] {
		cells[y] += int32(c)
		sum += c
	}
	at.Counts[row] += int32(sum)
}

// popAnd sets n[y] to the popcount of a AND b AND h[y], for up to four
// head postings h, in one pass over the words.
func popAnd(n []int, a, b []uint64, h [][]uint64) {
	b = b[:len(a)]
	switch len(h) {
	case 1:
		h0 := h[0][:len(a)]
		for i, w := range a {
			n[0] += bits.OnesCount64(w & b[i] & h0[i])
		}
	case 2:
		h0, h1 := h[0][:len(a)], h[1][:len(a)]
		var n0, n1 int
		for i, w := range a {
			w &= b[i]
			n0 += bits.OnesCount64(w & h0[i])
			n1 += bits.OnesCount64(w & h1[i])
		}
		n[0], n[1] = n0, n1
	case 3:
		h0, h1, h2 := h[0][:len(a)], h[1][:len(a)], h[2][:len(a)]
		var n0, n1, n2 int
		for i, w := range a {
			w &= b[i]
			n0 += bits.OnesCount64(w & h0[i])
			n1 += bits.OnesCount64(w & h1[i])
			n2 += bits.OnesCount64(w & h2[i])
		}
		n[0], n[1], n[2] = n0, n1, n2
	case 4:
		h0, h1, h2, h3 := h[0][:len(a)], h[1][:len(a)], h[2][:len(a)], h[3][:len(a)]
		var n0, n1, n2, n3 int
		for i, w := range a {
			w &= b[i]
			n0 += bits.OnesCount64(w & h0[i])
			n1 += bits.OnesCount64(w & h1[i])
			n2 += bits.OnesCount64(w & h2[i])
			n3 += bits.OnesCount64(w & h3[i])
		}
		n[0], n[1], n[2], n[3] = n0, n1, n2, n3
	}
}
