package core

import (
	"context"
	"math/bits"

	"hypermine/internal/runopt"
	"hypermine/internal/table"
)

// bitsMaxK gates the posting-bitmap counting kernels: the builder's
// ACV kernels below and the association-table kernel (countBits) that
// fills the tables of rule mining and the classifier. The builder
// popcounts only the cells of a contingency table whose values are all
// below k and derives the rest from its marginals, so an edge (pair)
// table costs (k-1)^2 and a 3-way table, which serves the three 2-to-1
// candidates of its attribute triple, (k-1)^3 passes of rows/64 words,
// against O(rows) scalar increments; bitmaps win only while that stays
// small relative to the 64-rows-per-word payoff. k <= 8 covers the
// paper's configurations (k = 3: 8 passes per attribute triple; k = 5:
// 64) with headroom; larger cardinalities keep the row scan.
const bitsMaxK = 8

// PairCells holds the joint counts of every unordered attribute pair
// of a table: cell (va, vb) of the pair (a, b), a < b, is the number
// of rows where a takes va and b takes vb, at
// Cells[Base(a, b) + (va-1)*k + (vb-1)].
type PairCells struct {
	n, k  int
	Cells []int32
}

// Base returns the offset of the pair (a, b), a < b, in Cells.
func (p *PairCells) Base(a, b int) int {
	return pairIndex(a, b, p.n) * p.k * p.k
}

// pairIndex returns the ordinal of the pair (a, b), a < b, among the
// unordered pairs of n attributes in (a, b) order.
func pairIndex(a, b, n int) int { return a*(2*n-a-1)/2 + b - a - 1 }

// view returns the k*k cells of the pair {a, c}, a != c, with the
// strides that address them by a's and c's 0-based values: the joint
// count of (a = va, c = vc) is cells[va*sa + vc*sc].
func (p *PairCells) view(a, c int) (cells []int32, sa, sc int) {
	k := p.k
	if a < c {
		return p.Cells[p.Base(a, c):][:k*k], k, 1
	}
	return p.Cells[p.Base(c, a):][:k*k], 1, k
}

// EdgeSum returns the numerator of ACV({a},{c}): the sum over a's
// values of the largest joint count with a value of c.
func (p *PairCells) EdgeSum(a, c int) int64 {
	cells, sa, sc := p.view(a, c)
	var sum int64
	for va := range p.k {
		best := int32(0)
		for vc := range p.k {
			best = max(best, cells[va*sa+vc*sc])
		}
		sum += int64(best)
	}
	return sum
}

// CountPairCells counts the pair cells of ix's table on cfg.Parallelism
// workers (GOMAXPROCS when unset), polling ctx at cfg.Run's stride
// once per pair; it reports no progress.
func CountPairCells(ctx context.Context, ix *table.Index, cfg Config) (*PairCells, error) {
	cfg = cfg.withDefaults()
	if cfg.Run.Func() != nil {
		cfg.Run = &runopt.Hooks{CheckEvery: cfg.Run.Stride()}
	}
	n, k := ix.Attrs(), ix.K()
	p := &PairCells{n: n, k: k, Cells: make([]int32, n*(n-1)/2*k*k)}
	// One job per attribute a fills the pairs (a, b), b > a; without a
	// progress callback the phase is only a label.
	err := stage(ctx, cfg, runopt.PhaseEdges, n, func() struct{} { return struct{}{} },
		func(_ struct{}, chk *runopt.Checker, a int) {
			for b := a + 1; b < n && chk.Tick() == nil; b++ {
				p.count(ix, a, b)
			}
		})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// count fills the cells of the pair (a, b), a < b, from ix's postings:
// it popcounts the (k-1)^2 cells with both values below k, one pass
// per value of a with a lane per value of b, and derives b's last
// column and then a's last row from the value counts.
func (p *PairCells) count(ix *table.Index, a, b int) {
	k, words := p.k, ix.Words()
	km := k - 1
	cells := p.Cells[p.Base(a, b):][:k*k]
	for lo := 0; lo < km; lo += 4 {
		hs, n := lanes(ix.Postings(b), lo, km, words)
		for va := range km {
			pa := ix.Posting(a, table.Value(va+1))
			var c [4]int
			popAnd(c[:n], pa, pa, hs[:n])
			for y, v := range c[:n] {
				cells[va*k+lo+y] = int32(v)
			}
		}
	}
	for va := range km {
		r := cells[va*k:][:k]
		r[km] = int32(ix.Count(a, table.Value(va+1))) - sum32(r[:km])
	}
	last := cells[km*k:][:k]
	for vb := range last {
		last[vb] = int32(ix.Count(b, table.Value(vb+1)))
	}
	for va := range km {
		subInto(last, cells[va*k:])
	}
}

// Triple fills dst[((va-1)*k+(vb-1))*k+(vc-1)] with the number of
// rows of ix where a takes va, b takes vb and c takes vc; a < b, c is
// distinct from both, p holds the pair cells of ix's rows, and dst at
// least k^3 cells. It popcounts only the (k-1)^3 cells whose values
// are all below k, one pass over each pair of tail postings with a
// lane per head value, and derives every other cell from the 2-way
// marginals AB, AC and BC in three subtraction sweeps: the counts are
// the same integers a full k^3 count gives.
func (p *PairCells) Triple(ix *table.Index, a, b, c int, dst []int32) {
	k, words := p.k, ix.Words()
	km := k - 1
	ab := p.Cells[p.Base(a, b):][:k*k]
	for lo := 0; lo < km; lo += 4 {
		hs, n := lanes(ix.Postings(c), lo, km, words)
		for va := range km {
			pa := ix.Posting(a, table.Value(va+1))
			for vb := range km {
				row := dst[(va*k+vb)*k+lo:][:n]
				if ab[va*k+vb] == 0 {
					clear(row)
					continue
				}
				var cnt [4]int
				popAnd(cnt[:n], pa, ix.Posting(b, table.Value(vb+1)), hs[:n])
				for y, v := range cnt[:n] {
					row[y] = int32(v)
				}
			}
		}
	}
	// Sweep 1: c's last value, from AB (a and b below their last).
	for va := range km {
		for vb := range km {
			r := dst[(va*k+vb)*k:][:k]
			r[km] = ab[va*k+vb] - sum32(r[:km])
		}
	}
	// Sweep 2: b's last value, from AC (a below its last).
	ac, sa, sc := p.view(a, c)
	for va := range km {
		last := dst[(va*k+km)*k:][:k]
		for vc := range last {
			last[vc] = ac[va*sa+vc*sc]
		}
		for vb := range km {
			subInto(last, dst[(va*k+vb)*k:])
		}
	}
	// Sweep 3: a's last value, from BC.
	bc, sb, sc := p.view(b, c)
	last := dst[km*k*k:][:k*k]
	for vb := range k {
		for vc := range k {
			last[vb*k+vc] = bc[vb*sb+vc*sc]
		}
	}
	for va := range km {
		subInto(last, dst[va*k*k:])
	}
}

// TripleCells holds the 3-way tables of every attribute triple of a
// table: the table of (a, b, c), a < b < c, is the k^3 cells at
// Cells[Base(a, b, c):] in Triple's layout, the triples in (a, b, c)
// order.
type TripleCells struct {
	n, k  int
	Cells []int32
}

// Base returns the offset of the triple (a, b, c), a < b < c, in Cells.
func (t *TripleCells) Base(a, b, c int) int {
	n := t.n
	// The triples before (a, b, c): those starting below a, then the
	// (a, y, z) with y < b, then the (a, b, z) with z < c.
	i := choose3(n) - choose3(n-a) + choose2(n-a-1) - choose2(n-b) + c - b - 1
	return i * t.k * t.k * t.k
}

func choose2(x int) int { return x * (x - 1) / 2 }
func choose3(x int) int { return x * (x - 1) * (x - 2) / 6 }

// CountTriples counts the 3-way table of every attribute triple of ix's
// table with Triple, one job per pair (a, b) on GOMAXPROCS workers,
// polling ctx every DefaultCheckEvery tables; p holds the pair cells of
// ix's rows.
func (p *PairCells) CountTriples(ctx context.Context, ix *table.Index) (*TripleCells, error) {
	n, kkk := p.n, p.k*p.k*p.k
	t := &TripleCells{n: n, k: p.k, Cells: make([]int32, choose3(n)*kkk)}
	err := eachTriple(ctx, Config{}.withDefaults(), runopt.PhasePairs, n, func() struct{} { return struct{}{} },
		func(_ struct{}, a, b, c int) bool {
			base := t.Base(a, b, c)
			p.Triple(ix, a, b, c, t.Cells[base:base+kkk])
			return true
		})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// lanes returns the bitmaps of 0-based values lo, lo+1, ... below hi,
// at most four, of the posting block h (each words long), and their
// number: the head lanes of one popAnd pass.
func lanes(h []uint64, lo, hi, words int) (hs [4][]uint64, n int) {
	n = min(4, hi-lo)
	for y := range n {
		hs[y] = h[(lo+y)*words : (lo+y+1)*words]
	}
	return hs, n
}

// sum32 returns the sum of s.
func sum32(s []int32) int32 {
	var sum int32
	for _, v := range s {
		sum += v
	}
	return sum
}

// subInto subtracts src from dst cell by cell; src is at least as long
// as dst.
func subInto(dst, src []int32) {
	src = src[:len(dst)]
	for i := range dst {
		dst[i] -= src[i]
	}
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
