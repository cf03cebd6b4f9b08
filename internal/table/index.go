package table

import "math/bits"

// Index is a TID-bitset index over a table: for every (attribute,
// value) pair it holds a dense bitmap over observation ids (one bit
// per row, set iff that row takes that value). Counting the
// observations matching a conjunction of (attribute, value) items then
// reduces to AND-ing posting bitmaps and popcounting — 64 rows per
// word operation — which is what the Apriori miner and the hypergraph
// builder spend nearly all of their time doing.
//
// An Index is immutable once built; all methods are safe for
// concurrent use.
type Index struct {
	attrs  int
	k      int
	rows   int
	words  int      // words per posting bitmap = ceil(rows/64)
	bits   []uint64 // attrs*k bitmaps, posting (a,v) at ((a*k)+(v-1))*words
	counts []int    // cached popcount per posting, same indexing
}

// Index returns the table's TID-bitset index, building it on first use
// and caching it on the table. The cache is keyed by the current row
// count, so a table extended by AppendRow after an index was built
// transparently refreshes on the next call (this stamp check is why the
// cache is a mutex-guarded pointer rather than a bare sync.Once).
//
// A stale-but-shorter cached index is extended rather than rebuilt:
// tables are append-only (no API mutates an existing cell), so the
// posting-bitmap prefix is still valid and only the appended rows need
// scanning. The cached *Index object itself is never mutated — a new
// Index is installed — because callers may still hold the old one.
func (t *Table) Index() *Index {
	t.idxMu.Lock()
	defer t.idxMu.Unlock()
	switch {
	case t.idx == nil || t.idx.rows > t.rows:
		t.idx = buildIndex(t)
	case t.idx.rows < t.rows:
		t.idx = extendIndex(t.idx, t)
	}
	return t.idx
}

// IndexIfBuilt returns the cached index if one exists and is still
// fresh, and nil otherwise. Counting paths that are not worth an O(rows
// x attrs) index build on their own use this to piggyback on an index
// some earlier caller paid for.
func (t *Table) IndexIfBuilt() *Index {
	t.idxMu.Lock()
	defer t.idxMu.Unlock()
	if t.idx != nil && t.idx.rows == t.rows {
		return t.idx
	}
	return nil
}

// BuildIndex builds a fresh index of t without caching it on the
// table: a caller that needs the postings for one call drops them
// with the index, and the table's resident memory does not grow.
func (t *Table) BuildIndex() *Index { return buildIndex(t) }

func buildIndex(t *Table) *Index {
	words := (t.rows + 63) / 64
	ix := &Index{
		attrs:  len(t.cols),
		k:      t.k,
		rows:   t.rows,
		words:  words,
		bits:   make([]uint64, len(t.cols)*t.k*words),
		counts: make([]int, len(t.cols)*t.k),
	}
	for a, col := range t.cols {
		base := a * t.k * words
		for i, v := range col {
			off := base + int(v-1)*words
			ix.bits[off+(i>>6)] |= 1 << (uint(i) & 63)
		}
	}
	for p := range ix.counts {
		ix.counts[p] = Popcount(ix.bits[p*words : (p+1)*words])
	}
	return ix
}

// extendIndex builds the index for t from an index old that covers a
// strict prefix of t's rows: every posting bitmap's old words are
// copied, then only the appended rows [old.rows, t.rows) are scanned to
// set new bits and bump the cached popcounts. The result is
// bit-identical to buildIndex(t) — the differential tests pin this —
// while touching O(appended) cells instead of O(rows). old is not
// modified; it may still be serving concurrent readers.
func extendIndex(old *Index, t *Table) *Index {
	words := (t.rows + 63) / 64
	postings := old.attrs * old.k
	ix := &Index{
		attrs:  old.attrs,
		k:      old.k,
		rows:   t.rows,
		words:  words,
		bits:   make([]uint64, postings*words),
		counts: make([]int, postings),
	}
	copy(ix.counts, old.counts)
	for p := 0; p < postings; p++ {
		copy(ix.bits[p*words:p*words+old.words], old.bits[p*old.words:(p+1)*old.words])
	}
	for a, col := range t.cols {
		base := a * t.k
		for i := old.rows; i < t.rows; i++ {
			p := base + int(col[i]-1)
			ix.bits[p*words+(i>>6)] |= 1 << (uint(i) & 63)
			ix.counts[p]++
		}
	}
	return ix
}

// Rows returns the number of observations the index covers.
func (ix *Index) Rows() int { return ix.rows }

// K returns the value-set cardinality.
func (ix *Index) K() int { return ix.k }

// Words returns the length in uint64 words of every posting bitmap.
func (ix *Index) Words() int { return ix.words }

// Posting returns the bitmap of observations where attribute a takes
// value v. The slice aliases the index's storage and must be treated
// as read-only.
func (ix *Index) Posting(a int, v Value) []uint64 {
	off := (a*ix.k + int(v-1)) * ix.words
	return ix.bits[off : off+ix.words : off+ix.words]
}

// Postings returns the k posting bitmaps of attribute a as one block:
// value v's bitmap is block[(v-1)*Words() : v*Words()]. The slice
// aliases the index's storage and must be treated as read-only.
func (ix *Index) Postings(a int) []uint64 {
	n := ix.k * ix.words
	return ix.bits[a*n : (a+1)*n : (a+1)*n]
}

// Count returns the support count of the single item (a, v), i.e. the
// popcount of its posting bitmap, from the cache built at index time.
func (ix *Index) Count(a int, v Value) int {
	return ix.counts[a*ix.k+int(v-1)]
}

// Popcount returns the number of set bits in b.
func Popcount(b []uint64) int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// PopcountAnd returns the number of set bits in the intersection of a
// and b without materializing it. The slices must have equal length.
func PopcountAnd(a, b []uint64) int {
	b = b[:len(a)]
	n := 0
	for i, w := range a {
		n += bits.OnesCount64(w & b[i])
	}
	return n
}

// AndInto replaces dst with the intersection of dst and src. The
// slices must have equal length.
func AndInto(dst, src []uint64) {
	src = src[:len(dst)]
	for i := range dst {
		dst[i] &= src[i]
	}
}
