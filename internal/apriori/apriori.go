// Package apriori implements the classical association-rule mining
// background the paper builds on (§1.1): level-wise Apriori frequent
// itemset mining [AS94] over (attribute, value) items — the
// quantitative-rule setting of [SA96] on an already-discretized table —
// and confidence-thresholded rule generation. It serves as the
// baseline the directed-hypergraph model is motivated against, and its
// support/confidence numbers cross-check internal/core's.
//
// Support counting runs on the table's TID-bitset index
// (table.Index): a candidate's count is the popcount of the
// intersection of its items' posting bitmaps, so each candidate costs
// O(rows/64) word operations instead of a full table re-scan.
package apriori

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"hypermine/internal/core"
	"hypermine/internal/runopt"
	"hypermine/internal/table"
)

// Options controls the miner.
type Options struct {
	// MinSupport is the fraction of observations an itemset must
	// match to be frequent. Must be positive (Apriori's pruning
	// depends on it).
	MinSupport float64
	// MaxLen caps itemset size; 0 means unlimited.
	MaxLen int

	// Run carries the runtime-only hooks of FrequentItemsetsContext: a
	// PhaseApriori progress callback (done = completed itemset size,
	// total = MaxLen or 0 when unbounded) and the context-poll stride
	// in counted candidates (0 = DefaultCheckEvery). Held by pointer
	// so Options stays comparable; never persisted.
	Run *runopt.Hooks `json:"-"`
}

// DefaultCheckEvery is the default candidate stride between context
// polls in FrequentItemsetsContext. Counting one candidate is an
// AND+popcount over rows/64 words (or an O(rows) scan), so 64
// candidates bound cancellation latency to well under a level.
const DefaultCheckEvery = 64

// Frequent is one frequent itemset with its support count.
type Frequent struct {
	Items   []core.Item // sorted by (Attr, Val)
	Count   int
	Support float64
}

// Rule is a classical association rule X => Y with quality measures.
type Rule struct {
	X, Y       []core.Item
	Support    float64 // Supp(X u Y)
	Confidence float64 // Supp(X u Y) / Supp(X)
	Lift       float64 // Confidence / Supp(Y)
}

func itemLess(a, b core.Item) bool {
	if a.Attr != b.Attr {
		return a.Attr < b.Attr
	}
	return a.Val < b.Val
}

// itemID is the fixed-width encoding of one item: the attribute index
// shifted past the 8-bit value. It preserves itemLess order, so id
// sequences compare the same way item sequences do.
func itemID(it core.Item) uint64 {
	return uint64(it.Attr)<<8 | uint64(it.Val)
}

// appendIDs appends the items' encodings to dst and returns it.
func appendIDs(dst []uint64, items []core.Item) []uint64 {
	for _, it := range items {
		dst = append(dst, itemID(it))
	}
	return dst
}

func idsLess(a, b []uint64) bool {
	for i := range a {
		if i >= len(b) {
			return false
		}
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

func idsEqual(a, b []uint64) bool {
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

// containsIDs reports whether the lexicographically sorted id
// sequences contain target, by binary search.
func containsIDs(sorted [][]uint64, target []uint64) bool {
	lo := sort.Search(len(sorted), func(i int) bool { return !idsLess(sorted[i], target) })
	return lo < len(sorted) && idsEqual(sorted[lo], target)
}

// minCountFor returns the smallest count c in 1..n whose support
// fraction float64(c)/float64(n) — the same division that produces
// Frequent.Support — clears minSupport. The naive
// int(minSupport*float64(n)) ceiling mis-rounds when the product is
// not exactly representable (0.07*100 evaluates to 7.000000000000001,
// so the ceiling became 8), silently dropping itemsets that meet the
// threshold exactly. Deriving the cut from the division keeps
// "Count >= minCount" and "Support >= MinSupport" consistent, which is
// also the acceptance criterion the brute-force cross-check tests use.
// The float estimate is at most a few ulps off, so the correction
// loops run O(1) times.
func minCountFor(minSupport float64, n int) int {
	c := int(minSupport * float64(n))
	if c < 1 {
		c = 1
	}
	if c > n {
		c = n
	}
	for c > 1 && float64(c-1)/float64(n) >= minSupport {
		c--
	}
	for c < n && float64(c)/float64(n) < minSupport {
		c++
	}
	return c
}

// indexMaxK bounds the value cardinality at which FrequentItemsets
// builds the TID-bitset index. The index is dense — attrs * k *
// ceil(rows/64) words regardless of value occupancy — so its memory is
// k/8 times the table's; k <= 32 caps that at 4x. Beyond it the miner
// falls back to scan counting (core.SupportCount on an index-free
// table), which is O(rows) memory. Discretized tables are virtually
// always far below this (the paper uses k = 3 and 5).
const indexMaxK = 32

// intersectItems returns the intersection bitmap of the items' posting
// lists. A single item aliases the index's posting directly; larger
// sets materialize into scratch (which must have Words() length).
func intersectItems(ix *table.Index, items []core.Item, scratch []uint64) []uint64 {
	if len(items) == 1 {
		return ix.Posting(items[0].Attr, items[0].Val)
	}
	copy(scratch, ix.Posting(items[0].Attr, items[0].Val))
	for _, it := range items[1:] {
		table.AndInto(scratch, ix.Posting(it.Attr, it.Val))
	}
	return scratch
}

// FrequentItemsets runs level-wise Apriori on the table: L1 is the
// frequent single items; candidates of size k join two frequent
// (k-1)-itemsets sharing their first k-2 items, are pruned by the
// downward-closure property, and survive if their counted support
// clears MinSupport. Itemsets never repeat an attribute — in the
// multi-valued setting two values of one attribute cannot co-occur in
// a row.
//
// Counting uses the table's TID-bitset index: the intersection bitmap
// of a frequent (k-1)-itemset is materialized once per join partner
// and each candidate is one AND+popcount pass against the extension
// item's posting list. Tables with cardinality above indexMaxK fall
// back to scan counting, whose memory stays O(rows).
func FrequentItemsets(tb *table.Table, opt Options) ([]Frequent, error) {
	return FrequentItemsetsContext(context.Background(), tb, opt)
}

// FrequentItemsetsContext is FrequentItemsets under a context:
// cancellation is polled every Options.Run.CheckEvery counted
// candidates (DefaultCheckEvery when unset) and between levels, and
// ctx.Err() is returned promptly, discarding partial results.
// Bit-identical to FrequentItemsets when never canceled.
func FrequentItemsetsContext(ctx context.Context, tb *table.Table, opt Options) ([]Frequent, error) {
	if tb.NumRows() == 0 {
		return nil, errors.New("apriori: empty table")
	}
	if opt.MinSupport <= 0 || opt.MinSupport > 1 {
		return nil, fmt.Errorf("apriori: MinSupport %v outside (0,1]", opt.MinSupport)
	}
	chk := runopt.NewChecker(ctx, opt.Run.Stride(), DefaultCheckEvery)
	prog := runopt.NewMeter(runopt.PhaseApriori, opt.MaxLen, opt.Run.Func())
	n := tb.NumRows()
	minCount := minCountFor(opt.MinSupport, n)
	var ix *table.Index
	var scratch []uint64
	if tb.K() <= indexMaxK {
		ix = tb.Index()
		scratch = make([]uint64, ix.Words())
	}

	var all []Frequent
	// L1 from the index's cached posting counts, or per-column
	// histograms on the scan path. Each 1-itemset is a capped
	// sub-slice of one slab.
	var level []Frequent
	l1 := make([]core.Item, 0, tb.NumAttrs()*tb.K())
	for a := 0; a < tb.NumAttrs(); a++ {
		var counts []int
		if ix == nil {
			counts = tb.ValueCounts(a)
		}
		for v := 1; v <= tb.K(); v++ {
			if err := chk.Tick(); err != nil {
				return nil, err
			}
			c := 0
			if ix != nil {
				c = ix.Count(a, table.Value(v))
			} else {
				c = counts[v-1]
			}
			if c >= minCount {
				l1 = append(l1, core.Item{Attr: a, Val: table.Value(v)})
				level = append(level, Frequent{
					Items:   l1[len(l1)-1 : len(l1) : len(l1)],
					Count:   c,
					Support: float64(c) / float64(n),
				})
			}
		}
	}
	sortFrequent(level)
	all = append(all, level...)
	prog.Tick(1)
	// Scratch reused across levels: the previous level's encoded ids
	// and the items of the current level's frequent candidates.
	var levelIDs [][]uint64
	var ids []uint64
	var items []core.Item
	for size := 2; len(level) > 0 && (opt.MaxLen == 0 || size <= opt.MaxLen); size++ {
		if err := chk.Err(); err != nil {
			return nil, err
		}
		// Encoded ids of the previous level, in level order — which is
		// lexicographic, so subset membership is a binary search over
		// fixed-width ids instead of a string-keyed set.
		levelIDs, ids = levelIDs[:0], ids[:0]
		for _, f := range level {
			if err := chk.Tick(); err != nil {
				return nil, err
			}
			ids = appendIDs(ids, f.Items)
		}
		for i := range level {
			levelIDs = append(levelIDs, ids[i*(size-1):(i+1)*(size-1)])
		}
		idBuf := make([]uint64, 0, size)
		// Every join candidate is built in cand; only the frequent ones
		// are copied out, into items and then one exact slab per level.
		cand := make([]core.Item, size)
		items = items[:0]
		var next []Frequent
		for i := 0; i < len(level); i++ {
			a := level[i].Items
			// Intersection bitmap of a's postings, materialized
			// lazily on the first surviving join partner and shared
			// by all of them.
			var aBits []uint64
			for j := i + 1; j < len(level); j++ {
				b := level[j].Items
				if !samePrefix(a, b) {
					break // level is sorted; later j cannot match either
				}
				last := b[len(b)-1]
				if !itemLess(a[len(a)-1], last) {
					continue
				}
				if a[len(a)-1].Attr == last.Attr {
					continue // one value per attribute
				}
				copy(cand, a)
				cand[size-1] = last
				if !allSubsetsFrequent(cand, levelIDs, idBuf) {
					continue
				}
				if err := chk.Tick(); err != nil {
					return nil, err
				}
				var c int
				if ix != nil {
					if aBits == nil {
						aBits = intersectItems(ix, a, scratch)
					}
					c = table.PopcountAnd(aBits, ix.Posting(last.Attr, last.Val))
				} else {
					c = core.SupportCount(tb, cand)
				}
				if c >= minCount {
					items = append(items, cand...)
					next = append(next, Frequent{Count: c, Support: float64(c) / float64(n)})
				}
			}
		}
		slab := append([]core.Item(nil), items...)
		for i := range next {
			next[i].Items = slab[i*size : (i+1)*size : (i+1)*size]
		}
		level = next
		sortFrequent(level)
		all = append(all, level...)
		if len(level) > 0 {
			prog.Tick(1)
		}
	}
	return all, nil
}

func samePrefix(a, b []core.Item) bool {
	for i := 0; i < len(a)-1; i++ {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// allSubsetsFrequent is the downward-closure prune. The two subsets
// obtained by dropping either of the last two items are the join
// parents and frequent by construction, so only earlier drops are
// checked. idBuf is scratch with capacity >= len(cand)-1.
func allSubsetsFrequent(cand []core.Item, prev [][]uint64, idBuf []uint64) bool {
	for drop := 0; drop <= len(cand)-3; drop++ {
		ids := idBuf[:0]
		for i, it := range cand {
			if i != drop {
				ids = append(ids, itemID(it))
			}
		}
		if !containsIDs(prev, ids) {
			return false
		}
	}
	return true
}

func sortFrequent(fs []Frequent) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i].Items, fs[j].Items
		for k := 0; k < len(a) && k < len(b); k++ {
			if a[k] != b[k] {
				return itemLess(a[k], b[k])
			}
		}
		return len(a) < len(b)
	})
}

// itemsetKey overwrites buf with the items' fixed-width encodings and
// returns it, for use as a map key. Lookups written as
// index[string(key)] do not allocate.
func itemsetKey(items []core.Item, buf []byte) []byte {
	buf = buf[:0]
	for _, it := range items {
		buf = binary.BigEndian.AppendUint64(buf, itemID(it))
	}
	return buf
}

// GenerateRules produces every rule X => Y with nonempty X and Y
// partitioning a frequent itemset, keeping those whose confidence
// clears minConfidence. Support values come from the frequent-set
// index, so no further table scans happen.
//
// The confidence cut compares the exact value reported in
// Rule.Confidence (the float64 division of the two counts) directly
// against minConfidence, so a rule whose confidence equals the
// threshold is kept — the same exact-threshold contract as
// FrequentItemsets' minCountFor.
func GenerateRules(freq []Frequent, minConfidence float64) ([]Rule, error) {
	if minConfidence < 0 || minConfidence > 1 {
		return nil, fmt.Errorf("apriori: minConfidence %v outside [0,1]", minConfidence)
	}
	index := make(map[string]Frequent, len(freq))
	var kb []byte
	for _, f := range freq {
		kb = itemsetKey(f.Items, kb)
		index[string(kb)] = f
	}
	var rules []Rule
	for _, f := range freq {
		k := len(f.Items)
		if k < 2 {
			continue
		}
		// Enumerate nonempty proper subsets as antecedents.
		for mask := 1; mask < (1<<k)-1; mask++ {
			var x, y []core.Item
			for i := 0; i < k; i++ {
				if mask&(1<<i) != 0 {
					x = append(x, f.Items[i])
				} else {
					y = append(y, f.Items[i])
				}
			}
			kb = itemsetKey(x, kb)
			fx, ok := index[string(kb)]
			if !ok {
				continue // antecedent infrequent (cannot happen by closure, but be safe)
			}
			conf := float64(f.Count) / float64(fx.Count)
			if conf < minConfidence {
				continue
			}
			r := Rule{X: x, Y: y, Support: f.Support, Confidence: conf}
			kb = itemsetKey(y, kb)
			if fy, ok := index[string(kb)]; ok && fy.Support > 0 {
				r.Lift = conf / fy.Support
			}
			rules = append(rules, r)
		}
	}
	sort.Slice(rules, func(i, j int) bool {
		if rules[i].Confidence != rules[j].Confidence {
			return rules[i].Confidence > rules[j].Confidence
		}
		return rules[i].Support > rules[j].Support
	})
	return rules, nil
}

// Mine is the one-call convenience: frequent itemsets then rules.
func Mine(tb *table.Table, opt Options, minConfidence float64) ([]Rule, error) {
	return MineContext(context.Background(), tb, opt, minConfidence)
}

// MineContext is Mine under a context. The frequent-itemset phase is
// cancellation-aware; rule generation is pure in-memory enumeration
// over the already-mined sets and is checked once between phases.
func MineContext(ctx context.Context, tb *table.Table, opt Options, minConfidence float64) ([]Rule, error) {
	freq, err := FrequentItemsetsContext(ctx, tb, opt)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return GenerateRules(freq, minConfidence)
}
