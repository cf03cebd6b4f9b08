package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"hypermine/internal/runopt"
	"hypermine/internal/table"
)

// ScoredRule is one mva-type association rule read off an association
// table, with its quality measures.
type ScoredRule struct {
	Rule       Rule
	Support    float64 // Supp(X), the rule row's tail support
	Confidence float64 // Conf(X ==mva==> Y)
	// Lift compares the rule's confidence against the consequent
	// value's base rate; > 1 means the antecedent is informative.
	Lift float64
}

// MineOptions filters mined rules.
type MineOptions struct {
	// MinSupport and MinConfidence are the classical thresholds
	// (§1.1); zero values accept everything.
	MinSupport    float64
	MinConfidence float64
	// MaxRules caps the result (0 = unlimited). Rules are ranked by
	// Support*Confidence, the same quantity ACV sums.
	MaxRules int

	// Run carries the runtime-only hooks of MineRulesContext: a
	// PhaseRules progress callback (one unit per hyperedge into the
	// head, called concurrently from the workers) and each worker's
	// context-poll stride in edges (0 = every edge, the natural unit
	// since each fills one association table). Held by pointer so
	// MineOptions stays comparable; never persisted.
	Run *runopt.Hooks `json:"-"`
}

// MineRules extracts the mva-type rules behind every hyperedge of the
// model pointing at the head attribute: one rule per nonempty
// association-table row, with the row's most frequent head value as
// the consequent. Rules are returned ranked by Support*Confidence.
// The returned rules share backing slabs for their Items: treat them
// as read-only.
//
// MineRules is the v1 form of MineRulesContext with a background
// context; the two are bit-identical when never canceled.
func MineRules(m *Model, head int, opt MineOptions) ([]ScoredRule, error) {
	return MineRulesContext(context.Background(), m, head, opt)
}

// MineRulesContext is MineRules under a context. It fills one
// association table per hyperedge into the head through the
// posting-bitmap kernel (CountingIndex: the table's resident index,
// or a transient one built for this call), spreading the edges over
// GOMAXPROCS workers. Each worker polls ctx and reports progress per
// edge; once ctx is canceled, ctx.Err() is returned promptly,
// discarding partial results. The result is independent of the worker
// count.
func MineRulesContext(ctx context.Context, m *Model, head int, opt MineOptions) ([]ScoredRule, error) {
	if head < 0 || head >= m.Table.NumAttrs() {
		return nil, fmt.Errorf("core: head attribute %d out of range", head)
	}
	if err := m.RequireRows(); err != nil {
		return nil, err
	}
	in := m.H.In(head)
	if len(in) == 0 {
		return nil, nil
	}
	k := m.Table.K()
	// Edge i writes its candidates into its own range of one slab,
	// starting at off[i] and at most k^|tail| long; used[i] records how
	// many it kept, and the slab is compacted in edge order afterwards.
	// Rank compact candidates first and build Items only for the rules
	// that survive the MaxRules cap.
	span := make([]int, 2*len(in)+1)
	off, used := span[:len(in)+1], span[len(in)+1:]
	maxRows := 0
	// Sizing is a few operations per edge, far below one table fill;
	// the workers poll ctx per edge.
	//hyperlint:ignore ctxpoll
	for i, ei := range in {
		rows := atRows(k, len(m.H.Edge(int(ei)).Tail))
		off[i+1] = off[i] + rows
		maxRows = max(maxRows, rows)
	}
	cands := make([]ruleCand, off[len(in)])
	workers := min(runtime.GOMAXPROCS(0), len(in))
	mine := ruleMiner{
		m: m, head: head, opt: opt, in: in, off: off, used: used, cands: cands,
		ix:         CountingIndex(m.Table),
		baseCounts: m.Table.ValueCounts(head),
		prog:       runopt.NewMeter(runopt.PhaseRules, len(in), opt.Run.Func()),
	}
	// Every worker's scratch table is carved from one cell slab; the
	// calling goroutine is worker 0.
	n := maxRows * (1 + k)
	cells := make([]int32, workers*n)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[w] = mine.run(ctx, cells[w*n:(w+1)*n])
		}()
	}
	errs[0] = mine.run(ctx, cells[:n])
	wg.Wait()
	// A canceled ctx is the answer even beside another worker's fill
	// error, and even when the last edge finished after every
	// worker's final poll.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	kept := 0
	for i := range in {
		kept += copy(cands[kept:], cands[off[i]:off[i]+used[i]])
	}
	cands = cands[:kept]
	// Rank by Support*Confidence, then Confidence; ties keep mining
	// order (edge, then row), which makes the sort stable.
	slices.SortFunc(cands, func(a, b ruleCand) int {
		if sa, sb := a.supp*a.conf, b.supp*b.conf; sa != sb {
			return cmp.Compare(sb, sa)
		}
		if c := cmp.Compare(b.conf, a.conf); c != 0 {
			return c
		}
		if a.edge != b.edge {
			return cmp.Compare(a.edge, b.edge)
		}
		return cmp.Compare(a.row, b.row)
	})
	if opt.MaxRules > 0 && len(cands) > opt.MaxRules {
		cands = cands[:opt.MaxRules]
	}
	return materializeRules(cands, head, k), nil
}

// ruleMiner is one MineRulesContext call's shared state: its workers
// claim in-edges through next and write disjoint ranges of cands.
type ruleMiner struct {
	m          *Model
	head       int
	opt        MineOptions
	in         []int32
	off, used  []int
	cands      []ruleCand
	ix         *table.Index
	baseCounts []int
	prog       *runopt.Meter
	next       atomic.Int64
}

// run claims and mines edges until none remain, ctx is canceled, or a
// table fails to fill. cells is the worker's scratch for one table.
func (r *ruleMiner) run(ctx context.Context, cells []int32) error {
	chk := runopt.NewChecker(ctx, r.opt.Run.Stride(), 1)
	k := r.m.Table.K()
	var at AssociationTable
	n := r.m.Table.NumRows()
	for {
		i := int(r.next.Add(1) - 1)
		if i >= len(r.in) {
			return nil
		}
		if err := chk.Tick(); err != nil {
			r.next.Store(int64(len(r.in)))
			return err
		}
		tail := r.m.H.Edge(int(r.in[i])).Tail
		rows := atRows(k, len(tail))
		at.Counts, at.HeadCounts = cells[:rows:rows], cells[rows:rows*(1+k)]
		if err := at.FillFrom(r.m.Table, r.ix, tail, r.head); err != nil {
			r.next.Store(int64(len(r.in)))
			return err
		}
		dst := r.cands[r.off[i]:r.off[i]:r.off[i+1]]
		r.used[i] = len(appendRuleCands(dst, &at, tail, int32(i), r.opt, r.baseCounts, n))
		r.prog.Tick(1)
	}
}

// atRows is the row count k^t of an association table with t tail
// attributes.
func atRows(k, t int) int {
	rows := 1
	for range t {
		rows *= k
	}
	return rows
}

// ruleCand is a mined rule before materialization: the edge's
// canonical tail and position, the association-table row that encodes
// the tail values, and the row's consequent and quality measures.
type ruleCand struct {
	tail             []int
	row              int
	edge             int32 // position among the head's in-edges
	best             table.Value
	supp, conf, lift float64
}

// appendRuleCands appends a candidate for every row of at that passes
// the opt thresholds. tail is the edge's canonical tail (the same ids
// as at.Tail, which is refilled for the next edge) and edge its
// position among the head's in-edges; baseCounts and n give the head
// values' base rates for lift.
func appendRuleCands(cands []ruleCand, at *AssociationTable, tail []int, edge int32, opt MineOptions, baseCounts []int, n int) []ruleCand {
	for row := range at.NumRows() {
		supp := at.Support(row)
		if supp == 0 || supp < opt.MinSupport {
			continue
		}
		conf := at.Confidence(row)
		if conf < opt.MinConfidence {
			continue
		}
		best, _ := at.Best(row)
		c := ruleCand{tail: tail, row: row, edge: edge, best: best, supp: supp, conf: conf}
		if base := float64(baseCounts[best-1]) / float64(n); base > 0 {
			c.lift = conf / base
		}
		cands = append(cands, c)
	}
	return cands
}

// materializeRules builds the ScoredRules of cands. All antecedent
// Items share one slab and all consequents another, so the result
// costs three allocations however many rules it holds.
func materializeRules(cands []ruleCand, head, k int) []ScoredRule {
	if len(cands) == 0 {
		return nil
	}
	nx := 0
	for _, c := range cands {
		nx += len(c.tail)
	}
	xs, ys := make([]Item, nx), make([]Item, len(cands))
	out := make([]ScoredRule, len(cands))
	for i, c := range cands {
		x := xs[:len(c.tail):len(c.tail)]
		xs = xs[len(c.tail):]
		// Row indexes are the tail values in base K, last attribute
		// least significant (see AssociationTable).
		row := c.row
		for j := len(c.tail) - 1; j >= 0; j-- {
			x[j] = Item{Attr: c.tail[j], Val: table.Value(row%k + 1)}
			row /= k
		}
		ys[i] = Item{Attr: head, Val: c.best}
		out[i] = ScoredRule{
			Rule:       Rule{X: x, Y: ys[i : i+1 : i+1]},
			Support:    c.supp,
			Confidence: c.conf,
			Lift:       c.lift,
		}
	}
	return out
}

// FormatRule renders a rule with the table's attribute names, e.g.
// "{A=3, C=12} => {B=13}". The string is sized first and written
// once, so a rule costs one allocation.
func FormatRule(tb *table.Table, r Rule) string {
	size := len("{} => {}")
	for _, side := range [2][]Item{r.X, r.Y} {
		for i, it := range side {
			if i > 0 {
				size += len(", ")
			}
			size += len(tb.AttrName(it.Attr)) + len("=") + valueDigits(it.Val)
		}
	}
	var b strings.Builder
	b.Grow(size)
	writeSide := func(items []Item) {
		b.WriteByte('{')
		var digits [3]byte
		for i, it := range items {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(tb.AttrName(it.Attr))
			b.WriteByte('=')
			b.Write(strconv.AppendUint(digits[:0], uint64(it.Val), 10))
		}
		b.WriteByte('}')
	}
	writeSide(r.X)
	b.WriteString(" => ")
	writeSide(r.Y)
	return b.String()
}

// valueDigits returns the decimal length of v.
func valueDigits(v table.Value) int {
	switch {
	case v >= 100:
		return 3
	case v >= 10:
		return 2
	}
	return 1
}
