package core

import (
	"cmp"
	"context"
	"fmt"
	"slices"

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
	// head) and the context-poll stride in edges (0 = every edge, the
	// natural unit since each rebuilds one association table). Held by
	// pointer so MineOptions stays comparable; never persisted.
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

// MineRulesContext is MineRules under a context: cancellation is
// polled per hyperedge (each rebuilds one association table from the
// training rows), and ctx.Err() is returned promptly, discarding
// partial results.
func MineRulesContext(ctx context.Context, m *Model, head int, opt MineOptions) ([]ScoredRule, error) {
	if head < 0 || head >= m.Table.NumAttrs() {
		return nil, fmt.Errorf("core: head attribute %d out of range", head)
	}
	if err := m.RequireRows(); err != nil {
		return nil, err
	}
	chk := runopt.NewChecker(ctx, opt.Run.Stride(), 1)
	prog := runopt.NewMeter(runopt.PhaseRules, len(m.H.In(head)), opt.Run.Func())
	baseCounts := m.Table.ValueCounts(head)
	n := m.Table.NumRows()
	// Rank compact candidates first and build Items only for the rules
	// that survive the MaxRules cap.
	var cands []ruleCand
	var at AssociationTable // one table's counts, refilled per edge
	for _, ei := range m.H.In(head) {
		if err := chk.Tick(); err != nil {
			return nil, err
		}
		e := m.H.Edge(int(ei))
		if err := at.Fill(m.Table, e.Tail, head); err != nil {
			return nil, err
		}
		cands = appendRuleCands(cands, &at, e.Tail, opt, baseCounts, n)
		prog.Tick(1)
	}
	slices.SortStableFunc(cands, func(a, b ruleCand) int {
		if sa, sb := a.supp*a.conf, b.supp*b.conf; sa != sb {
			return cmp.Compare(sb, sa)
		}
		return cmp.Compare(b.conf, a.conf)
	})
	if opt.MaxRules > 0 && len(cands) > opt.MaxRules {
		cands = cands[:opt.MaxRules]
	}
	return materializeRules(cands, head, m.Table.K()), nil
}

// ruleCand is a mined rule before materialization: the edge's
// canonical tail, the association-table row that encodes the tail
// values, and the row's consequent and quality measures.
type ruleCand struct {
	tail             []int
	row              int
	best             table.Value
	supp, conf, lift float64
}

// appendRuleCands appends a candidate for every row of at that passes
// the opt thresholds. tail is the edge's canonical tail (the same ids
// as at.Tail, which is refilled for the next edge); baseCounts and n
// give the head values' base rates for lift.
func appendRuleCands(cands []ruleCand, at *AssociationTable, tail []int, opt MineOptions, baseCounts []int, n int) []ruleCand {
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
		c := ruleCand{tail: tail, row: row, best: best, supp: supp, conf: conf}
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
// "{A=3, C=12} => {B=13}".
func FormatRule(tb *table.Table, r Rule) string {
	side := func(items []Item) string {
		s := "{"
		for i, it := range items {
			if i > 0 {
				s += ", "
			}
			s += fmt.Sprintf("%s=%d", tb.AttrName(it.Attr), it.Val)
		}
		return s + "}"
	}
	return side(r.X) + " => " + side(r.Y)
}
