package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"hypermine/internal/table"
	"hypermine/internal/testutil"
)

func TestMineRulesInterestDB(t *testing.T) {
	tb := interestDB(t)
	m, err := Build(tb, Config{GammaEdge: 1.0, GammaPair: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	music := tb.AttrIndex("M")
	rules, err := MineRules(m, music, MineOptions{MinSupport: 0.3, MinConfidence: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) == 0 {
		t.Fatal("no rules mined")
	}
	// Example 3.5's rule {R=h, P=h} => {M=l} (supp 0.5, conf 0.75)
	// must be among them.
	found := false
	for _, r := range rules {
		if len(r.Rule.X) != 2 {
			continue
		}
		names := map[string]int{}
		for _, it := range r.Rule.X {
			names[tb.AttrName(it.Attr)] = int(it.Val)
		}
		if names["R"] == 3 && names["P"] == 3 && r.Rule.Y[0].Val == 1 {
			found = true
			if !almost(r.Support, 0.5) || !almost(r.Confidence, 0.75) {
				t.Errorf("rule quality = (%v, %v), want (0.5, 0.75)", r.Support, r.Confidence)
			}
			// Base rate of M=1 is 3/8; lift = 0.75 / 0.375 = 2.
			if !almost(r.Lift, 2.0) {
				t.Errorf("lift = %v, want 2", r.Lift)
			}
		}
	}
	if !found {
		t.Error("Example 3.5 rule not mined")
	}
	// Ranking: scores are non-increasing.
	for i := 1; i < len(rules); i++ {
		si := rules[i-1].Support * rules[i-1].Confidence
		sj := rules[i].Support * rules[i].Confidence
		if sj > si+1e-12 {
			t.Fatalf("rules not ranked: %v then %v", si, sj)
		}
	}
	// Thresholds are respected.
	for _, r := range rules {
		if r.Support < 0.3 || r.Confidence < 0.6 {
			t.Fatalf("rule below thresholds: %+v", r)
		}
	}
	// Cap works.
	capped, err := MineRules(m, music, MineOptions{MaxRules: 2})
	if err != nil || len(capped) != 2 {
		t.Errorf("capped = %d rules, %v", len(capped), err)
	}
	if _, err := MineRules(m, 99, MineOptions{}); err == nil {
		t.Error("want error for bad head")
	}
	// Thresholds outside [0, 1], NaN included, are errors; the bounds
	// themselves are not.
	for _, opt := range []MineOptions{
		{MinSupport: math.NaN()}, {MinConfidence: math.NaN()},
		{MinSupport: -0.1}, {MinSupport: 1.5}, {MinConfidence: -1}, {MinConfidence: 2},
	} {
		if _, err := MineRules(m, music, opt); err == nil {
			t.Errorf("%+v: want error", opt)
		}
	}
	if _, err := MineRules(m, music, MineOptions{MinSupport: 1, MinConfidence: 1}); err != nil {
		t.Errorf("thresholds of 1: %v", err)
	}
}

func TestFormatRule(t *testing.T) {
	tb := interestDB(t)
	r := Rule{X: []Item{{0, 3}, {1, 3}}, Y: []Item{{2, 1}}}
	got := FormatRule(tb, r)
	want := "{R=3, P=3} => {M=1}"
	if got != want {
		t.Errorf("FormatRule = %q, want %q", got, want)
	}
}

// TestFormatRuleMatchesSprintf: FormatRule's one-buffer rendering is
// byte-identical to the fmt form it replaced, for one- to three-item
// antecedents, values of one to three digits, and empty and long
// attribute names.
func TestFormatRuleMatchesSprintf(t *testing.T) {
	sprintfRule := func(tb *table.Table, r Rule) string {
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
	tb, err := table.New([]string{"a", "B", "Gamma", "attribute with spaces", "é"}, table.MaxK)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 500; trial++ {
		attrs := rng.Perm(tb.NumAttrs())
		nx := 1 + rng.Intn(MaxTail)
		r := Rule{X: make([]Item, nx), Y: []Item{{Attr: attrs[nx], Val: table.Value(1 + rng.Intn(table.MaxK))}}}
		for i := range r.X {
			r.X[i] = Item{Attr: attrs[i], Val: table.Value(1 + rng.Intn(table.MaxK))}
		}
		if got, want := FormatRule(tb, r), sprintfRule(tb, r); got != want {
			t.Fatalf("FormatRule = %q, want %q", got, want)
		}
	}
}

// TestFormatRuleAllocs: a rule renders with one allocation, its string.
func TestFormatRuleAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	tb := interestDB(t)
	r := Rule{X: []Item{{0, 3}, {1, 3}}, Y: []Item{{2, 1}}}
	if allocs := testing.AllocsPerRun(100, func() { FormatRule(tb, r) }); allocs != 1 {
		t.Errorf("FormatRule allocates %v times, want 1", allocs)
	}
}

// TestModelSnapshotRoundTrip: the interest-rate fixture's model
// survives a snapshot round trip with its EdgeACV cache intact and
// rebuilds the same 2-to-1 association table.
func TestModelSnapshotRoundTrip(t *testing.T) {
	tb := interestDB(t)
	m, err := Build(tb, Config{GammaEdge: 1.0, GammaPair: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, m, SaveOptions{}); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.H.NumEdges() != m.H.NumEdges() {
		t.Fatalf("edges %d != %d", back.H.NumEdges(), m.H.NumEdges())
	}
	if back.Table.NumRows() != tb.NumRows() || back.Table.K() != tb.K() {
		t.Fatal("table lost in round trip")
	}
	for a := 0; a < tb.NumAttrs(); a++ {
		for c := 0; c < tb.NumAttrs(); c++ {
			if back.EdgeACVAt(a, c) != m.EdgeACVAt(a, c) {
				t.Fatalf("EdgeACV mismatch at (%d,%d)", a, c)
			}
		}
	}
	// The loaded model is fully functional: ATs rebuild identically.
	at1, err := m.AssociationTableFor([]int{0, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	at2, err := back.AssociationTableFor([]int{0, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(at1.ACV(), at2.ACV()) {
		t.Error("loaded model produces different ATs")
	}
}

// scanCounts is the oracles' own association-table count, one scan of
// the training rows shared with no production code: the support count
// of every tail-value combination, and its split by head value, in
// AssociationTable row order (sorted tail, last attribute least
// significant).
func scanCounts(tb *table.Table, tail []int, head int) (counts, headCounts []int32) {
	st := append([]int(nil), tail...)
	sort.Ints(st)
	k := tb.K()
	rows := 1
	for range st {
		rows *= k
	}
	counts, headCounts = make([]int32, rows), make([]int32, rows*k)
	for i := 0; i < tb.NumRows(); i++ {
		row := 0
		for _, a := range st {
			row = row*k + int(tb.At(i, a)-1)
		}
		counts[row]++
		headCounts[row*k+int(tb.At(i, head)-1)]++
	}
	return counts, headCounts
}

// mineRulesOracle is the reference rule miner MineRules must match: it
// counts each hyperedge's association table with scanCounts, walks
// every tail-value combination recursively, materializes one
// ScoredRule per surviving row, sorts them stably by
// Support*Confidence (ties by Confidence), and truncates to MaxRules
// last.
func mineRulesOracle(m *Model, head int, opt MineOptions) []ScoredRule {
	baseCounts := m.Table.ValueCounts(head)
	n, k := m.Table.NumRows(), m.Table.K()
	var out []ScoredRule
	for _, ei := range m.H.In(head) {
		tail := m.H.Edge(int(ei)).Tail
		counts, headCounts := scanCounts(m.Table, tail, head)
		vals := make([]table.Value, len(tail))
		var walk func(depth, row int)
		walk = func(depth, row int) {
			if depth == len(tail) {
				supp := float64(counts[row]) / float64(n)
				if supp == 0 || supp < opt.MinSupport {
					return
				}
				best, bestCount := table.Value(1), int32(0)
				for y := range k {
					if c := headCounts[row*k+y]; c > bestCount {
						best, bestCount = table.Value(y+1), c
					}
				}
				conf := float64(bestCount) / float64(counts[row])
				if conf < opt.MinConfidence {
					return
				}
				x := make([]Item, len(tail))
				for i, a := range tail {
					x[i] = Item{Attr: a, Val: vals[i]}
				}
				r := ScoredRule{
					Rule:       Rule{X: x, Y: []Item{{Attr: head, Val: best}}},
					Support:    supp,
					Confidence: conf,
				}
				if base := float64(baseCounts[best-1]) / float64(n); base > 0 {
					r.Lift = conf / base
				}
				out = append(out, r)
				return
			}
			for v := 1; v <= k; v++ {
				vals[depth] = table.Value(v)
				walk(depth+1, row*k+(v-1))
			}
		}
		walk(0, 0)
	}
	sort.SliceStable(out, func(i, j int) bool {
		si := out[i].Support * out[i].Confidence
		sj := out[j].Support * out[j].Confidence
		if si != sj {
			return si > sj
		}
		return out[i].Confidence > out[j].Confidence
	})
	if opt.MaxRules > 0 && len(out) > opt.MaxRules {
		out = out[:opt.MaxRules]
	}
	return out
}

// TestMineRulesMatchesOracle: on seeded random models with tails of
// one to three attributes, MineRules equals the reference miner for
// every head, cap and threshold, and its result holds no spare
// capacity (a capped answer cached by the engine must not pin the
// dropped candidates).
func TestMineRulesMatchesOracle(t *testing.T) {
	cfgs := []Config{
		{GammaEdge: 1.0, GammaPair: 1.0, MaxTailSize: 2},
		{GammaEdge: 1.0, GammaPair: 1.0, GammaTriple: 1.0, MaxTailSize: 3},
	}
	opts := []MineOptions{{}, {MinSupport: 0.05, MinConfidence: 0.4}, {MinSupport: 0.2, MinConfidence: 0.6}}
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tb := randTable(t, rng, 5+int(seed), 2+int(seed%3), 150+40*int(seed))
		m, err := Build(tb, cfgs[seed%2])
		if err != nil {
			t.Fatal(err)
		}
		for head := 0; head < tb.NumAttrs(); head++ {
			for _, opt := range opts {
				for _, maxRules := range []int{0, 1, 10, 1_000_000} {
					opt.MaxRules = maxRules
					got, err := MineRules(m, head, opt)
					if err != nil {
						t.Fatal(err)
					}
					if want := mineRulesOracle(m, head, opt); !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %d head %d %+v: MineRules differs from the oracle\ngot  %d rules %+v\nwant %d rules %+v",
							seed, head, opt, len(got), got, len(want), want)
					}
					if cap(got) != len(got) {
						t.Fatalf("seed %d head %d %+v: cap %d != len %d", seed, head, opt, cap(got), len(got))
					}
				}
			}
		}
	}
}

// TestMineRulesAllocsIndependentOfDropped: MineRules materializes only
// the rules it returns, so keeping one rule costs as many allocations
// as keeping all of them, and far fewer than the candidates dropped.
func TestMineRulesAllocsIndependentOfDropped(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m, err := Build(randTable(t, rng, 8, 3, 400), Config{GammaEdge: 1.0, GammaPair: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	head := 0
	for v := range m.Table.NumAttrs() {
		if len(m.H.In(v)) > len(m.H.In(head)) {
			head = v
		}
	}
	all, err := MineRules(m, head, MineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(all) < 200 {
		t.Fatalf("fixture mines only %d candidates; the guard needs many", len(all))
	}
	allocs := func(maxRules int) float64 {
		return testing.AllocsPerRun(10, func() {
			if _, err := MineRules(m, head, MineOptions{MaxRules: maxRules}); err != nil {
				t.Fatal(err)
			}
		})
	}
	top1, keepAll := allocs(1), allocs(0)
	t.Logf("%d candidates: top-1 %v allocations, all %v", len(all), top1, keepAll)
	if top1 != keepAll {
		t.Errorf("top-1 costs %v allocations, keeping all %d rules %v: allocations track the rules kept", top1, len(all), keepAll)
	}
	if dropped := len(all) - 1; top1 > float64(dropped)/8 {
		t.Errorf("top-1 costs %v allocations for %d dropped candidates", top1, dropped)
	}
}
