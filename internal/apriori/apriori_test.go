package apriori

import (
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"hypermine/internal/core"
	"hypermine/internal/table"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// key is a human-readable itemset key for test-side set comparisons
// (the miner itself uses fixed-width uint64 encodings).
func key(items []core.Item) string {
	var sb strings.Builder
	for i, it := range items {
		if i > 0 {
			sb.WriteByte(';')
		}
		sb.WriteString(strconv.Itoa(it.Attr))
		sb.WriteByte('=')
		sb.WriteString(strconv.Itoa(int(it.Val)))
	}
	return sb.String()
}

// marketBasket is the §1.1 example domain: binary attributes with
// 1=absent, 2=present.
func marketBasket(t *testing.T) *table.Table {
	t.Helper()
	tb, err := table.FromRows([]string{"milk", "diapers", "beer", "eggs"}, 2, [][]table.Value{
		{2, 2, 2, 2},
		{2, 2, 1, 2},
		{2, 1, 2, 1},
		{1, 2, 2, 1},
		{2, 2, 2, 1},
		{2, 2, 1, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

func TestFrequentItemsetsMarketBasket(t *testing.T) {
	tb := marketBasket(t)
	freq, err := FrequentItemsets(tb, Options{MinSupport: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]Frequent{}
	for _, f := range freq {
		byKey[key(f.Items)] = f
	}
	// milk present: 5/6; milk+diapers present: 4/6.
	milk := key([]core.Item{{Attr: 0, Val: 2}})
	if f, ok := byKey[milk]; !ok || f.Count != 5 {
		t.Errorf("milk frequent = %+v", byKey[milk])
	}
	md := key([]core.Item{{Attr: 0, Val: 2}, {Attr: 1, Val: 2}})
	if f, ok := byKey[md]; !ok || f.Count != 4 || !almost(f.Support, 4.0/6) {
		t.Errorf("milk+diapers = %+v", byKey[md])
	}
	// milk+diapers+beer present: 2/6 < 0.5 -> absent.
	mdb := key([]core.Item{{Attr: 0, Val: 2}, {Attr: 1, Val: 2}, {Attr: 2, Val: 2}})
	if _, ok := byKey[mdb]; ok {
		t.Error("infrequent triple reported")
	}
}

func TestFrequentItemsetsValidation(t *testing.T) {
	tb := marketBasket(t)
	for _, tc := range []struct{ minSupport, minConfidence float64 }{
		{0, 0.5},
		{1.5, 0.5},
		{math.NaN(), 0.5}, // NaN passes x <= 0 || x > 1
		{0.5, -0.1},
		{0.5, 1.5},
		{0.5, math.NaN()},
	} {
		if _, err := Mine(tb, Options{MinSupport: tc.minSupport}, tc.minConfidence); err == nil {
			t.Errorf("MinSupport %v, minConfidence %v: want error", tc.minSupport, tc.minConfidence)
		}
	}
	empty, _ := table.New([]string{"A"}, 2)
	if _, err := FrequentItemsets(empty, Options{MinSupport: 0.5}); err == nil {
		t.Error("want error for empty table")
	}
}

func TestMaxLen(t *testing.T) {
	tb := marketBasket(t)
	freq, err := FrequentItemsets(tb, Options{MinSupport: 0.3, MaxLen: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range freq {
		if len(f.Items) > 2 {
			t.Fatalf("itemset %v exceeds MaxLen", f.Items)
		}
	}
}

func TestGenerateRulesMarketBasket(t *testing.T) {
	tb := marketBasket(t)
	rules, err := Mine(tb, Options{MinSupport: 0.5}, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) == 0 {
		t.Fatal("no rules")
	}
	// {diapers=2} => {milk=2}: supp(X u Y)=4/6, supp(X)=5/6 -> conf 0.8.
	found := false
	for _, r := range rules {
		if len(r.X) == 1 && len(r.Y) == 1 &&
			r.X[0] == (core.Item{Attr: 1, Val: 2}) && r.Y[0] == (core.Item{Attr: 0, Val: 2}) {
			found = true
			if !almost(r.Confidence, 0.8) || !almost(r.Support, 4.0/6) {
				t.Errorf("rule quality = %+v", r)
			}
			// Lift = 0.8 / (5/6) = 0.96.
			if !almost(r.Lift, 0.8/(5.0/6)) {
				t.Errorf("lift = %v", r.Lift)
			}
		}
		if r.Confidence < 0.7 {
			t.Errorf("rule below confidence threshold: %+v", r)
		}
	}
	if !found {
		t.Error("diapers => milk not generated")
	}
	// Ranked by confidence.
	for i := 1; i < len(rules); i++ {
		if rules[i].Confidence > rules[i-1].Confidence+1e-12 {
			t.Fatal("rules not ranked by confidence")
		}
	}
	if _, err := GenerateRules(nil, 1.5); err == nil {
		t.Error("want error for bad minConfidence")
	}
}

func randomTable(rng *rand.Rand, nAttrs, k, rows int) *table.Table {
	attrs := make([]string, nAttrs)
	for j := range attrs {
		attrs[j] = "A" + string(rune('a'+j))
	}
	tb, _ := table.New(attrs, k)
	row := make([]table.Value, nAttrs)
	for i := 0; i < rows; i++ {
		for j := range row {
			row[j] = table.Value(1 + rng.Intn(k))
		}
		_ = tb.AppendRow(row)
	}
	return tb
}

// Properties on random tables: (1) downward closure — every reported
// itemset's subsets are also reported; (2) supports agree with
// core.Support; (3) rule confidences agree with core.Confidence.
func TestAprioriProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tb := randomTable(rng, 4, 2+rng.Intn(2), 20+rng.Intn(60))
		minSupp := 0.15 + rng.Float64()*0.2
		freq, err := FrequentItemsets(tb, Options{MinSupport: minSupp})
		if err != nil {
			return false
		}
		keys := map[string]bool{}
		for _, f := range freq {
			keys[key(f.Items)] = true
		}
		for _, fs := range freq {
			if !almost(fs.Support, core.Support(tb, fs.Items)) {
				return false
			}
			if fs.Support < minSupp-1e-9 {
				return false
			}
			if len(fs.Items) > 1 {
				buf := make([]core.Item, 0, len(fs.Items)-1)
				for drop := range fs.Items {
					buf = buf[:0]
					for i, it := range fs.Items {
						if i != drop {
							buf = append(buf, it)
						}
					}
					if !keys[key(buf)] {
						return false // downward closure violated
					}
				}
			}
		}
		rules, err := GenerateRules(freq, 0.5)
		if err != nil {
			return false
		}
		for _, r := range rules {
			want := core.Confidence(tb, core.Rule{X: r.X, Y: r.Y})
			if !almost(r.Confidence, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestMinCountExactThreshold: the support cut must keep itemsets that
// meet the threshold exactly. The old int(MinSupport*float64(n))
// ceiling computed 0.07*100 = 7.000000000000001 and demanded 8 rows,
// silently dropping a 7-row itemset whose support is exactly 7%.
func TestMinCountExactThreshold(t *testing.T) {
	// 100 rows, one attribute taking value 2 in exactly 7 of them.
	tb, err := table.New([]string{"A", "B"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		v := table.Value(1)
		if i < 7 {
			v = 2
		}
		if err := tb.AppendRow([]table.Value{v, 1}); err != nil {
			t.Fatal(err)
		}
	}
	freq, err := FrequentItemsets(tb, Options{MinSupport: 0.07})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, f := range freq {
		if len(f.Items) == 1 && f.Items[0] == (core.Item{Attr: 0, Val: 2}) {
			found = true
			if f.Count != 7 {
				t.Errorf("count = %d, want 7", f.Count)
			}
		}
	}
	if !found {
		t.Error("itemset with support exactly 0.07 dropped at MinSupport=0.07")
	}

	// The cut must stay consistent with the reported Support division
	// across awkward thresholds and row counts.
	for _, tc := range []struct {
		minSupp float64
		n       int
	}{
		{0.07, 100}, {0.1, 30}, {0.3, 10}, {1.0 / 3.0, 6}, {0.15, 47}, {1, 13}, {1e-9, 5},
	} {
		got := minCountFor(tc.minSupp, tc.n)
		want := tc.n
		for c := 1; c <= tc.n; c++ {
			if float64(c)/float64(tc.n) >= tc.minSupp {
				want = c
				break
			}
		}
		if got != want {
			t.Errorf("minCountFor(%v, %d) = %d, want %d", tc.minSupp, tc.n, got, want)
		}
	}
}

// TestGenerateRulesExactConfidenceThreshold: a rule whose confidence
// equals minConfidence exactly must be kept.
func TestGenerateRulesExactConfidenceThreshold(t *testing.T) {
	tb := marketBasket(t)
	// {diapers=2} => {milk=2} has confidence exactly 4/5 = 0.8.
	rules, err := Mine(tb, Options{MinSupport: 0.5}, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range rules {
		if len(r.X) == 1 && len(r.Y) == 1 &&
			r.X[0] == (core.Item{Attr: 1, Val: 2}) && r.Y[0] == (core.Item{Attr: 0, Val: 2}) {
			found = true
		}
	}
	if !found {
		t.Error("rule with confidence exactly at threshold dropped")
	}
}

// TestFrequentItemsetsBitsMatchScan: every count the bitset-backed
// miner reports must equal the scan-based support count, and the
// reported itemset collection must be identical to a brute-force
// enumeration using scan counting on an index-free copy of the table.
func TestFrequentItemsetsBitsMatchScan(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 12; trial++ {
		tb := randomTable(rng, 3+rng.Intn(3), 2+rng.Intn(3), 30+rng.Intn(120))
		minSupp := 0.1 + rng.Float64()*0.3
		freq, err := FrequentItemsets(tb, Options{MinSupport: minSupp})
		if err != nil {
			t.Fatal(err)
		}
		// Clone carries no index, so core.SupportCount takes the scan
		// fallback there.
		scanTb := tb.Clone()
		got := map[string]int{}
		for _, f := range freq {
			if c := core.SupportCount(scanTb, f.Items); c != f.Count {
				t.Fatalf("trial %d: itemset %v bitset count %d, scan count %d", trial, f.Items, f.Count, c)
			}
			got[key(f.Items)] = f.Count
		}
		// Brute force over all attribute-distinct itemsets.
		var brute func(start int, cur []core.Item)
		total := 0
		brute = func(start int, cur []core.Item) {
			if len(cur) > 0 {
				c := core.SupportCount(scanTb, cur)
				frequent := float64(c)/float64(scanTb.NumRows()) >= minSupp
				if _, reported := got[key(cur)]; reported != frequent {
					t.Fatalf("trial %d: itemset %v reported=%v frequent=%v (count %d, minSupp %v)",
						trial, cur, reported, frequent, c, minSupp)
				}
				if frequent {
					total++
				}
			}
			for a := start; a < scanTb.NumAttrs(); a++ {
				for v := 1; v <= scanTb.K(); v++ {
					brute(a+1, append(cur, core.Item{Attr: a, Val: table.Value(v)}))
				}
			}
		}
		brute(0, nil)
		if total != len(freq) {
			t.Fatalf("trial %d: Apriori found %d itemsets, brute force %d", trial, len(freq), total)
		}
	}
}

// TestFrequentItemsetsLargeKScanFallback: above indexMaxK the miner
// must not build the dense index (whose memory scales with k) and
// must still return exactly the brute-force itemsets via the scan
// path.
func TestFrequentItemsetsLargeKScanFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	tb := randomTable(rng, 3, indexMaxK+8, 120)
	const minSupp = 0.02
	freq, err := FrequentItemsets(tb, Options{MinSupport: minSupp})
	if err != nil {
		t.Fatal(err)
	}
	if tb.IndexIfBuilt() != nil {
		t.Fatalf("index was built for k=%d > indexMaxK=%d", tb.K(), indexMaxK)
	}
	got := map[string]int{}
	for _, f := range freq {
		got[key(f.Items)] = f.Count
	}
	var brute func(start int, cur []core.Item)
	total := 0
	brute = func(start int, cur []core.Item) {
		if len(cur) > 0 {
			c := core.SupportCount(tb, cur)
			frequent := float64(c)/float64(tb.NumRows()) >= minSupp
			if _, reported := got[key(cur)]; reported != frequent {
				t.Fatalf("itemset %v reported=%v frequent=%v (count %d)", cur, reported, frequent, c)
			}
			if frequent {
				total++
			}
		}
		for a := start; a < tb.NumAttrs(); a++ {
			for v := 1; v <= tb.K(); v++ {
				brute(a+1, append(cur, core.Item{Attr: a, Val: table.Value(v)}))
			}
		}
	}
	brute(0, nil)
	if total != len(freq) {
		t.Fatalf("Apriori found %d itemsets, brute force %d", len(freq), total)
	}
}

// Exhaustive cross-check on a small instance: Apriori finds exactly
// the itemsets a brute-force enumeration finds.
func TestAprioriMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	tb := randomTable(rng, 3, 2, 30)
	const minSupp = 0.2
	freq, err := FrequentItemsets(tb, Options{MinSupport: minSupp})
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, f := range freq {
		got[key(f.Items)] = true
	}
	// Brute force: all itemsets over distinct attributes, sizes 1..3.
	var brute func(start int, cur []core.Item)
	count := 0
	brute = func(start int, cur []core.Item) {
		if len(cur) > 0 {
			if core.Support(tb, cur) >= minSupp {
				count++
				if !got[key(cur)] {
					t.Fatalf("brute-force itemset %v missed by Apriori", cur)
				}
			} else if got[key(cur)] {
				t.Fatalf("Apriori reported infrequent itemset %v", cur)
			}
		}
		for a := start; a < tb.NumAttrs(); a++ {
			for v := 1; v <= tb.K(); v++ {
				brute(a+1, append(cur, core.Item{Attr: a, Val: table.Value(v)}))
			}
		}
	}
	brute(0, nil)
	if count != len(freq) {
		t.Errorf("Apriori found %d itemsets, brute force %d", len(freq), count)
	}
}
