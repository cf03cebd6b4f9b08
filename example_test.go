package hypermine_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"

	"hypermine"
)

// The Examples drop errors: any failure changes the printed output,
// and go test reports the difference.

// Example mines the paper's personal-interest database (Table 3.6),
// reads off the Example 3.5 rule, lists the 2-to-1 hyperedges into
// music, and predicts music interest from reading and playing.
func Example() {
	tb, _ := hypermine.TableFromRows(
		[]string{"read", "play", "music", "eat"}, 3,
		[][]hypermine.Value{
			{3, 3, 1, 2}, {2, 3, 2, 2}, {1, 1, 3, 3}, {2, 1, 3, 2},
			{3, 3, 1, 2}, {3, 3, 2, 2}, {2, 2, 2, 2}, {3, 3, 1, 3},
		})
	x := []hypermine.Item{{Attr: 0, Val: 3}, {Attr: 1, Val: 3}}
	rule := hypermine.Rule{X: x, Y: []hypermine.Item{{Attr: 2, Val: 1}}}
	fmt.Printf("Supp = %.3f\n", hypermine.Support(tb, x))
	fmt.Printf("Conf = %.2f\n", hypermine.Confidence(tb, rule))

	// γ = 1 admits every edge at least as good as the majority guess.
	model, _ := hypermine.Build(tb, hypermine.Config{GammaEdge: 1.0, GammaPair: 1.0})
	for _, id := range model.H.In(2) {
		if e := model.H.Edge(int(id)); e.IsTwoToOne() {
			fmt.Printf("{%s, %s} -> music ACV %.3f\n", tb.AttrName(e.Tail[0]), tb.AttrName(e.Tail[1]), e.Weight)
		}
	}
	abc, _ := hypermine.NewClassifier(model, []int{0, 1}, []int{2, 3})
	music, conf, _ := abc.Predict([]hypermine.Value{3, 3}, 2)
	fmt.Printf("music for read=h, play=h: %s (confidence %.2f)\n",
		[]string{"low", "moderate", "high"}[music-1], conf)
	// Output:
	// Supp = 0.500
	// Conf = 0.75
	// {read, play} -> music ACV 0.875
	// {read, eat} -> music ACV 0.750
	// {play, eat} -> music ACV 0.750
	// music for read=h, play=h: low (confidence 1.00)
}

// ExampleBuild constructs an association hypergraph and inspects the
// association confidence value of a 2-to-1 hyperedge.
func ExampleBuild() {
	tb, _ := hypermine.TableFromRows(
		[]string{"A", "B", "X"}, 2,
		[][]hypermine.Value{
			{1, 1, 1}, {1, 2, 2}, {2, 1, 2}, {2, 2, 1},
			{1, 1, 1}, {1, 2, 2}, {2, 1, 2}, {2, 2, 1},
		})
	model, _ := hypermine.Build(tb, hypermine.Config{GammaEdge: 1.0, GammaPair: 1.0})
	// X = A xor B: the pair determines X exactly, singles know nothing.
	fmt.Printf("ACV({A,B} -> X) = %.2f\n", model.H.Weight([]int{0, 1}, []int{2}))
	fmt.Printf("ACV({A} -> X)   = %.2f\n", model.EdgeACVAt(0, 2))
	// Output:
	// ACV({A,B} -> X) = 1.00
	// ACV({A} -> X)   = 0.50
}

// ExampleDiscretizeMapped discretizes the paper's patient database
// (Table 3.1) with its floor(a/10) rule, reads off the Example 3.3
// rule, and prints the nonempty rows of the ({Age, Chol} -> BP)
// association table.
func ExampleDiscretizeMapped() {
	raw := [][]float64{
		{25, 62, 32, 12, 38, 39, 41, 85},         // Age
		{105, 160, 125, 95, 129, 121, 134, 125},  // Cholesterol
		{135, 165, 139, 105, 135, 117, 145, 155}, // Blood pressure
		{75, 85, 71, 67, 75, 71, 73, 78},         // Heart rate
	}
	cols := make([][]hypermine.Value, len(raw))
	k := 0
	for j, col := range raw {
		// The decades are renumbered densely onto 1..k.
		vals, kj, _ := hypermine.DiscretizeMapped(col, func(v float64) int { return int(v / 10) })
		cols[j], k = vals, max(k, kj)
	}
	tb, _ := hypermine.TableFromColumns([]string{"Age", "Chol", "BP", "HR"}, k, cols)
	// Example 3.3: age in the 30s and cholesterol in the 120s imply
	// blood pressure in the 130s. Patient 3 (32, 125, 139) holds all three.
	x := []hypermine.Item{{Attr: 0, Val: cols[0][2]}, {Attr: 1, Val: cols[1][2]}}
	rule := hypermine.Rule{X: x, Y: []hypermine.Item{{Attr: 2, Val: cols[2][2]}}}
	fmt.Printf("Supp = %.3f\nConf = %.3f\n", hypermine.Support(tb, x), hypermine.Confidence(tb, rule))

	at, _ := hypermine.BuildAssociationTable(tb, []int{0, 1}, 2)
	fmt.Printf("k = %d: %d rows, ACV %.3f (null ACV %.3f)\n",
		tb.K(), at.NumRows(), at.ACV(), hypermine.NullACV(tb, 2))
	for row := 0; row < at.NumRows(); row++ {
		if at.Support(row) > 0 {
			best, _ := at.Best(row)
			fmt.Printf("row %2d: supp %.3f -> BP code %d (conf %.2f)\n", row, at.Support(row), best, at.Confidence(row))
		}
	}
	// Output:
	// Supp = 0.375
	// Conf = 0.667
	// k = 6: 36 rows, ACV 0.875 (null ACV 0.375)
	// row  0: supp 0.125 -> BP code 1 (conf 1.00)
	// row  7: supp 0.125 -> BP code 3 (conf 1.00)
	// row 14: supp 0.375 -> BP code 3 (conf 0.67)
	// row 21: supp 0.125 -> BP code 4 (conf 1.00)
	// row 28: supp 0.125 -> BP code 6 (conf 1.00)
	// row 32: supp 0.125 -> BP code 5 (conf 1.00)
}

// ExampleDiscretizeColumns bins the paper's gene database (Table 3.3)
// into under-, steady- and over-expressed and reads off Example 3.4.
func ExampleDiscretizeColumns() {
	tb, _ := hypermine.DiscretizeColumns([]string{"G1", "G2", "G3", "G4"}, [][]float64{
		{54.23, 541.21, 321.67, 123.87, 388.44, 399.98, 414.33, 855.78},
		{66.22, 324.21, 125.98, 95.54, 129.33, 121.54, 134.73, 125.93},
		{342.32, 165.21, 139.43, 105.88, 135.65, 117.55, 145.32, 155.76},
		{422.21, 852.21, 71.11, 678.65, 754.32, 719.33, 733.22, 789.43},
	}, hypermine.EquiWidth{Bins: 3, Min: 0, Max: 999})
	// G2 and G3 under-expressed imply G4 over-expressed.
	x := []hypermine.Item{{Attr: 1, Val: 1}, {Attr: 2, Val: 1}}
	rule := hypermine.Rule{X: x, Y: []hypermine.Item{{Attr: 3, Val: 3}}}
	fmt.Printf("Supp = %.3f\nConf = %.3f\n", hypermine.Support(tb, x), hypermine.Confidence(tb, rule))
	// Output:
	// Supp = 0.875
	// Conf = 0.857
}

// ExampleNewClassifier is the Chapter 6 scenario: a gene database
// with a disease status, where the classifier predicts the disease
// from gene expressions. The disease is planted on geneA = geneB = up.
//
// The model is mined under C1's gammas. At γ = 1 every edge whose ACV
// only ties the majority baseline is admitted too, and under
// Algorithm 9's Supp × Conf vote those ties outvote the planted pair:
// the classifier then predicts "absent" for the planted patient and
// scores exactly the base rate.
func ExampleNewClassifier() {
	rng := rand.New(rand.NewSource(7))
	tb, _ := hypermine.NewTable([]string{"geneA", "geneB", "geneC", "geneD", "disease"}, 3)
	for range 500 {
		a, b := hypermine.Value(1+rng.Intn(3)), hypermine.Value(1+rng.Intn(3))
		c, d := hypermine.Value(1+rng.Intn(3)), hypermine.Value(1+rng.Intn(3))
		disease := hypermine.Value(1) // 1 = absent, 2 = present
		if a == 3 && b == 3 || rng.Intn(12) == 0 {
			disease = 2
		}
		_ = tb.AppendRow([]hypermine.Value{a, b, c, d, disease})
	}
	model, _ := hypermine.Build(tb, hypermine.C1())
	for _, e := range model.H.Edges() {
		if e.Head[0] == 4 {
			fmt.Printf("%v -> disease, ACV %.3f\n", names(model.H, e.Tail), e.Weight)
		}
	}
	abc, _ := hypermine.NewClassifier(model, []int{0, 1, 2, 3}, []int{4})
	acc, _ := abc.Evaluate(tb)
	fmt.Printf("in-sample accuracy %.3f\n", acc[4])
	pred, conf, _ := abc.Predict([]hypermine.Value{3, 3, 1, 2}, 4)
	fmt.Printf("geneA=up geneB=up: disease %s (confidence %.2f)\n", []string{"absent", "present"}[pred-1], conf)
	// Output:
	// [geneA geneB] -> disease, ACV 0.924
	// in-sample accuracy 0.924
	// geneA=up geneB=up: disease present (confidence 1.00)
}

// ExampleMineClassicRules mines synthetic market baskets (1 = absent,
// 2 = present) with the classical Apriori baseline and with the
// hypergraph. Beer is planted on milk AND diapers, and butter follows
// bread. Apriori's top rules are about bread and butter; the
// hypergraph names milk and diapers as beer's joint predictor and as
// the leading items.
func ExampleMineClassicRules() {
	rng := rand.New(rand.NewSource(11))
	tb, _ := hypermine.NewTable([]string{"milk", "diapers", "beer", "bread", "butter", "eggs"}, 2)
	flip := func(p float64) hypermine.Value {
		if rng.Float64() < p {
			return 2
		}
		return 1
	}
	for range 1000 {
		milk, diapers := flip(0.6), flip(0.5)
		pBeer := 0.1
		if milk == 2 && diapers == 2 {
			pBeer = 0.8
		}
		beer := flip(pBeer)
		bread := flip(0.5)
		butter := bread
		if rng.Float64() < 0.15 {
			butter = flip(0.5)
		}
		_ = tb.AppendRow([]hypermine.Value{milk, diapers, beer, bread, butter, flip(0.4)})
	}
	rules, _ := hypermine.MineClassicRules(tb, hypermine.AprioriOptions{MinSupport: 0.2, MaxLen: 3}, 0.7)
	fmt.Printf("Apriori: %d rules; top 5:\n", len(rules))
	for _, r := range rules[:5] {
		fmt.Printf("%s supp=%.2f conf=%.2f lift=%.2f\n",
			hypermine.FormatRule(tb, hypermine.Rule{X: r.X, Y: r.Y}), r.Support, r.Confidence, r.Lift)
	}

	model, _ := hypermine.Build(tb, hypermine.Config{GammaEdge: 1.02, GammaPair: 1.02})
	var best hypermine.Hyperedge
	for _, id := range model.H.In(2) {
		if e := model.H.Edge(int(id)); e.Weight > best.Weight {
			best = e
		}
	}
	fmt.Printf("hypergraph: %d edges; best into beer %v, ACV %.3f (null ACV %.3f)\n",
		model.H.NumEdges(), names(model.H, best.Tail), best.Weight, hypermine.NullACV(tb, 2))
	dom, _ := hypermine.LeadingIndicators(model.H, nil, hypermine.DominatorOptions{})
	fmt.Printf("leading items %v cover %.0f%%\n", names(model.H, dom.DomSet), 100*dom.CoverageFraction())
	// Output:
	// Apriori: 42 rules; top 5:
	// {diapers=2, bread=2} => {butter=2} supp=0.24 conf=0.95 lift=1.89
	// {diapers=2, butter=1} => {bread=1} supp=0.23 conf=0.95 lift=1.90
	// {butter=1, eggs=1} => {bread=1} supp=0.30 conf=0.94 lift=1.88
	// {beer=1, bread=2} => {butter=2} supp=0.33 conf=0.94 lift=1.87
	// {diapers=2, butter=2} => {bread=2} supp=0.24 conf=0.94 lift=1.89
	// hypergraph: 10 edges; best into beer [milk diapers], ACV 0.853 (null ACV 0.692)
	// leading items [milk diapers] cover 83%
}

// Example_finance runs the Chapter 5 pipeline on a synthetic S&P-style
// universe: discretization, the C1 hypergraph, weighted in-degree,
// t-clustering on association similarity, a leading indicator on the
// top 40% of edges, and in- and out-of-sample classification.
func Example_finance() {
	gen := hypermine.DefaultGenConfig()
	gen.NumSeries, gen.NumDays = 60, 1200
	u, _ := hypermine.Generate(gen)
	cut := u.Days() * 85 / 100 // the last 15% of days is the out-sample year
	inU, _ := u.Window(0, cut)
	outU, _ := u.Window(cut, u.Days())
	trainTb, disc, _ := inU.BuildTable(3)
	testTb, _ := disc.Apply(outU)
	model, _ := hypermine.Build(trainTb, hypermine.C1())
	h := model.H
	st := h.EdgeStats()
	fmt.Printf("C1: %d directed edges (mean ACV %.3f), %d 2-to-1 (mean ACV %.3f)\n",
		st.DirectedEdges, st.MeanACVEdges, st.TwoToOne, st.MeanACVTwoToOne)

	all, best := make([]int, h.NumVertices()), 0
	for v := range all {
		all[v] = v
		if h.WeightedInDegree(v) > h.WeightedInDegree(best) {
			best = v
		}
	}
	fmt.Printf("most predictable: %s (weighted in-degree %.2f)\n", h.VertexName(best), h.WeightedInDegree(best))

	g, _ := hypermine.BuildSimilarityGraph(h, all)
	cl, _ := hypermine.TClustering(len(all), 12, g.Dist, 0)
	sectors := make([]string, len(u.Series))
	for i, s := range u.Series {
		sectors[i] = s.Sector
	}
	purity, _ := hypermine.SectorPurity(cl, sectors)
	fmt.Printf("t = 12: mean diameter %.3f, sector purity %.2f\n", cl.MeanDiameter(g.Dist), purity)

	th, _ := h.TopFractionThreshold(0.40)
	dom, _ := hypermine.LeadingIndicators(h.FilterByWeight(th), nil, hypermine.DominatorOptions{})
	fmt.Printf("leading indicator %v covers %.0f%%\n", names(h, dom.DomSet), 100*dom.CoverageFraction())

	var targets []int
	for v, covered := range dom.Covered {
		if covered && !slices.Contains(dom.DomSet, v) {
			targets = append(targets, v)
		}
	}
	abc, _ := hypermine.NewClassifier(model, dom.DomSet, targets)
	inConf, _ := abc.Evaluate(trainTb)
	outConf, _ := abc.Evaluate(testTb)
	fmt.Printf("%d targets: in-sample %.3f, out-sample %.3f (chance 0.333)\n",
		len(targets), hypermine.MeanConfidence(inConf), hypermine.MeanConfidence(outConf))
	// Output:
	// C1: 3280 directed edges (mean ACV 0.410), 38462 2-to-1 (mean ACV 0.432)
	// most predictable: CG04 (weighted in-degree 408.32)
	// t = 12: mean diameter 0.693, sector purity 0.92
	// leading indicator [GT SV04 CG01 E02 JNJ T03] covers 100%
	// 54 targets: in-sample 0.460, out-sample 0.468 (chance 0.333)
}

// ExampleNewQueryServer serves a mined model over HTTP and talks to it
// as a remote client would: model detail, classify, batch classify,
// similarity ranking, rules, a hot reload by snapshot PUT, and /stats.
func ExampleNewQueryServer() {
	gen := hypermine.DefaultGenConfig()
	gen.NumSeries, gen.NumDays = 24, 500
	u, _ := hypermine.Generate(gen)
	tb, _, _ := u.BuildTable(3)
	model, _ := hypermine.Build(tb, hypermine.C1())
	var snap bytes.Buffer
	_ = hypermine.WriteModelSnapshot(&snap, model, hypermine.SaveOptions{})

	reg := hypermine.NewModelRegistry(hypermine.RegistryOptions{})
	_, _ = reg.Load("spx", model)
	quiet := hypermine.WithLogger(slog.New(slog.DiscardHandler))
	srv := httptest.NewServer(hypermine.NewQueryServer(reg, quiet).Handler())
	defer srv.Close()
	base := srv.URL + "/v1/models/spx"

	var detail struct {
		Edges     int      `json:"edges"`
		Dominator []string `json:"dominator"`
		Targets   []string `json:"targets"`
		Coverage  float64  `json:"coverage"`
	}
	call("GET", base, nil, &detail)
	fmt.Printf("model: %d edges, dominator %v covering %.0f%%\n", detail.Edges, detail.Dominator, 100*detail.Coverage)

	// Classify the first target from values of the dominator (its inputs).
	target, values := detail.Targets[0], map[string]int{}
	for i, a := range detail.Dominator {
		values[a] = 1 + i%3
	}
	var cls struct {
		Value      int     `json:"value"`
		Confidence float64 `json:"confidence"`
	}
	call("POST", base+"/classify", map[string]any{"target": target, "values": values}, &cls)
	fmt.Printf("classify %s given %v: %d (confidence %.2f)\n", target, values, cls.Value, cls.Confidence)
	// A batch row carries the dominator's values in dominator order.
	var batch struct {
		Values []int `json:"values"`
	}
	rows := [][]int{{1, 2}, {2, 3}, {3, 1}}
	call("POST", base+"/classify:batch", map[string]any{"target": target, "rows": rows}, &batch)
	fmt.Printf("batch %v: %v\n", rows, batch.Values)

	var sim struct {
		Neighbors []struct {
			Name     string  `json:"name"`
			Distance float64 `json:"distance"`
		} `json:"neighbors"`
	}
	call("GET", base+"/similar?a="+detail.Dominator[0]+"&top=3", nil, &sim)
	fmt.Printf("most similar to %s:", detail.Dominator[0])
	for _, n := range sim.Neighbors {
		fmt.Printf(" %s (%.3f)", n.Name, n.Distance)
	}
	fmt.Println()
	var rules struct {
		Rules []struct {
			Rule       string  `json:"rule"`
			Confidence float64 `json:"confidence"`
		} `json:"rules"`
	}
	call("GET", base+"/rules?head="+target+"&top=2", nil, &rules)
	for _, r := range rules.Rules {
		fmt.Printf("rule %s (conf %.2f)\n", r.Rule, r.Confidence)
	}

	// A hot reload publishes generation 2; answers stay the same.
	var put struct {
		Generation int  `json:"generation"`
		Swapped    bool `json:"swapped"`
	}
	call("PUT", base, snap.Bytes(), &put)
	fmt.Printf("reload: swapped %v, generation %d\n", put.Swapped, put.Generation)
	again := cls
	call("POST", base+"/classify", map[string]any{"target": target, "values": values}, &again)
	var stats struct {
		Queries  int64 `json:"queries"`
		Registry struct {
			Swaps int64 `json:"swaps"`
		} `json:"registry"`
	}
	call("GET", srv.URL+"/stats", nil, &stats)
	fmt.Printf("same answer after reload: %v; %d queries, %d swap\n", again.Value == cls.Value, stats.Queries, stats.Registry.Swaps)
	// Output:
	// model: 3712 edges, dominator [EMN BM01] covering 100%
	// classify HON given map[BM01:2 EMN:1]: 1 (confidence 1.00)
	// batch [[1 2] [2 3] [3 1]]: [1 3 1]
	// most similar to EMN: FDX (0.570) BM01 (0.600) AIG (0.602)
	// rule {CG02=3} => {HON=3} (conf 0.56)
	// rule {CG01=3} => {HON=3} (conf 0.54)
	// reload: swapped true, generation 2
	// same answer after reload: true; 6 queries, 1 swap
}

// call sends body (raw bytes, or a value to encode as JSON) to url and
// decodes the JSON answer into out. A failure is printed, so it shows
// in an Example's output.
func call(method, url string, body, out any) {
	raw, ok := body.([]byte)
	if !ok && body != nil {
		raw, _ = json.Marshal(body)
	}
	req, _ := http.NewRequest(method, url, bytes.NewReader(raw))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		fmt.Println(err)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		fmt.Println(method, url, resp.Status)
		return
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		fmt.Println(err)
	}
}

// names returns the vertex names of ids.
func names(h *hypermine.Hypergraph, ids []int) []string {
	out := make([]string, len(ids))
	for i, v := range ids {
		out[i] = h.VertexName(v)
	}
	return out
}

// ExampleLeadingIndicators computes a dominator for a small hand-built
// hypergraph (Definition 4.1).
func ExampleLeadingIndicators() {
	h, _ := hypermine.NewHypergraph([]string{"a", "b", "c", "d"})
	_ = h.AddEdge([]int{0}, []int{1}, 0.9)    // a -> b
	_ = h.AddEdge([]int{0, 1}, []int{2}, 0.8) // {a,b} -> c
	_ = h.AddEdge([]int{2}, []int{3}, 0.7)    // c -> d
	dom, _ := hypermine.LeadingIndicators(h, nil, hypermine.DominatorOptions{Complete: true})
	names := []string{}
	for _, v := range dom.DomSet {
		names = append(names, h.VertexName(v))
	}
	fmt.Println(names, dom.TargetCovered, "of", dom.TargetSize)
	// Output:
	// [a b c] 4 of 4
}

// ExampleFrequentItemsets runs the classical Apriori baseline on a
// market-basket table (1 = absent, 2 = present).
func ExampleFrequentItemsets() {
	tb, _ := hypermine.TableFromRows(
		[]string{"milk", "diapers", "beer"}, 2,
		[][]hypermine.Value{
			{2, 2, 2}, {2, 2, 1}, {2, 1, 2}, {1, 2, 2}, {2, 2, 2}, {2, 2, 2},
		})
	freq, _ := hypermine.FrequentItemsets(tb, hypermine.AprioriOptions{MinSupport: 0.6})
	for _, f := range freq {
		if len(f.Items) == 2 {
			fmt.Printf("%s supp=%.2f\n", hypermine.FormatRule(tb,
				hypermine.Rule{X: f.Items[:1], Y: f.Items[1:]}), f.Support)
		}
	}
	// Output:
	// {milk=2} => {diapers=2} supp=0.67
	// {milk=2} => {beer=2} supp=0.67
	// {diapers=2} => {beer=2} supp=0.67
}
