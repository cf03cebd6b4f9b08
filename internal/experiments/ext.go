package experiments

import (
	"fmt"
	"io"
	"sort"
	"time"

	"hypermine/internal/core"
	"hypermine/internal/cover"
)

// Ext3to1Report showcases the thesis's future-work generalization: the
// builder run with MaxTailSize = 3 on one sector's series, comparing
// how much ACV the extra tail attribute buys over the best 2-to-1
// hyperedge per head.
type Ext3to1Report struct {
	Sector  string
	Series  []string
	Edges   int
	Pairs   int
	Triples int
	// Per head with at least one admitted triple: the best 3-to-1
	// ACV, the best 2-to-1 ACV, and the gain.
	Rows []Ext3to1Row
}

// Ext3to1Row compares the strongest 3-to-1 and 2-to-1 hyperedges into
// one head.
type Ext3to1Row struct {
	Head       string
	TripleTail []string
	TripleACV  float64
	PairACV    float64
}

// RunExt3to1 builds a C1-style model with triples enabled over the
// series of the largest sector (keeping the instance small enough for
// exhaustive pair mining plus seeded triple mining).
func RunExt3to1(e *Env) (*Ext3to1Report, error) {
	// Largest sector by series count.
	counts := map[string]int{}
	for _, s := range e.U.Series {
		counts[s.Sector]++
	}
	sector, best := "", -1
	for sec, c := range counts {
		if c > best || (c == best && sec < sector) {
			sector, best = sec, c
		}
	}
	var tickers []string
	for _, s := range e.U.Series {
		if s.Sector == sector {
			tickers = append(tickers, s.Ticker)
		}
	}
	inTb, _, err := e.InU.BuildTable(3)
	if err != nil {
		return nil, err
	}
	sub, err := inTb.SelectAttrs(tickers)
	if err != nil {
		return nil, err
	}
	cfg := core.C1()
	cfg.MaxTailSize = 3
	cfg.GammaTriple = 1.02
	model, err := core.Build(sub, cfg)
	if err != nil {
		return nil, err
	}
	rep := &Ext3to1Report{Sector: sector, Series: tickers}
	bestPair := map[int]float64{}
	type bestT struct {
		acv  float64
		tail []int
	}
	bestTriple := map[int]bestT{}
	for _, ed := range model.H.Edges() {
		switch len(ed.Tail) {
		case 1:
			rep.Edges++
		case 2:
			rep.Pairs++
			if ed.Weight > bestPair[ed.Head[0]] {
				bestPair[ed.Head[0]] = ed.Weight
			}
		case 3:
			rep.Triples++
			if ed.Weight > bestTriple[ed.Head[0]].acv {
				bestTriple[ed.Head[0]] = bestT{ed.Weight, ed.Tail}
			}
		}
	}
	heads := make([]int, 0, len(bestTriple))
	for h := range bestTriple {
		heads = append(heads, h)
	}
	sort.Ints(heads)
	for _, h := range heads {
		bt := bestTriple[h]
		row := Ext3to1Row{Head: sub.AttrName(h), TripleACV: bt.acv, PairACV: bestPair[h]}
		for _, t := range bt.tail {
			row.TripleTail = append(row.TripleTail, sub.AttrName(t))
		}
		rep.Rows = append(rep.Rows, row)
	}
	return rep, nil
}

// Render writes the extension summary.
func (r *Ext3to1Report) Render(w io.Writer) error {
	fmt.Fprintf(w, "== Extension: 3-to-1 hyperedges on sector %s (%d series) ==\n", r.Sector, len(r.Series))
	fmt.Fprintf(w, "admitted: %d directed edges, %d 2-to-1, %d 3-to-1\n", r.Edges, r.Pairs, r.Triples)
	for _, row := range r.Rows {
		fmt.Fprintf(w, "  %v -> %s  ACV %.3f (best 2-to-1: %.3f, gain %+.3f)\n",
			row.TripleTail, row.Head, row.TripleACV, row.PairACV, row.TripleACV-row.PairACV)
	}
	return nil
}

// AblationReport quantifies the builder and dominator design choices on
// the shared environment: model size and build time under each builder
// variant, and dominator size/time per algorithm variant.
type AblationReport struct {
	Builder   []AblationBuildRow
	Dominator []AblationDomRow
}

// AblationBuildRow is one builder variant measurement.
type AblationBuildRow struct {
	Variant string
	Edges   int
	Elapsed time.Duration
}

// AblationDomRow is one dominator variant measurement.
type AblationDomRow struct {
	Variant  string
	Size     int
	Coverage float64
	Elapsed  time.Duration
}

// RunAblations measures the builder and dominator variants.
func RunAblations(e *Env) (*AblationReport, error) {
	b, err := e.Built("C1")
	if err != nil {
		return nil, err
	}
	rep := &AblationReport{}
	variants := []struct {
		name string
		cfg  core.Config
	}{
		{"C1 exhaustive pairs", core.C1()},
		{"C1 edge-seeded pairs", func() core.Config { c := core.C1(); c.Candidates = core.EdgeSeeded; return c }()},
		{"C1 edges only", func() core.Config { c := core.C1(); c.MaxTailSize = 1; return c }()},
		{"gamma off (k=3)", core.Config{K: 3, GammaEdge: 1, GammaPair: 1}},
		{"C1 serial", func() core.Config { c := core.C1(); c.Parallelism = 1; return c }()},
	}
	for _, v := range variants {
		start := time.Now()
		m, err := core.Build(b.InTable, v.cfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: ablation %q: %w", v.name, err)
		}
		rep.Builder = append(rep.Builder, AblationBuildRow{
			Variant: v.name,
			Edges:   m.H.NumEdges(),
			Elapsed: time.Since(start),
		})
	}
	all := make([]int, b.Model.H.NumVertices())
	for i := range all {
		all[i] = i
	}
	domVariants := []struct {
		name string
		run  func() (*cover.Result, error)
	}{
		{"Algorithm 5", func() (*cover.Result, error) {
			return cover.DominatorGreedyDS(b.Model.H, all, cover.Options{})
		}},
		{"Algorithm 6 plain", func() (*cover.Result, error) {
			return cover.DominatorSetCover(b.Model.H, all, cover.Options{})
		}},
		{"Algorithm 6 + Enh 1+2", func() (*cover.Result, error) {
			return cover.DominatorSetCover(b.Model.H, all, cover.Options{Enhancement1: true, Enhancement2: true})
		}},
	}
	for _, v := range domVariants {
		start := time.Now()
		res, err := v.run()
		if err != nil {
			return nil, fmt.Errorf("experiments: ablation %q: %w", v.name, err)
		}
		rep.Dominator = append(rep.Dominator, AblationDomRow{
			Variant:  v.name,
			Size:     len(res.DomSet),
			Coverage: res.CoverageFraction(),
			Elapsed:  time.Since(start),
		})
	}
	return rep, nil
}

// Render writes both ablation tables.
func (r *AblationReport) Render(w io.Writer) error {
	fmt.Fprintln(w, "== Ablations ==")
	fmt.Fprintln(w, "builder variant              edges     time")
	for _, row := range r.Builder {
		fmt.Fprintf(w, "  %-26s %7d  %v\n", row.Variant, row.Edges, row.Elapsed.Round(time.Millisecond))
	}
	fmt.Fprintln(w, "dominator variant            size  coverage  time")
	for _, row := range r.Dominator {
		fmt.Fprintf(w, "  %-26s %4d  %7.0f%%  %v\n", row.Variant, row.Size, 100*row.Coverage, row.Elapsed.Round(time.Millisecond))
	}
	return nil
}
