// Package cli implements the hypermine command-line tool: every
// subcommand is a method on App writing to an injected io.Writer, so
// the whole surface is testable without spawning processes.
// cmd/hypermine is a thin wrapper around Run.
//
// Subcommands:
//
//	discretize turn a prices CSV into a discretized table (§5.1.1)
//	build      mine a discretized CSV table into a binary model snapshot
//	model      load (verify) or append rows to a model snapshot
//	rules      mine top mva-type rules for a head attribute
//	frequent   classical Apriori baseline
//	degrees    print weighted in-/out-degrees of a model's hypergraph
//	top-edges  print the strongest incoming edges of a vertex
//	similar    print association-based similarity between two vertices
//	cluster    t-cluster the vertices of a model's hypergraph
//	dominator  compute a leading indicator (Algorithm 5 or 6)
//	classify   mine + dominate + classify a table end to end
//
// The binary snapshot (internal/core) is the one model format: build
// writes it, the hypermined daemon serves it, and the graph-query
// subcommands (degrees, top-edges, similar, cluster, dominator) read it
// with -model, while -in always names a CSV input. classify mines its
// -train table unless -model names a snapshot with rows.
//
// The query subcommands (similar, dominator, classify, rules) run
// through the same prepared-model engine (internal/engine) the
// serving daemon uses: one Engine per invocation, so a single CLI run
// that needs an artifact twice builds it once, and CLI answers are
// the serving answers by construction.
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"hypermine/internal/apriori"
	"hypermine/internal/classify"
	"hypermine/internal/cluster"
	"hypermine/internal/core"
	"hypermine/internal/delta"
	"hypermine/internal/engine"
	"hypermine/internal/hypergraph"
	"hypermine/internal/similarity"
	"hypermine/internal/table"
	"hypermine/internal/timeseries"
)

// App is the CLI with its output sink.
type App struct {
	out io.Writer
}

// New returns an App writing to out.
func New(out io.Writer) *App { return &App{out: out} }

// ErrUsage is returned when the arguments name no valid subcommand.
var ErrUsage = errors.New(`usage: hypermine <discretize|build|model|rules|frequent|degrees|top-edges|similar|cluster|dominator|classify> [flags]
run 'hypermine <subcommand> -h' for flags`)

// Run dispatches one subcommand; args excludes the program name. It
// is RunContext with a background context.
func (a *App) Run(args []string) error {
	return a.RunContext(context.Background(), args)
}

// RunContext dispatches one subcommand under a context: every
// subcommand that loads or computes anything non-trivial aborts
// promptly with ctx.Err() when it is canceled — cmd/hypermine wires
// SIGINT/SIGTERM into it, so ^C stops mining (or a similarity-graph
// build, or a snapshot verification) instead of leaving it to run to
// completion.
func (a *App) RunContext(ctx context.Context, args []string) error {
	if len(args) < 1 {
		return ErrUsage
	}
	switch args[0] {
	case "discretize":
		return a.cmdDiscretize(args[1:])
	case "build":
		return a.cmdBuild(ctx, args[1:])
	case "model":
		return a.cmdModel(ctx, args[1:])
	case "rules":
		return a.cmdRules(ctx, args[1:])
	case "frequent":
		return a.cmdFrequent(ctx, args[1:])
	case "degrees":
		return a.cmdDegrees(ctx, args[1:])
	case "top-edges":
		return a.cmdTopEdges(ctx, args[1:])
	case "similar":
		return a.cmdSimilar(ctx, args[1:])
	case "cluster":
		return a.cmdCluster(ctx, args[1:])
	case "dominator":
		return a.cmdDominator(ctx, args[1:])
	case "classify":
		return a.cmdClassify(ctx, args[1:])
	case "-h", "--help", "help":
		return ErrUsage
	}
	return fmt.Errorf("unknown subcommand %q\n%w", args[0], ErrUsage)
}

func (a *App) cmdDiscretize(args []string) error {
	fs := flag.NewFlagSet("discretize", flag.ExitOnError)
	in := fs.String("in", "prices.csv", "prices CSV (ticker,sector,subsector,d0,...)")
	out := fs.String("out", "table.csv", "output discretized table CSV")
	outTest := fs.String("out-test", "", "out-sample table CSV (requires -split)")
	k := fs.Int("k", 3, "value-set cardinality")
	split := fs.Float64("split", 0, "in-sample fraction of days (0 = all days)")
	_ = fs.Parse(args)

	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	u, err := timeseries.ReadPricesCSV(f)
	f.Close()
	if err != nil {
		return err
	}
	trainU := u
	var testU *timeseries.Universe
	if *split > 0 {
		if *split >= 1 {
			return fmt.Errorf("split %v outside (0,1)", *split)
		}
		cut := int(float64(u.Days()) * *split)
		if trainU, err = u.Window(0, cut); err != nil {
			return err
		}
		if testU, err = u.Window(cut, u.Days()); err != nil {
			return err
		}
	}
	tb, disc, err := trainU.BuildTable(*k)
	if err != nil {
		return err
	}
	if err := writeTableCSV(tb, *out); err != nil {
		return err
	}
	fmt.Fprintf(a.out, "wrote %dx%d table (k=%d) to %s\n", tb.NumRows(), tb.NumAttrs(), *k, *out)
	if *outTest != "" {
		if testU == nil {
			return fmt.Errorf("-out-test requires -split")
		}
		testTb, err := disc.Apply(testU)
		if err != nil {
			return err
		}
		if err := writeTableCSV(testTb, *outTest); err != nil {
			return err
		}
		fmt.Fprintf(a.out, "wrote %dx%d out-sample table to %s\n", testTb.NumRows(), testTb.NumAttrs(), *outTest)
	}
	return nil
}

func writeTableCSV(tb *table.Table, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tb.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readFile opens path and decodes it with read, closing the file
// either way — the one loading helper behind both input formats (CSV
// tables and binary snapshots).
func readFile[T any](path string, read func(io.Reader) (T, error)) (T, error) {
	f, err := os.Open(path)
	if err != nil {
		var zero T
		return zero, err
	}
	defer f.Close()
	return read(f)
}

func loadTable(path string, k int) (*table.Table, error) {
	return readFile(path, func(r io.Reader) (*table.Table, error) { return table.ReadCSV(r, k) })
}

// loadSnapshot reads a binary model snapshot from disk.
func loadSnapshot(path string) (*core.Model, error) {
	return readFile(path, core.ReadSnapshot)
}

// writeSnapshotFile writes model to path as a binary snapshot without
// ever leaving a partial file there: it encodes into a temporary file
// in the same directory, syncs and closes it with errors checked, and
// renames the result over path. On error path is untouched and the
// temporary is removed.
func writeSnapshotFile(path string, model *core.Model, opt core.SaveOptions) (err error) {
	f, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".*.tmp")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(f.Name())
		}
	}()
	// CreateTemp makes the file owner-only; a snapshot is meant to be
	// read by the serving daemon, like any file os.Create writes.
	if err := f.Chmod(0o644); err != nil {
		return err
	}
	if err := core.WriteSnapshot(f, model, opt); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(f.Name(), path)
}

// loadEngine loads a model snapshot and wraps it in the query engine
// the serving daemon uses, so CLI answers are serving answers.
// Row-less snapshots serve every graph query.
func loadEngine(modelPath string) (*engine.Engine, error) {
	m, err := loadSnapshot(modelPath)
	if err != nil {
		return nil, err
	}
	return engine.New(m, engine.Options{})
}

// cmdModel handles existing snapshots: `model load` verifies a
// snapshot and prints its summary, `model append` delta-appends CSV
// rows to one through internal/delta — the offline twin of the
// daemon's :append endpoint, bit-identical to re-mining the
// concatenated table. `build` writes new snapshots.
func (a *App) cmdModel(ctx context.Context, args []string) error {
	if len(args) < 1 {
		return errors.New(`usage: hypermine model <load|append> [flags]`)
	}
	switch args[0] {
	case "load":
		return a.cmdModelLoad(ctx, args[1:])
	case "append":
		return a.cmdModelAppend(ctx, args[1:])
	}
	return fmt.Errorf("unknown model subcommand %q (want load or append)", args[0])
}

func (a *App) cmdModelLoad(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("model load", flag.ExitOnError)
	in := fs.String("in", "model.snap", "snapshot path")
	_ = fs.Parse(args)

	model, err := loadSnapshot(*in)
	if err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	st := model.H.EdgeStats()
	rowsNote := fmt.Sprintf("%d rows", model.Table.NumRows())
	if model.RowsOmitted {
		rowsNote = "rows omitted (graph queries only)"
	}
	fmt.Fprintf(a.out, "model: %d attrs (k=%d), %s\n", model.Table.NumAttrs(), model.Table.K(), rowsNote)
	fmt.Fprintf(a.out, "graph: %d directed edges (mean ACV %.3f), %d 2-to-1 hyperedges (mean ACV %.3f), %d larger\n",
		st.DirectedEdges, st.MeanACVEdges, st.TwoToOne, st.MeanACVTwoToOne, st.Other)
	return nil
}

// cmdModelAppend delta-appends rows to a snapshot offline: load the
// model, extend its live dataset (internal/delta, count-maintained, so
// the result is bit-identical to re-mining the concatenated table),
// and write the updated snapshot back out.
func (a *App) cmdModelAppend(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("model append", flag.ExitOnError)
	in := fs.String("in", "model.snap", "snapshot path")
	rowsPath := fs.String("rows", "rows.csv", "CSV of rows to append (header must match the model's attributes)")
	out := fs.String("out", "", "output snapshot path (default: overwrite -in)")
	_ = fs.Parse(args)
	if *out == "" {
		*out = *in
	}

	model, err := loadSnapshot(*in)
	if err != nil {
		return err
	}
	tb, err := loadTable(*rowsPath, model.Table.K())
	if err != nil {
		return err
	}
	attrs := model.Table.Attrs()
	got := tb.Attrs()
	if len(got) != len(attrs) {
		return fmt.Errorf("rows CSV has %d columns, model has %d attributes", len(got), len(attrs))
	}
	for j := range got {
		if got[j] != attrs[j] {
			return fmt.Errorf("rows CSV column %d is %q, model attribute is %q", j, got[j], attrs[j])
		}
	}
	rows := make([][]table.Value, tb.NumRows())
	for i := range rows {
		rows[i] = tb.Row(i, nil)
	}

	ds, err := delta.NewContext(ctx, model, delta.Options{})
	if err != nil {
		return err
	}
	next, ch, err := ds.AppendRowsContext(ctx, rows)
	if err != nil {
		return err
	}

	if err := writeSnapshotFile(*out, next, core.SaveOptions{}); err != nil {
		return err
	}
	fmt.Fprintf(a.out, "appended %d rows: %d total, %d edges (%d -> %d, %d shared) -> %s\n",
		ch.Appended, next.Table.NumRows(), next.H.NumEdges(),
		ch.EdgesBefore, ch.EdgesAfter, ch.SharedEdges, *out)
	return nil
}

func configFlag(fs *flag.FlagSet) (preset *string, g1, g2 *float64) {
	preset = fs.String("config", "C1", "C1, C2, or 'custom'")
	g1 = fs.Float64("gamma1", 1.15, "gamma for directed edges (custom config)")
	g2 = fs.Float64("gamma2", 1.05, "gamma for 2-to-1 hyperedges (custom config)")
	return
}

func resolveConfig(preset string, g1, g2 float64, k int) (core.Config, error) {
	switch preset {
	case "C1":
		return core.C1(), nil
	case "C2":
		return core.C2(), nil
	case "custom":
		return core.Config{K: k, GammaEdge: g1, GammaPair: g2}, nil
	}
	return core.Config{}, fmt.Errorf("unknown config %q", preset)
}

func (a *App) cmdBuild(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("build", flag.ExitOnError)
	in := fs.String("in", "table.csv", "discretized table CSV")
	out := fs.String("out", "model.snap", "output model snapshot")
	omitRows := fs.Bool("omit-rows", false, "drop the training table (graph queries only)")
	preset, g1, g2 := configFlag(fs)
	_ = fs.Parse(args)
	tb, err := loadTable(*in, 0)
	if err != nil {
		return err
	}
	cfg, err := resolveConfig(*preset, *g1, *g2, tb.K())
	if err != nil {
		return err
	}
	cfg.K = tb.K()
	model, err := core.BuildContext(ctx, tb, cfg)
	if err != nil {
		return err
	}
	if err := writeSnapshotFile(*out, model, core.SaveOptions{OmitRows: *omitRows}); err != nil {
		return err
	}
	st := model.H.EdgeStats()
	fmt.Fprintf(a.out, "mined %d directed edges (mean ACV %.3f) and %d 2-to-1 hyperedges (mean ACV %.3f) -> %s\n",
		st.DirectedEdges, st.MeanACVEdges, st.TwoToOne, st.MeanACVTwoToOne, *out)
	return nil
}

func (a *App) cmdDegrees(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("degrees", flag.ExitOnError)
	modelIn := fs.String("model", "model.snap", "binary model snapshot")
	top := fs.Int("top", 25, "show the top-N by weighted in-degree")
	_ = fs.Parse(args)
	m, err := loadSnapshot(*modelIn)
	if err != nil {
		return err
	}
	h := m.H
	if err := ctx.Err(); err != nil {
		return err
	}
	type row struct {
		name    string
		in, out float64
	}
	rows := make([]row, h.NumVertices())
	for v := range rows {
		rows[v] = row{h.VertexName(v), h.WeightedInDegree(v), h.WeightedOutDegree(v)}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].in > rows[j].in })
	if *top < len(rows) {
		rows = rows[:*top]
	}
	fmt.Fprintln(a.out, "vertex  weighted-in  weighted-out")
	for _, r := range rows {
		fmt.Fprintf(a.out, "%-8s %10.3f %12.3f\n", r.name, r.in, r.out)
	}
	return nil
}

func (a *App) cmdTopEdges(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("top-edges", flag.ExitOnError)
	modelIn := fs.String("model", "model.snap", "binary model snapshot")
	node := fs.String("node", "", "vertex name")
	top := fs.Int("top", 5, "edges per class")
	_ = fs.Parse(args)
	m, err := loadSnapshot(*modelIn)
	if err != nil {
		return err
	}
	h := m.H
	if err := ctx.Err(); err != nil {
		return err
	}
	v := h.Vertex(*node)
	if v < 0 {
		return fmt.Errorf("unknown vertex %q", *node)
	}
	var edges, hypers []hypergraph.Edge
	for _, ei := range h.In(v) {
		e := h.Edge(int(ei))
		if e.IsDirectedEdge() {
			edges = append(edges, e)
		} else if e.IsTwoToOne() {
			hypers = append(hypers, e)
		}
	}
	byW := func(s []hypergraph.Edge) {
		sort.Slice(s, func(i, j int) bool { return s[i].Weight > s[j].Weight })
	}
	byW(edges)
	byW(hypers)
	print := func(label string, s []hypergraph.Edge) {
		fmt.Fprintf(a.out, "%s into %s:\n", label, *node)
		for i, e := range s {
			if i == *top {
				break
			}
			names := ""
			for j, t := range e.Tail {
				if j > 0 {
					names += ","
				}
				names += h.VertexName(t)
			}
			fmt.Fprintf(a.out, "  %s -> %s  ACV %.3f\n", names, *node, e.Weight)
		}
	}
	print("top directed edges", edges)
	print("top 2-to-1 hyperedges", hypers)
	return nil
}

func (a *App) cmdSimilar(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("similar", flag.ExitOnError)
	modelIn := fs.String("model", "model.snap", "binary model snapshot")
	nodeA := fs.String("a", "", "first vertex")
	nodeB := fs.String("b", "", "second vertex ('' = rank all against -a)")
	top := fs.Int("top", 10, "ranking size when -b is empty")
	_ = fs.Parse(args)
	eng, err := loadEngine(*modelIn)
	if err != nil {
		return err
	}
	resp, err := eng.Do(ctx, &engine.Request{Similar: &engine.SimilarRequest{A: *nodeA, B: *nodeB, Top: *top}})
	if err != nil {
		return err
	}
	sim := resp.Similar
	if *nodeB != "" {
		fmt.Fprintf(a.out, "in-sim(%s,%s)  = %.4f\n", *nodeA, *nodeB, *sim.InSim)
		fmt.Fprintf(a.out, "out-sim(%s,%s) = %.4f\n", *nodeA, *nodeB, *sim.OutSim)
		fmt.Fprintf(a.out, "distance       = %.4f\n", *sim.Distance)
		return nil
	}
	fmt.Fprintf(a.out, "most similar to %s (smallest distance):\n", *nodeA)
	for _, n := range sim.Neighbors {
		fmt.Fprintf(a.out, "  %-8s d=%.4f\n", n.Name, n.Distance)
	}
	return nil
}

func (a *App) cmdCluster(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("cluster", flag.ExitOnError)
	modelIn := fs.String("model", "model.snap", "binary model snapshot")
	t := fs.Int("t", 8, "number of clusters")
	_ = fs.Parse(args)
	m, err := loadSnapshot(*modelIn)
	if err != nil {
		return err
	}
	h := m.H
	n := h.NumVertices()
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	g, err := similarity.BuildGraphContext(ctx, h, all, similarity.GraphOptions{})
	if err != nil {
		return err
	}
	cl, err := cluster.TClustering(n, *t, g.Dist, 0)
	if err != nil {
		return err
	}
	fmt.Fprintf(a.out, "t=%d  diameter=%.3f  mean-diameter=%.3f  mean-distance=%.3f\n",
		*t, cl.Diameter(g.Dist), cl.MeanDiameter(g.Dist), g.MeanDistance())
	for ci := range cl.Centers {
		members := cl.Members(ci)
		fmt.Fprintf(a.out, "cluster %d @%s (%d members):", ci, h.VertexName(cl.Centers[ci]), len(members))
		for _, p := range members {
			fmt.Fprintf(a.out, " %s", h.VertexName(p))
		}
		fmt.Fprintln(a.out)
	}
	return nil
}

func (a *App) cmdDominator(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("dominator", flag.ExitOnError)
	modelIn := fs.String("model", "model.snap", "binary model snapshot")
	alg := fs.Int("alg", 6, "5 (dominating-set adaptation) or 6 (set-cover adaptation)")
	frac := fs.Float64("top", 1.0, "keep only the top fraction of edges by ACV first")
	complete := fs.Bool("complete", false, "force 100% coverage via self-covering")
	_ = fs.Parse(args)
	eng, err := loadEngine(*modelIn)
	if err != nil {
		return err
	}
	if *frac < 1 {
		// Edge filtering changes the graph itself, so it happens before
		// the engine wraps it.
		h := eng.Model().H
		th, err := h.TopFractionThreshold(*frac)
		if err != nil {
			return err
		}
		if eng, err = engine.New(&core.Model{H: h.FilterByWeight(th), RowsOmitted: true}, engine.Options{}); err != nil {
			return err
		}
	}
	resp, err := eng.Do(ctx, &engine.Request{Dominators: &engine.DominatorsRequest{Alg: *alg, Complete: *complete}})
	if err != nil {
		return err
	}
	dom := resp.Dominators
	fmt.Fprintf(a.out, "dominator size %d, covers %.0f%% of %d vertices\n",
		len(dom.Dominator), 100*dom.Coverage, dom.TargetSize)
	fmt.Fprint(a.out, "members:")
	for _, name := range dom.Dominator {
		fmt.Fprintf(a.out, " %s", name)
	}
	fmt.Fprintln(a.out)
	return nil
}

func (a *App) cmdClassify(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("classify", flag.ExitOnError)
	trainPath := fs.String("train", "table.csv", "training table CSV")
	modelIn := fs.String("model", "", "binary model snapshot (skips mining; overrides -train)")
	testPath := fs.String("test", "", "test table CSV ('' = evaluate in-sample)")
	preset, g1, g2 := configFlag(fs)
	alg := fs.Int("alg", 6, "dominator algorithm (5 or 6)")
	_ = fs.Parse(args)
	var model *core.Model
	if *modelIn != "" {
		var err error
		if model, err = loadSnapshot(*modelIn); err != nil {
			return err
		}
		if err := model.RequireRows(); err != nil {
			return fmt.Errorf("classify needs association tables: %w", err)
		}
	} else {
		train, err := loadTable(*trainPath, 0)
		if err != nil {
			return err
		}
		cfg, err := resolveConfig(*preset, *g1, *g2, train.K())
		if err != nil {
			return err
		}
		cfg.K = train.K()
		if model, err = core.BuildContext(ctx, train, cfg); err != nil {
			return err
		}
	}
	train := model.Table
	eng, err := engine.New(model, engine.Options{})
	if err != nil {
		return err
	}
	spec := engine.DomSpec{Algorithm: *alg, Enhancement1: true, Enhancement2: true}
	res, err := eng.Dominator(ctx, spec)
	if err != nil {
		return err
	}
	targets, err := eng.TargetsFor(ctx, spec)
	if err != nil {
		return err
	}
	if len(targets) == 0 {
		return fmt.Errorf("dominator covers no targets; nothing to classify")
	}
	abc, err := eng.ClassifierFor(ctx, spec)
	if err != nil {
		return err
	}
	eval := train
	label := "in-sample"
	if *testPath != "" {
		eval, err = loadTable(*testPath, train.K())
		if err != nil {
			return err
		}
		label = "out-sample"
	}
	conf, err := abc.Evaluate(eval)
	if err != nil {
		return err
	}
	fmt.Fprintf(a.out, "dominator size %d covering %.0f%%; %d targets\n",
		len(res.DomSet), 100*res.CoverageFraction(), len(targets))
	fmt.Fprintf(a.out, "mean %s classification confidence: %.3f\n", label, classify.MeanConfidence(conf))
	return nil
}

// cmdRules mines and prints the top mva-type association rules for a
// head attribute.
func (a *App) cmdRules(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("rules", flag.ExitOnError)
	in := fs.String("in", "table.csv", "discretized table CSV")
	node := fs.String("node", "", "head attribute name")
	top := fs.Int("top", 10, "number of rules")
	minSupp := fs.Float64("min-support", 0.05, "minimum rule support")
	minConf := fs.Float64("min-confidence", 0.4, "minimum rule confidence")
	preset, g1, g2 := configFlag(fs)
	_ = fs.Parse(args)
	tb, err := loadTable(*in, 0)
	if err != nil {
		return err
	}
	head := tb.AttrIndex(*node)
	if head < 0 {
		return fmt.Errorf("unknown attribute %q", *node)
	}
	cfg, err := resolveConfig(*preset, *g1, *g2, tb.K())
	if err != nil {
		return err
	}
	cfg.K = tb.K()
	model, err := core.BuildContext(ctx, tb, cfg)
	if err != nil {
		return err
	}
	eng, err := engine.New(model, engine.Options{})
	if err != nil {
		return err
	}
	// The v1 flag contract: -top <= 0 means unlimited (MineOptions'
	// zero value), while RulesRequest maps Top 0 to the serving
	// default of 10 — so translate explicitly.
	reqTop := *top
	if reqTop <= 0 {
		reqTop = int(^uint(0) >> 1)
	}
	resp, err := eng.Do(ctx, &engine.Request{Rules: &engine.RulesRequest{
		Head:          *node,
		Top:           reqTop,
		MinSupport:    *minSupp,
		MinConfidence: *minConf,
	}})
	if err != nil {
		return err
	}
	rules := resp.Rules.Rules
	if len(rules) == 0 {
		fmt.Fprintln(a.out, "no rules passed the thresholds")
		return nil
	}
	fmt.Fprintf(a.out, "top %d rules for %s (supp >= %.2f, conf >= %.2f):\n", len(rules), *node, *minSupp, *minConf)
	for _, r := range rules {
		fmt.Fprintf(a.out, "  %-40s supp=%.3f conf=%.3f lift=%.2f\n",
			r.Rule, r.Support, r.Confidence, r.Lift)
	}
	return nil
}

// cmdFrequent runs the classical Apriori baseline on a table.
func (a *App) cmdFrequent(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("frequent", flag.ExitOnError)
	in := fs.String("in", "table.csv", "discretized table CSV")
	minSupp := fs.Float64("min-support", 0.3, "minimum itemset support")
	minConf := fs.Float64("min-confidence", 0.6, "minimum rule confidence")
	maxLen := fs.Int("max-len", 3, "maximum itemset size (0 = unlimited)")
	top := fs.Int("top", 10, "number of rules to print")
	_ = fs.Parse(args)
	tb, err := loadTable(*in, 0)
	if err != nil {
		return err
	}
	freq, err := apriori.FrequentItemsetsContext(ctx, tb, apriori.Options{MinSupport: *minSupp, MaxLen: *maxLen})
	if err != nil {
		return err
	}
	rules, err := apriori.GenerateRules(freq, *minConf)
	if err != nil {
		return err
	}
	fmt.Fprintf(a.out, "%d frequent itemsets, %d rules (supp >= %.2f, conf >= %.2f)\n",
		len(freq), len(rules), *minSupp, *minConf)
	for i, r := range rules {
		if i == *top {
			break
		}
		fmt.Fprintf(a.out, "  %-40s supp=%.3f conf=%.3f lift=%.2f\n",
			core.FormatRule(tb, core.Rule{X: r.X, Y: r.Y}), r.Support, r.Confidence, r.Lift)
	}
	return nil
}
