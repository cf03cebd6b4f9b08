// Package experiments regenerates every table and figure of the
// paper's evaluation chapter (Chapter 5) on the synthetic S&P-style
// universe. Each experiment has a Run function returning a typed
// report with a Render method; cmd/experiments and the repository's
// benchmarks drive them. The per-experiment index is the runner list
// in cmd/experiments.
package experiments

import (
	"errors"
	"fmt"

	"hypermine/internal/core"
	"hypermine/internal/table"
	"hypermine/internal/timeseries"
)

// Params bundles everything an experiment run needs.
type Params struct {
	// Gen configures the synthetic universe.
	Gen timeseries.GenConfig
	// SplitFrac is the in-sample fraction of trading days; the rest
	// is the out-sample window (§5.5: train on 1996–2008, test 2009).
	SplitFrac float64
	// BaselineTargetCap bounds how many target series the baseline
	// classifiers (SVM/MLP/logistic) are trained for; they are far
	// slower than the association-based classifier. 0 = no cap.
	BaselineTargetCap int
	// ScatterSampleCap bounds the number of attribute pairs plotted
	// in Figure 5.2. 0 = all pairs.
	ScatterSampleCap int
	// PaperProtocol additionally evaluates the SVM and logistic
	// baselines under the paper's exact §5.5 training protocol
	// (association-table rows as data points) in Tables 5.3/5.4.
	PaperProtocol bool
}

// DefaultParams is the mid-size configuration used by
// cmd/experiments: large enough to show the paper's shape, small
// enough to run in minutes.
func DefaultParams() Params {
	return Params{
		Gen:               timeseries.DefaultGenConfig(),
		SplitFrac:         0.85,
		BaselineTargetCap: 30,
		ScatterSampleCap:  2000,
	}
}

// QuickParams is a reduced configuration for tests and benchmarks.
func QuickParams() Params {
	gen := timeseries.DefaultGenConfig()
	gen.NumSeries = 36
	gen.NumDays = 500
	return Params{
		Gen:               gen,
		SplitFrac:         0.8,
		BaselineTargetCap: 8,
		ScatterSampleCap:  300,
	}
}

// Built is one fully constructed configuration: the discretized
// in-/out-sample tables and the association hypergraph model mined
// from the in-sample window.
type Built struct {
	Name     string
	Cfg      core.Config
	Model    *core.Model
	InTable  *table.Table
	OutTable *table.Table
	Disc     *timeseries.Discretization
}

// Env generates the universe once and lazily builds each named
// configuration, so several experiments can share the expensive model
// builds.
type Env struct {
	P          Params
	U          *timeseries.Universe
	InU, OutU  *timeseries.Universe
	built      map[string]*Built
	ConfigDefs map[string]core.Config
}

// NewEnv generates the synthetic universe and splits it into in- and
// out-sample windows.
func NewEnv(p Params) (*Env, error) {
	if p.SplitFrac <= 0 || p.SplitFrac >= 1 {
		return nil, fmt.Errorf("experiments: SplitFrac %v outside (0,1)", p.SplitFrac)
	}
	u, err := timeseries.Generate(p.Gen)
	if err != nil {
		return nil, err
	}
	cut := int(float64(u.Days()) * p.SplitFrac)
	if cut < 3 || u.Days()-cut < 3 {
		return nil, errors.New("experiments: split leaves too few days on one side")
	}
	inU, err := u.Window(0, cut)
	if err != nil {
		return nil, err
	}
	outU, err := u.Window(cut, u.Days())
	if err != nil {
		return nil, err
	}
	return &Env{
		P:     p,
		U:     u,
		InU:   inU,
		OutU:  outU,
		built: map[string]*Built{},
		ConfigDefs: map[string]core.Config{
			"C1": core.C1(),
			"C2": core.C2(),
		},
	}, nil
}

// Built returns (building on first use) the named configuration.
func (e *Env) Built(name string) (*Built, error) {
	if b, ok := e.built[name]; ok {
		return b, nil
	}
	cfg, ok := e.ConfigDefs[name]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown configuration %q", name)
	}
	b, err := e.buildWith(name, cfg)
	if err != nil {
		return nil, err
	}
	e.built[name] = b
	return b, nil
}

func (e *Env) buildWith(name string, cfg core.Config) (*Built, error) {
	inTb, disc, err := e.InU.BuildTable(cfg.K)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s in-sample table: %w", name, err)
	}
	outTb, err := disc.Apply(e.OutU)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s out-sample table: %w", name, err)
	}
	model, err := core.Build(inTb, cfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s model: %w", name, err)
	}
	return &Built{Name: name, Cfg: cfg, Model: model, InTable: inTb, OutTable: outTb, Disc: disc}, nil
}

// SelectedSeries returns the paper's Table 5.1/5.2 ticker selection —
// one series per sector — restricted to tickers present in the
// universe, in the paper's row order.
func (e *Env) SelectedSeries() []string {
	order := []string{"EMN", "HON", "GT", "PG", "XOM", "AIG", "JNJ", "JCP", "INTC", "FDX", "TE"}
	var out []string
	for _, t := range order {
		if e.U.SectorOf(t) != "" {
			out = append(out, t)
		}
	}
	return out
}
