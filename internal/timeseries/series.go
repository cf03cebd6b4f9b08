// Package timeseries provides the financial time-series substrate of
// Chapter 5: price series, delta series, the k-threshold equi-depth
// discretization of §5.1.1, and a synthetic S&P-500-style universe
// generator that substitutes for the paper's Yahoo Finance data.
//
// Substitution note: the paper's pipeline consumes only
// the fractional day-over-day changes and their cross-correlation
// structure. The generator produces returns from a market + sector +
// sub-sector factor model, which yields the same qualitative structure
// the evaluation measures: same-sector series co-move, so high-ACV
// hyperedges concentrate within sectors, dominators are small, and
// clusters align with the sector taxonomy.
package timeseries

import (
	"errors"
	"fmt"

	"hypermine/internal/table"
)

// Series is one financial time-series: a ticker with sector metadata
// and a daily closing price history.
type Series struct {
	Ticker    string
	Sector    string
	SubSector string
	Prices    []float64
}

// Delta returns the delta time-series of §5.1.1: entry i is the
// fractional change of close i+1 relative to close i. The result has
// len(prices)-1 entries.
func Delta(prices []float64) ([]float64, error) {
	if len(prices) < 2 {
		return nil, errors.New("timeseries: need at least two prices")
	}
	out := make([]float64, len(prices)-1)
	for i := 0; i+1 < len(prices); i++ {
		if prices[i] == 0 {
			return nil, fmt.Errorf("timeseries: zero price at day %d", i)
		}
		out[i] = (prices[i+1] - prices[i]) / prices[i]
	}
	return out, nil
}

// Universe is a collection of aligned series (same number of trading
// days each).
type Universe struct {
	Series []Series
}

// Tickers returns all tickers in order.
func (u *Universe) Tickers() []string {
	out := make([]string, len(u.Series))
	for i, s := range u.Series {
		out[i] = s.Ticker
	}
	return out
}

// SectorOf returns the sector of a ticker, or "".
func (u *Universe) SectorOf(ticker string) string {
	for _, s := range u.Series {
		if s.Ticker == ticker {
			return s.Sector
		}
	}
	return ""
}

// Days returns the number of trading days (0 for an empty universe).
func (u *Universe) Days() int {
	if len(u.Series) == 0 {
		return 0
	}
	return len(u.Series[0].Prices)
}

// Validate checks alignment and positivity of prices.
func (u *Universe) Validate() error {
	if len(u.Series) == 0 {
		return errors.New("timeseries: empty universe")
	}
	n := len(u.Series[0].Prices)
	for _, s := range u.Series {
		if s.Ticker == "" {
			return errors.New("timeseries: empty ticker")
		}
		if len(s.Prices) != n {
			return fmt.Errorf("timeseries: %s has %d days, want %d", s.Ticker, len(s.Prices), n)
		}
		for i, p := range s.Prices {
			if p <= 0 {
				return fmt.Errorf("timeseries: %s day %d: nonpositive price %v", s.Ticker, i, p)
			}
		}
	}
	return nil
}

// DeltaMatrix computes the delta series for every series, column j
// corresponding to u.Series[j].
func (u *Universe) DeltaMatrix() ([][]float64, error) {
	out := make([][]float64, len(u.Series))
	for j, s := range u.Series {
		d, err := Delta(s.Prices)
		if err != nil {
			return nil, fmt.Errorf("timeseries: %s: %w", s.Ticker, err)
		}
		out[j] = d
	}
	return out, nil
}

// Discretization carries the per-series fitted k-threshold vectors so
// that later windows (out-sample data) can be discretized with
// in-sample thresholds, as §5.5 requires.
type Discretization struct {
	K          int
	Tickers    []string
	Thresholds [][]float64 // per series, length K-1
}

// BuildTable runs the full §5.1.1 pipeline on the universe: delta
// series, per-series k-threshold vectors, equi-depth mapping onto
// {1..k}. It returns the database D(A, O, V) plus the fitted
// discretization.
func (u *Universe) BuildTable(k int) (*table.Table, *Discretization, error) {
	if err := u.Validate(); err != nil {
		return nil, nil, err
	}
	deltas, err := u.DeltaMatrix()
	if err != nil {
		return nil, nil, err
	}
	d := table.EquiDepth{Bins: k}
	disc := &Discretization{K: k, Tickers: u.Tickers(), Thresholds: make([][]float64, len(deltas))}
	cols := make([][]table.Value, len(deltas))
	for j, col := range deltas {
		th, err := d.Thresholds(col)
		if err != nil {
			return nil, nil, fmt.Errorf("timeseries: %s: %w", u.Series[j].Ticker, err)
		}
		disc.Thresholds[j] = th
		cols[j] = table.ApplyThresholds(col, th)
	}
	tb, err := table.FromColumns(disc.Tickers, k, cols)
	if err != nil {
		return nil, nil, err
	}
	return tb, disc, nil
}

// Apply discretizes a (possibly different) aligned universe with the
// already-fitted thresholds. Series are matched by position and must
// carry the same tickers.
func (d *Discretization) Apply(u *Universe) (*table.Table, error) {
	if err := u.Validate(); err != nil {
		return nil, err
	}
	if len(u.Series) != len(d.Tickers) {
		return nil, fmt.Errorf("timeseries: %d series, want %d", len(u.Series), len(d.Tickers))
	}
	deltas, err := u.DeltaMatrix()
	if err != nil {
		return nil, err
	}
	cols := make([][]table.Value, len(deltas))
	for j, col := range deltas {
		if u.Series[j].Ticker != d.Tickers[j] {
			return nil, fmt.Errorf("timeseries: series %d is %s, want %s", j, u.Series[j].Ticker, d.Tickers[j])
		}
		cols[j] = table.ApplyThresholds(col, d.Thresholds[j])
	}
	return table.FromColumns(d.Tickers, d.K, cols)
}

// Window returns a new universe restricted to price days [lo, hi).
func (u *Universe) Window(lo, hi int) (*Universe, error) {
	if lo < 0 || hi > u.Days() || hi-lo < 2 {
		return nil, fmt.Errorf("timeseries: bad window [%d,%d) of %d days", lo, hi, u.Days())
	}
	out := &Universe{Series: make([]Series, len(u.Series))}
	for i, s := range u.Series {
		out.Series[i] = Series{
			Ticker:    s.Ticker,
			Sector:    s.Sector,
			SubSector: s.SubSector,
			Prices:    append([]float64(nil), s.Prices[lo:hi]...),
		}
	}
	return out, nil
}
