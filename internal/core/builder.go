package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"hypermine/internal/hypergraph"
	"hypermine/internal/runopt"
	"hypermine/internal/table"
)

// CandidateStrategy selects which 2-to-1 tail pairs the builder
// evaluates. This is an ablation knob (experiments.RunAblations).
type CandidateStrategy int

const (
	// AllPairs evaluates every {A,B} -> C combination (the paper's
	// exhaustive enumeration of §3.2.1).
	AllPairs CandidateStrategy = iota
	// EdgeSeeded only evaluates {A,B} -> C when at least one of the
	// constituent directed edges A->C, B->C was itself admitted.
	// Much faster, slightly lossy.
	EdgeSeeded
)

// Config parameterizes association-hypergraph construction (§5.1.2).
type Config struct {
	// K is the value-set cardinality the table must carry.
	K int
	// GammaEdge is gamma_{1->1}: a directed edge (A, X) is admitted
	// iff ACV({A},{X}) >= GammaEdge * ACV(empty,{X}).
	GammaEdge float64
	// GammaPair is gamma_{2->1}: a 2-to-1 hyperedge ({A,B},{X}) is
	// admitted iff its ACV >= GammaPair * max of the two constituent
	// directed-edge ACVs.
	GammaPair float64
	// GammaTriple is gamma_{3->1} for the future-work extension
	// (MaxTailSize = 3): a 3-to-1 hyperedge is admitted iff its ACV
	// >= GammaTriple * max of its three constituent 2-to-1 ACVs.
	// 0 defaults to GammaPair.
	GammaTriple float64
	// MaxTailSize is 1 (directed edges only), 2 (the paper's full
	// restricted model), or 3 (the thesis's future-work
	// generalization: 3-to-1 hyperedges seeded from admitted 2-to-1
	// edges). 0 defaults to 2.
	MaxTailSize int
	// Parallelism bounds worker goroutines; 0 means GOMAXPROCS. It is
	// persisted in snapshots, but a live dataset (internal/delta)
	// re-mines on GOMAXPROCS workers whatever a snapshot says.
	Parallelism int
	// Candidates picks the tail-pair enumeration strategy.
	Candidates CandidateStrategy

	// Run carries the runtime-only hooks of BuildContext: a progress
	// callback (PhaseEdges per head, PhasePairs per tail pair,
	// PhaseTriples per candidate group; possibly invoked concurrently
	// during parallel stages) and the context-poll stride in ACV
	// evaluations, a 3-way table scored for its three 2-to-1
	// candidates counting as one (0 = DefaultCheckEvery). Held by
	// pointer so Config stays comparable; never persisted to JSON or
	// snapshots.
	Run *runopt.Hooks `json:"-"`
}

// DefaultCheckEvery is the default ACV-evaluation stride between
// context polls in BuildContext. One ACV evaluation is O(rows) (or,
// on the bitset path, a 3-way table's (k-1)^3 popcount passes of
// rows/64 words and an edge's k^2 reads of pair cells), so 16 of them
// keep cancellation latency in the tens of microseconds on
// paper-scale tables while making the poll cost unmeasurable against
// the counting work.
const DefaultCheckEvery = 16

// C1 is configuration C1 of §5.1.2: k=3, gamma_{1->1}=1.15,
// gamma_{2->1}=1.05.
func C1() Config { return Config{K: 3, GammaEdge: 1.15, GammaPair: 1.05} }

// C2 is configuration C2 of §5.1.2: k=5, gamma_{1->1}=1.20,
// gamma_{2->1}=1.12.
func C2() Config { return Config{K: 5, GammaEdge: 1.20, GammaPair: 1.12} }

func (c Config) withDefaults() Config {
	if c.MaxTailSize == 0 {
		c.MaxTailSize = 2
	}
	if c.GammaTriple == 0 {
		c.GammaTriple = c.GammaPair
	}
	if c.Parallelism <= 0 {
		c.Parallelism = runtime.GOMAXPROCS(0)
	}
	return c
}

// check rejects a config whose fields no build accepts, given the
// value-set size k of the table it applies to. Every comparison is
// written so that NaN fails it. Build runs it on the table it mines;
// ReadSnapshot runs it on a decoded config before delta can re-mine
// under it.
func (c Config) check(k int) error {
	if c.K != 0 && c.K != k {
		return fmt.Errorf("config expects K=%d but table has k=%d", c.K, k)
	}
	if !(c.GammaEdge >= 1) {
		return fmt.Errorf("GammaEdge %v must be >= 1 (Definition 3.7)", c.GammaEdge)
	}
	if !(c.GammaPair >= 1) {
		return fmt.Errorf("GammaPair %v must be >= 1 (Definition 3.7)", c.GammaPair)
	}
	if c.MaxTailSize < 1 || c.MaxTailSize > 3 {
		return fmt.Errorf("MaxTailSize %d outside 1..3", c.MaxTailSize)
	}
	if c.MaxTailSize == 3 && !(c.GammaTriple >= 1) {
		return fmt.Errorf("GammaTriple %v must be >= 1", c.GammaTriple)
	}
	return nil
}

func (c Config) validate(tb *table.Table) error {
	if err := c.check(tb.K()); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if tb.NumRows() == 0 {
		return fmt.Errorf("core: empty table")
	}
	if tb.NumAttrs() < 2 {
		return fmt.Errorf("core: need at least two attributes")
	}
	return nil
}

// Model is a built association hypergraph together with the training
// table it was mined from, which is retained so that association
// tables can be reconstructed for classification (§4.2).
type Model struct {
	Table  *table.Table
	Config Config
	H      *hypergraph.H

	// EdgeACV[a*n+c] caches ACV({a},{c}) for every ordered attribute
	// pair, admitted or not; used by gamma-significance and Table 5.2.
	EdgeACV []float64

	// RowsOmitted marks a model loaded from a persisted form that
	// dropped the training table (SaveOptions.OmitRows): Table carries
	// the schema but zero observations. Graph-only queries still work;
	// operations that rebuild association tables fail via RequireRows.
	RowsOmitted bool
}

// RequireRows reports whether the model still carries its training
// table. Operations that rebuild association tables (classification,
// rule mining) call it to fail with a clear error on models loaded
// from row-less snapshots instead of misbehaving on an empty table.
func (m *Model) RequireRows() error {
	if m.RowsOmitted || m.Table == nil || m.Table.NumRows() == 0 {
		return errors.New("core: model was saved without training rows (SaveOptions.OmitRows); reload from a snapshot that includes rows to rebuild association tables")
	}
	return nil
}

// EdgeACVAt returns the cached ACV({a},{c}).
func (m *Model) EdgeACVAt(a, c int) float64 {
	return m.EdgeACV[a*m.Table.NumAttrs()+c]
}

// AssociationTableFor rebuilds the AT of an edge of the model from the
// training table.
func (m *Model) AssociationTableFor(tail []int, head int) (*AssociationTable, error) {
	if err := m.RequireRows(); err != nil {
		return nil, err
	}
	return BuildAssociationTable(m.Table, tail, head)
}

// acvEdge computes ACV({a},{c}) with a caller-owned k*k scratch buffer.
func acvEdge(colA, colC []table.Value, k int, cnt []int32) float64 {
	cnt = cnt[:k*k]
	clear(cnt)
	for i, va := range colA {
		cnt[int(va-1)*k+int(colC[i]-1)]++
	}
	return float64(sumOfMax(cnt, k)) / float64(len(colA))
}

// acvTail computes ACV(T,{c}) given the precomputed tail row index per
// observation (each row's combination of T's values) and a scratch
// buffer of k cells per combination: k*k*k for a pair, k^4 for a
// triple.
func acvTail(tailRow []int32, colC []table.Value, k int, cnt []int32) float64 {
	countTail(tailRow, colC, k, cnt)
	return float64(sumOfMax(cnt, k)) / float64(len(colC))
}

// countTail fills cnt, k cells per tail-value combination, with the
// joint counts of each row's combination tailRow[i] and c's value.
func countTail(tailRow []int32, colC []table.Value, k int, cnt []int32) {
	clear(cnt)
	for i, tr := range tailRow {
		cnt[int(tr)*k+int(colC[i]-1)]++
	}
}

// sumOfMax returns the numerator of an ACV from its contingency
// counts, k head values per tail-value combination: the sum over the
// combinations of the largest head count.
func sumOfMax(cnt []int32, k int) int64 {
	var sum int64
	for r := 0; r < len(cnt); r += k {
		sum += int64(slices.Max(cnt[r : r+k]))
	}
	return sum
}

// TripleACVs returns the ACVs of the three 2-to-1 candidates of one
// attribute triple (a, b, c) over rows observations, given its k^3
// joint counts in PairCells.Triple's layout: ACV({b,c},{a}),
// ACV({a,c},{b}) and ACV({a,b},{c}), in that order. Each numerator sums,
// over the combinations of the two tail values, the largest count over
// the head's values, so one table serves every head choice.
func TripleACVs(cells []int32, k, rows int) [3]float64 {
	kk := k * k
	cells = cells[:kk*k]
	var sums [3]int64
	for t := range kk { // head a: tail values (vb, vc) = t
		best := cells[t]
		for va := 1; va < k; va++ {
			best = max(best, cells[va*kk+t])
		}
		sums[0] += int64(best)
	}
	for va := range k { // head b: tail values (va, vc)
		plane := cells[va*kk:][:kk]
		for vc := range k {
			best := plane[vc]
			for vb := 1; vb < k; vb++ {
				best = max(best, plane[vb*k+vc])
			}
			sums[1] += int64(best)
		}
	}
	sums[2] = sumOfMax(cells, k) // head c: tail values (va, vb)
	m := float64(rows)
	return [3]float64{float64(sums[0]) / m, float64(sums[1]) / m, float64(sums[2]) / m}
}

// Build mines the association hypergraph of the table under the given
// configuration, following §3.2.1: directed hyperedges are constructed
// head set by head set; a combination is admitted iff it is
// gamma-significant (Definition 3.7). Edge weights are ACVs.
//
// Build is the v1 form of BuildContext with a background context; the
// two are bit-identical when the context is never canceled.
func Build(tb *table.Table, cfg Config) (*Model, error) {
	return BuildContext(context.Background(), tb, cfg)
}

// BuildContext is Build under a context: workers poll ctx every
// Config.Run.CheckEvery ACV evaluations (DefaultCheckEvery when
// unset) and the whole build returns ctx.Err() promptly once the
// context is canceled or its deadline passes, discarding partial
// results. Config.Run.Progress, when set, observes stage progress.
//
// It validates the table, counts each head's baseline ACV(∅,{c}) and
// runs MineStages with a scorer that counts on the table's rows.
func BuildContext(ctx context.Context, tb *table.Table, cfg Config) (*Model, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(tb); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := tb.Validate(); err != nil {
		return nil, err
	}
	// For small k the counting kernels run on the TID-bitset index
	// (built once, shared by every worker) and on the pair cells
	// counted from it; see bitsMaxK for the crossover argument. The
	// baselines read their majorities off its posting counts.
	var ix *table.Index
	if tb.K() <= bitsMaxK {
		ix = tb.Index()
	}
	null := make([]float64, tb.NumAttrs())
	for c := range null {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		null[c] = nullACV(tb, ix, c)
	}
	var pc *PairCells
	if ix != nil {
		var err error
		if pc, err = CountPairCells(ctx, ix, cfg); err != nil {
			return nil, err
		}
	}
	m, _, err := MineStages(ctx, tb, cfg, tableScorers(tb, ix, pc, null), nil)
	return m, err
}

// Scorer counts the ACVs (Definition 3.6) that MineStages admits
// candidates by. Each worker of stages 1 and 2 gets its own Scorer, so
// a Scorer may keep scratch between calls.
type Scorer interface {
	// Null returns the baseline ACV(∅,{c}) = Maj(c)/M.
	Null(c int) float64
	// Edge returns ACV({a},{c}).
	Edge(a, c int) float64
	// Triple returns the ACVs of the three 2-to-1 candidates of the
	// attribute triple a < b < c, as TripleACVs orders them: all three
	// are head choices of one 3-way table. Stage 2 asks for every c > b
	// of one pair (a, b) in turn, so a Scorer may materialize that pair
	// once and reuse it across the triples.
	Triple(a, b, c int) [3]float64
}

// tableScorers returns BuildContext's Scorer factory: each Scorer
// counts on tb's rows, with the posting-bitmap kernels over ix and its
// pair cells pc or, when both are nil, with the scalar row-scan
// kernels, and reads the baselines from null.
func tableScorers(tb *table.Table, ix *table.Index, pc *PairCells, null []float64) func() Scorer {
	return func() Scorer { return &tableScorer{tb: tb, null: null, ix: ix, pc: pc, a: -1} }
}

// tableScorer is the Scorer behind tableScorers. Its scalar scratch is
// allocated on first use, since a stage calls either Edge or Triple.
type tableScorer struct {
	tb   *table.Table
	null []float64

	ix    *table.Index                          // bitmaps: the postings; nil on the scalar path
	pc    *PairCells                            // bitmaps: the pair cells of ix
	cells [bitsMaxK * bitsMaxK * bitsMaxK]int32 // bitmaps: one 3-way table

	a, b    int     // scalar: the pair indexed in tailRow; a = -1 before the first
	cnt     []int32 // scalar: contingency counts, k*k*k cells
	tailRow []int32 // scalar: each row's (a, b) value combination
}

func (s *tableScorer) Null(c int) float64 { return s.null[c] }

func (s *tableScorer) Edge(a, c int) float64 {
	if s.pc != nil {
		return float64(s.pc.EdgeSum(a, c)) / float64(s.tb.NumRows())
	}
	k := s.tb.K()
	if s.cnt == nil {
		s.cnt = make([]int32, k*k*k)
	}
	return acvEdge(s.tb.Column(a), s.tb.Column(c), k, s.cnt)
}

// Triple counts the 3-way table of (a, b, c) once: from the postings
// and pair cells or, on the scalar path, by one scan of c's column
// against the indexed pair (a, b).
func (s *tableScorer) Triple(a, b, c int) [3]float64 {
	k := s.tb.K()
	cells := s.cells[:]
	if s.pc != nil {
		s.pc.Triple(s.ix, a, b, c, cells)
	} else {
		if a != s.a || b != s.b {
			s.tail(a, b)
		}
		cells = s.cnt
		countTail(s.tailRow, s.tb.Column(c), k, cells)
	}
	return TripleACVs(cells, k, s.tb.NumRows())
}

// tail indexes each row by its combination of the tail pair (a, b).
func (s *tableScorer) tail(a, b int) {
	s.a, s.b = a, b
	k := s.tb.K()
	if s.tailRow == nil {
		s.cnt, s.tailRow = make([]int32, k*k*k), make([]int32, s.tb.NumRows())
	}
	colA, colB := s.tb.Column(a), s.tb.Column(b)
	for i := range s.tailRow {
		s.tailRow[i] = int32(colA[i]-1)*int32(k) + int32(colB[i]-1)
	}
}

// significant is the admission rule of Definition 3.7: a candidate is
// gamma-significant iff its ACV is at least gamma times its baseline.
func significant(acv, gamma, base float64) bool { return acv >= gamma*base }

// MineStages is the stage driver of §3.2.1, shared by BuildContext and
// the live datasets of internal/delta. It builds the hypergraph head
// set by head set and admits each candidate iff it is significant:
//
//   - stage 1 scores every directed edge ({a},{c}) against GammaEdge
//     times the baseline of c;
//   - stage 2 (MaxTailSize >= 2) scores every ({a,b},{c}), under
//     EdgeSeeded only those with an admitted constituent edge, against
//     GammaPair times the larger of ACV({a},{c}) and ACV({b},{c});
//   - stage 3 (MaxTailSize 3) extends each admitted ({a,b},{d}) by
//     every other attribute v and scores ({a,b,v},{d}) against
//     GammaTriple times its largest constituent pair ACV.
//
// Each stage spreads its jobs over cfg.Parallelism workers. newScorer
// gives each worker of stages 1 and 2 its Scorer; stage 3 counts on
// tb's rows with the scalar kernel. MineStages reads tb's rows in no
// other stage and validates neither tb nor cfg: the caller does. The
// result, edge order included, does not depend on the worker count.
// The graph shares the id slices of every edge donor also holds (see
// assembleGraph), and the int result counts those edges. Workers poll
// ctx and report progress as BuildContext documents.
func MineStages(ctx context.Context, tb *table.Table, cfg Config, newScorer func() Scorer, donor *hypergraph.H) (*Model, int, error) {
	cfg = cfg.withDefaults()
	n := tb.NumAttrs()
	m := &Model{Table: tb, Config: cfg, EdgeACV: make([]float64, n*n)}
	edgeAdmit := make([]bool, n*n)
	// Stage 1: one job per head c; each writes its own cells.
	err := stage(ctx, cfg, runopt.PhaseEdges, n, newScorer,
		func(s Scorer, chk *runopt.Checker, c int) {
			null := s.Null(c)
			for a := 0; a < n; a++ {
				if a == c {
					continue
				}
				if chk.Tick() != nil {
					return
				}
				acv := s.Edge(a, c)
				m.EdgeACV[a*n+c] = acv
				edgeAdmit[a*n+c] = significant(acv, cfg.GammaEdge, null)
			}
		})
	// Stage 2: each attribute triple a < b < c is counted once, and the
	// ACVs of its three candidates land in pairACV[pairIndex(x, y)*n+z]
	// for the tail x < y and the head z. Under EdgeSeeded a triple with
	// no candidate is skipped, unless stage 3 reads it as a base.
	// Admission then walks the candidates in (a, b, c) order.
	var pairs []tailPair
	var pairACV []float64
	if err == nil && cfg.MaxTailSize >= 2 {
		pairACV = make([]float64, n*(n-1)/2*n)
		need := func(x, y, z int) bool {
			return cfg.Candidates != EdgeSeeded || edgeAdmit[x*n+z] || edgeAdmit[y*n+z]
		}
		err = eachTriple(ctx, cfg, runopt.PhasePairs, n, newScorer, func(s Scorer, a, b, c int) bool {
			if cfg.MaxTailSize == 2 && !need(b, c, a) && !need(a, c, b) && !need(a, b, c) {
				return false
			}
			acv := s.Triple(a, b, c)
			pairACV[pairIndex(b, c, n)*n+a] = acv[0]
			pairACV[pairIndex(a, c, n)*n+b] = acv[1]
			pairACV[pairIndex(a, b, n)*n+c] = acv[2]
			return true
		})
		if err == nil {
			pairs = admitPairs(m, edgeAdmit, need, pairACV)
		}
	}
	// Stage 3: one job per candidate tail triple, emitting heads in
	// order into the job's own slot, so the admitted triples come out
	// sorted once the slots are joined.
	var triples []tailTriple
	if err == nil && cfg.MaxTailSize >= 3 {
		groups := tripleGroups(pairs, n)
		slots := make([][]tailTriple, len(groups))
		pairACVAt := func(x, y, d int) float64 { return pairACV[pairIndex(x, y, n)*n+d] }
		err = stage(ctx, cfg, runopt.PhaseTriples, len(groups),
			func() *tripleScorer { return newTripleScorer(tb) },
			func(s *tripleScorer, chk *runopt.Checker, j int) {
				s.tail(groups[j][0])
				start := len(s.out)
				for _, t := range groups[j] {
					if chk.Tick() != nil {
						return
					}
					base := max(pairACVAt(t.a, t.b, t.d), pairACVAt(t.a, t.c, t.d), pairACVAt(t.b, t.c, t.d))
					if acv := s.triple(t.d); significant(acv, cfg.GammaTriple, base) {
						s.out = append(s.out, tailTriple{t.a, t.b, t.c, t.d, acv})
					}
				}
				slots[j] = s.out[start:len(s.out):len(s.out)]
			})
		triples = slices.Concat(slots...)
	}
	if err != nil {
		return nil, 0, err
	}
	shared, err := assembleGraph(m, edgeAdmit, pairs, triples, donor)
	if err != nil {
		return nil, 0, err
	}
	return m, shared, nil
}

// admitPairs returns stage 2's significant candidates ({a,b},{c}), those
// need admits, in (a, b, c) order, sized exactly.
func admitPairs(m *Model, edgeAdmit []bool, need func(a, b, c int) bool, pairACV []float64) []tailPair {
	n, gamma := m.Table.NumAttrs(), m.Config.GammaPair
	each := func(fn func(a, b, c int, acv float64)) {
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				row := pairACV[pairIndex(a, b, n)*n:][:n]
				for c, acv := range row {
					if c != a && c != b && need(a, b, c) &&
						significant(acv, gamma, max(m.EdgeACV[a*n+c], m.EdgeACV[b*n+c])) {
						fn(a, b, c, acv)
					}
				}
			}
		}
	}
	count := 0
	each(func(int, int, int, float64) { count++ })
	pairs := make([]tailPair, 0, count)
	each(func(a, b, c int, acv float64) { pairs = append(pairs, tailPair{a, b, c, acv}) })
	return pairs
}

// pairAt returns the j-th tail pair (a, b), a < b, in (a, b) order.
func pairAt(j, n int) (a, b int) {
	for j >= n-a-1 {
		j -= n - a - 1
		a++
	}
	return a, a + 1 + j
}

// eachTriple runs fn on every attribute triple a < b < c of n
// attributes through stage, one job per pair (a, b) in pairAt order
// visiting c = b+1..n-1. fn reports whether it counted a table, the
// unit each worker's Checker polls ctx by.
func eachTriple[S any](ctx context.Context, cfg Config, phase runopt.Phase, n int,
	newScorer func() S, fn func(s S, a, b, c int) bool) error {
	return stage(ctx, cfg, phase, n*(n-1)/2, newScorer, func(s S, chk *runopt.Checker, j int) {
		a, b := pairAt(j, n)
		for c := b + 1; c < n; c++ {
			if fn(s, a, b, c) && chk.Tick() != nil {
				return
			}
		}
	})
}

// stage runs one stage of MineStages: jobs 0..jobs-1, claimed in order
// by up to cfg.Parallelism workers, the calling goroutine among them.
// Each worker owns a scorer from newScorer and a Checker; run does job
// j and writes its results where no other job writes. stage ticks the
// phase's progress once per finished job, and once ctx is canceled the
// workers stop claiming and stage returns ctx.Err().
func stage[S any](ctx context.Context, cfg Config, phase runopt.Phase, jobs int,
	newScorer func() S, run func(s S, chk *runopt.Checker, j int)) error {
	prog := runopt.NewMeter(phase, jobs, cfg.Run.Func())
	// The workers' shared state, one allocation.
	var sh struct {
		next atomic.Int64
		wg   sync.WaitGroup
	}
	work := func() {
		s := newScorer()
		chk := runopt.NewChecker(ctx, cfg.Run.Stride(), DefaultCheckEvery)
		for chk.Err() == nil {
			j := int(sh.next.Add(1) - 1)
			if j >= jobs {
				return
			}
			if run(s, chk, j); chk.Err() != nil {
				return
			}
			prog.Tick(1)
		}
	}
	for w := 1; w < min(cfg.Parallelism, jobs); w++ {
		sh.wg.Add(1)
		go func() {
			defer sh.wg.Done()
			work()
		}()
	}
	if jobs > 0 {
		work()
	}
	sh.wg.Wait()
	return ctx.Err()
}

// assembleGraph builds m.H from every edge one build admitted, in
// BuildContext's edge order: the directed edges ({a},{c}) marked in
// edgeAdmit[a*n+c], weighted by m.EdgeACV, in (a, c) order; then pairs;
// then triples (each in its stage's output order). Knowing every edge up
// front, it counts exact degrees and reserves the graph once, so the
// edge list, packed key index and incidence lists never grow.
//
// With donor nil the tail and head ids of all edges are capped
// sub-slices of one slab. With a donor (the previous model's graph),
// an edge the donor also holds shares the donor's id slices, and only
// an edge new to this graph copies its own, so no slab outlives the
// generation that allocated it. It returns the number of shared edges.
func assembleGraph(m *Model, edgeAdmit []bool, pairs []tailPair, triples []tailTriple, donor *hypergraph.H) (shared int, err error) {
	n := m.Table.NumAttrs()
	h := hypergraph.NewOver(m.Table.Schema())
	// each calls fn on every edge in order. edge holds the tail ids
	// and then the head id; it is scratch, so only the slab, the
	// donor's slices or AddEdge's own copies are ever stored.
	each := func(fn func(edge []int, w float64) error) error {
		var e [MaxTail + 1]int
		for i, ok := range edgeAdmit {
			if ok {
				e[0], e[1] = i/n, i%n
				if err := fn(e[:2], m.EdgeACV[i]); err != nil {
					return err
				}
			}
		}
		for _, p := range pairs {
			e[0], e[1], e[2] = p.A, p.B, p.C
			if err := fn(e[:3], p.ACV); err != nil {
				return err
			}
		}
		for _, t := range triples {
			e[0], e[1], e[2], e[3] = t.A, t.B, t.C, t.D
			if err := fn(e[:4], t.ACV); err != nil {
				return err
			}
		}
		return nil
	}
	outDeg, inDeg := make([]int, n), make([]int, n)
	edges, ids := 0, 0
	_ = each(func(edge []int, _ float64) error { // counting cannot fail
		t := len(edge) - 1
		for _, v := range edge[:t] {
			outDeg[v]++
		}
		inDeg[edge[t]]++
		edges++
		ids += len(edge)
		return nil
	})
	h.Reserve(edges, outDeg, inDeg)
	var slab []int
	if donor == nil {
		slab = make([]int, 0, ids)
	}
	err = each(func(edge []int, w float64) error {
		t := len(edge) - 1
		if donor == nil {
			start := len(slab)
			slab = append(slab, edge...)
			return h.AddEdgeShared(slab[start:start+t:start+t], slab[start+t:len(slab):len(slab)], w)
		}
		if id, ok := donor.Lookup(edge[:t], edge[t:]); ok {
			e := donor.Edge(id)
			shared++
			return h.AddEdgeShared(e.Tail, e.Head, w)
		}
		return h.AddEdge(edge[:t], edge[t:], w)
	})
	if err != nil {
		return 0, err
	}
	m.H = h
	return shared, nil
}

// tailPair is an admitted 2-to-1 hyperedge ({A,B},{C}) with its ACV,
// A < B: stage 2's output and stage 3's seed.
type tailPair struct {
	A, B, C int
	ACV     float64
}

// tailTriple is an admitted 3-to-1 hyperedge ({A,B,C},{D}) with its
// ACV, tail sorted A < B < C.
type tailTriple struct {
	A, B, C, D int
	ACV        float64
}

// tripleKey identifies a 3-to-1 candidate: sorted tail a<b<c, head d.
type tripleKey struct{ a, b, c, d int }

// tripleGroups seeds stage 3: each admitted ({a,b},{d}) extends to a
// candidate ({a,b,v},{d}) for every v outside {a,b,d}. It returns the
// distinct candidates sorted and split into runs sharing one tail
// triple, the unit of work (and of progress) for stage 3.
func tripleGroups(pairs []tailPair, n int) [][]tripleKey {
	var cands []tripleKey
	for _, p := range pairs {
		for v := 0; v < n; v++ {
			if v == p.A || v == p.B || v == p.C {
				continue
			}
			t := [3]int{p.A, p.B, v}
			slices.Sort(t[:])
			cands = append(cands, tripleKey{t[0], t[1], t[2], p.C})
		}
	}
	slices.SortFunc(cands, func(x, y tripleKey) int {
		return cmp.Or(cmp.Compare(x.a, y.a), cmp.Compare(x.b, y.b), cmp.Compare(x.c, y.c), cmp.Compare(x.d, y.d))
	})
	cands = slices.Compact(cands)
	var groups [][]tripleKey
	for len(cands) > 0 {
		i := 1
		for i < len(cands) && cands[i].a == cands[0].a && cands[i].b == cands[0].b && cands[i].c == cands[0].c {
			i++
		}
		groups = append(groups, cands[:i:i])
		cands = cands[i:]
	}
	return groups
}

// tripleScorer is a stage-3 worker's scalar counter: tail indexes each
// row by one tail triple's value combination, triple counts ACV(T,{d})
// over that index, and out holds the worker's admissions, which its
// jobs' slots share.
type tripleScorer struct {
	tb      *table.Table
	tailRow []int32
	cnt     []int32
	out     []tailTriple
}

func newTripleScorer(tb *table.Table) *tripleScorer {
	k := tb.K()
	return &tripleScorer{tb: tb, tailRow: make([]int32, tb.NumRows()), cnt: make([]int32, k*k*k*k)}
}

func (s *tripleScorer) tail(t tripleKey) {
	k := int32(s.tb.K())
	colA, colB, colC := s.tb.Column(t.a), s.tb.Column(t.b), s.tb.Column(t.c)
	for i := range s.tailRow {
		s.tailRow[i] = (int32(colA[i]-1)*k+int32(colB[i]-1))*k + int32(colC[i]-1)
	}
}

func (s *tripleScorer) triple(d int) float64 {
	return acvTail(s.tailRow, s.tb.Column(d), s.tb.K(), s.cnt)
}
