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
	// evaluations (0 = DefaultCheckEvery). Held by pointer so Config
	// stays comparable; never persisted to JSON or snapshots.
	Run *runopt.Hooks `json:"-"`
}

// DefaultCheckEvery is the default ACV-evaluation stride between
// context polls in BuildContext. One ACV evaluation is O(rows) (or,
// on the bitset path, a 2-to-1 table's (k-1)^3 popcount passes of
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
	clear(cnt)
	for i, tr := range tailRow {
		cnt[int(tr)*k+int(colC[i]-1)]++
	}
	return float64(sumOfMax(cnt, k)) / float64(len(colC))
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
	null := make([]float64, tb.NumAttrs())
	for c := range null {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		null[c] = NullACV(tb, c)
	}
	// For small k the counting kernels run on the TID-bitset index
	// (built once, shared by every worker) and on the pair cells
	// counted from it; see bitsMaxK for the crossover argument.
	var ix *table.Index
	var pc *PairCells
	if tb.K() <= bitsMaxK {
		ix = tb.Index()
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
	// Pair returns ACV({a,b},{c}), a < b. Stage 2 asks for every head
	// of one tail pair in turn, so a Scorer may materialize the tail
	// once and reuse it across heads.
	Pair(a, b, c int) float64
}

// tableScorers returns BuildContext's Scorer factory: each Scorer
// counts on tb's rows, with the posting-bitmap kernels over ix and its
// pair cells pc or, when both are nil, with the scalar row-scan
// kernels, and reads the baselines from null.
func tableScorers(tb *table.Table, ix *table.Index, pc *PairCells, null []float64) func() Scorer {
	return func() Scorer { return &tableScorer{tb: tb, null: null, ix: ix, pc: pc, a: -1} }
}

// tableScorer is the Scorer behind tableScorers. Its scalar scratch is
// allocated on first use, since a stage calls either Edge or Pair.
type tableScorer struct {
	tb   *table.Table
	null []float64

	ix    *table.Index                          // bitmaps: the postings; nil on the scalar path
	pc    *PairCells                            // bitmaps: the pair cells of ix
	cells [bitsMaxK * bitsMaxK * bitsMaxK]int32 // bitmaps: one 2-to-1 table

	a, b    int     // scalar: the tail pair indexed in tailRow; a = -1 before the first
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

func (s *tableScorer) Pair(a, b, c int) float64 {
	k := s.tb.K()
	if s.pc != nil {
		cells := s.cells[:k*k*k]
		s.pc.Triple(s.ix, a, b, c, cells)
		return float64(sumOfMax(cells, k)) / float64(s.tb.NumRows())
	}
	if a != s.a || b != s.b {
		s.tail(a, b)
	}
	return acvTail(s.tailRow, s.tb.Column(c), k, s.cnt)
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
	_, err := stage(ctx, cfg, runopt.PhaseEdges, n, 0, newScorer,
		func(s Scorer, chk *runopt.Checker, c int, _ []struct{}) []struct{} {
			null := s.Null(c)
			for a := 0; a < n; a++ {
				if a == c {
					continue
				}
				if chk.Tick() != nil {
					break
				}
				acv := s.Edge(a, c)
				m.EdgeACV[a*n+c] = acv
				edgeAdmit[a*n+c] = significant(acv, cfg.GammaEdge, null)
			}
			return nil
		})
	// Stage 2: one job per tail pair (a, b), emitting heads in order,
	// so the admitted pairs come out sorted by (a, b, c).
	var pairs []tailPair
	if err == nil && cfg.MaxTailSize >= 2 {
		pairs, err = stage(ctx, cfg, runopt.PhasePairs, n*(n-1)/2, n-2, newScorer,
			func(s Scorer, chk *runopt.Checker, j int, out []tailPair) []tailPair {
				a, b := pairAt(j, n)
				for c := 0; c < n; c++ {
					if c == a || c == b {
						continue
					}
					if cfg.Candidates == EdgeSeeded && !edgeAdmit[a*n+c] && !edgeAdmit[b*n+c] {
						continue
					}
					if chk.Tick() != nil {
						break
					}
					acv := s.Pair(a, b, c)
					if significant(acv, cfg.GammaPair, max(m.EdgeACV[a*n+c], m.EdgeACV[b*n+c])) {
						out = append(out, tailPair{a, b, c, acv})
					}
				}
				return out
			})
	}
	// Stage 3: one job per candidate tail triple, emitting heads in
	// order, so the admitted triples come out sorted.
	var triples []tailTriple
	if err == nil && cfg.MaxTailSize >= 3 {
		groups := tripleGroups(pairs, n)
		triples, err = stage(ctx, cfg, runopt.PhaseTriples, len(groups), n,
			func() *tripleScorer { return newTripleScorer(tb) },
			func(s *tripleScorer, chk *runopt.Checker, j int, out []tailTriple) []tailTriple {
				s.tail(groups[j][0])
				for _, t := range groups[j] {
					if chk.Tick() != nil {
						break
					}
					base := max(s.pair(t.a, t.b, t.d), s.pair(t.a, t.c, t.d), s.pair(t.b, t.c, t.d))
					if acv := s.triple(t.d); significant(acv, cfg.GammaTriple, base) {
						out = append(out, tailTriple{t.a, t.b, t.c, t.d, acv})
					}
				}
				return out
			})
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

// pairAt returns the j-th tail pair (a, b), a < b, in (a, b) order.
func pairAt(j, n int) (a, b int) {
	for j >= n-a-1 {
		j -= n - a - 1
		a++
	}
	return a, a + 1 + j
}

// stage runs one stage of MineStages: jobs 0..jobs-1, claimed in order
// by up to cfg.Parallelism workers, the calling goroutine among them.
// Each worker owns a scorer from newScorer, a Checker, and a buffer
// with room for perJob admissions; run scores job j and appends its
// admissions to out. stage returns every job's admissions in job
// order, whatever the schedule. It ticks the phase's progress once per
// finished job, and once ctx is canceled the workers stop claiming and
// stage returns ctx.Err().
func stage[S, T any](ctx context.Context, cfg Config, phase runopt.Phase, jobs, perJob int,
	newScorer func() S, run func(s S, chk *runopt.Checker, j int, out []T) []T) ([]T, error) {
	prog := runopt.NewMeter(phase, jobs, cfg.Run.Func())
	// The workers' shared state, one allocation: the next unclaimed
	// job and the admissions in completion order.
	var sh struct {
		next atomic.Int64
		wg   sync.WaitGroup
		mu   sync.Mutex
		all  []T
	}
	spans := make([][2]int, jobs) // job j's admissions are all[off:off+len]
	work := func() {
		s := newScorer()
		chk := runopt.NewChecker(ctx, cfg.Run.Stride(), DefaultCheckEvery)
		buf := make([]T, 0, perJob)
		for chk.Err() == nil {
			j := int(sh.next.Add(1) - 1)
			if j >= jobs {
				return
			}
			buf = run(s, chk, j, buf[:0])
			if chk.Err() != nil {
				return
			}
			if len(buf) > 0 {
				sh.mu.Lock()
				spans[j] = [2]int{len(sh.all), len(buf)}
				sh.all = append(sh.all, buf...)
				sh.mu.Unlock()
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
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	out := make([]T, 0, len(sh.all))
	for _, sp := range spans {
		out = append(out, sh.all[sp[0]:sp[0]+sp[1]]...)
	}
	return out, nil
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
	h, err := hypergraph.New(m.Table.Attrs())
	if err != nil {
		return 0, err
	}
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
// over that index, and pair memoizes the constituent 2-to-1 ACVs,
// counted by a scalar tableScorer, across the worker's jobs.
type tripleScorer struct {
	tb      *table.Table
	pairs   *tableScorer
	memo    map[tripleKey]float64
	tailRow []int32
	cnt     []int32
}

func newTripleScorer(tb *table.Table) *tripleScorer {
	k := tb.K()
	return &tripleScorer{
		tb:      tb,
		pairs:   &tableScorer{tb: tb, a: -1},
		memo:    map[tripleKey]float64{},
		tailRow: make([]int32, tb.NumRows()),
		cnt:     make([]int32, k*k*k*k),
	}
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

func (s *tripleScorer) pair(x, y, d int) float64 {
	key := tripleKey{x, y, -1, d}
	v, ok := s.memo[key]
	if !ok {
		v = s.pairs.Pair(x, y, d)
		s.memo[key] = v
	}
	return v
}
