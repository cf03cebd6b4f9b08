package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"

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
	// Parallelism bounds worker goroutines; 0 means GOMAXPROCS.
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

	// noBits disables the TID-bitset counting kernels regardless of k.
	// It exists so differential tests can force the scalar reference
	// kernels; production callers leave it unset.
	noBits bool
}

// DefaultCheckEvery is the default ACV-evaluation stride between
// context polls in BuildContext. One ACV evaluation is O(rows) (or
// O(rows/64) on the bitset path), so 16 of them keep cancellation
// latency in the tens of microseconds on paper-scale tables while
// making the poll cost unmeasurable against the counting work.
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

func (c Config) validate(tb *table.Table) error {
	if c.K != 0 && c.K != tb.K() {
		return fmt.Errorf("core: config expects k=%d but table has k=%d", c.K, tb.K())
	}
	if c.GammaEdge < 1 || c.GammaPair < 1 {
		return fmt.Errorf("core: gamma values must be >= 1 (Definition 3.7), got %v and %v", c.GammaEdge, c.GammaPair)
	}
	if c.MaxTailSize < 1 || c.MaxTailSize > 3 {
		return fmt.Errorf("core: MaxTailSize %d outside 1..3", c.MaxTailSize)
	}
	if c.MaxTailSize == 3 && c.GammaTriple < 1 {
		return fmt.Errorf("core: GammaTriple %v must be >= 1", c.GammaTriple)
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
	for i := range cnt[:k*k] {
		cnt[i] = 0
	}
	for i, va := range colA {
		cnt[int(va-1)*k+int(colC[i]-1)]++
	}
	var sum int64
	for r := 0; r < k; r++ {
		best := int32(0)
		for c := 0; c < k; c++ {
			if v := cnt[r*k+c]; v > best {
				best = v
			}
		}
		sum += int64(best)
	}
	return float64(sum) / float64(len(colA))
}

// acvPair computes ACV({a,b},{c}) given the precomputed tail row index
// per observation and a k*k*k scratch buffer.
func acvPair(tailRow []int32, colC []table.Value, k int, cnt []int32) float64 {
	kk := k * k
	for i := range cnt[:kk*k] {
		cnt[i] = 0
	}
	for i, tr := range tailRow {
		cnt[int(tr)*k+int(colC[i]-1)]++
	}
	var sum int64
	for r := 0; r < kk; r++ {
		best := int32(0)
		for c := 0; c < k; c++ {
			if v := cnt[r*k+c]; v > best {
				best = v
			}
		}
		sum += int64(best)
	}
	return float64(sum) / float64(len(colC))
}

type pairEdge struct {
	a, b, c int
	acv     float64
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
	n := tb.NumAttrs()
	k := tb.K()
	m := tb.NumRows()

	model := &Model{Table: tb, Config: cfg, EdgeACV: make([]float64, n*n)}
	h, err := hypergraph.New(tb.Attrs())
	if err != nil {
		return nil, err
	}
	model.H = h

	// Baseline ACV(empty, {c}) per head.
	null := make([]float64, n)
	for c := 0; c < n; c++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		null[c] = NullACV(tb, c)
	}

	// For small k the counting kernels run on the TID-bitset index
	// (built once, shared by every worker); see bitsMaxK for the
	// crossover argument.
	useBits := k <= bitsMaxK && !cfg.noBits
	var ix *table.Index
	if useBits {
		ix = tb.Index()
	}

	// Stage 1: all directed edges, parallel over heads. Workers poll
	// ctx every CheckEvery ACVs; once canceled they drain the channel
	// without computing so the feeder never blocks.
	edgeAdmit := make([]bool, n*n)
	prog := runopt.NewMeter(runopt.PhaseEdges, n, cfg.Run.Func())
	var wg sync.WaitGroup
	heads := make(chan int)
	for w := 0; w < cfg.Parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			chk := runopt.NewChecker(ctx, cfg.Run.Stride(), DefaultCheckEvery)
			var cnt []int32
			if !useBits {
				cnt = make([]int32, k*k)
			}
			for c := range heads {
				if chk.Err() != nil {
					continue
				}
				colC := tb.Column(c)
				for a := 0; a < n; a++ {
					if a == c {
						continue
					}
					if chk.Tick() != nil {
						break
					}
					var acv float64
					if useBits {
						acv = acvEdgeBits(ix, a, c)
					} else {
						acv = acvEdge(tb.Column(a), colC, k, cnt)
					}
					model.EdgeACV[a*n+c] = acv
					if acv >= cfg.GammaEdge*null[c] {
						edgeAdmit[a*n+c] = true
					}
				}
				if chk.Err() == nil {
					prog.Tick(1)
				}
			}
		}()
	}
	for c := 0; c < n && ctx.Err() == nil; c++ {
		select {
		case heads <- c:
		case <-ctx.Done():
		}
	}
	close(heads)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	for a := 0; a < n; a++ {
		for c := 0; c < n; c++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if edgeAdmit[a*n+c] {
				if err := h.AddEdge([]int{a}, []int{c}, model.EdgeACV[a*n+c]); err != nil {
					return nil, err
				}
			}
		}
	}
	if cfg.MaxTailSize < 2 {
		return model, nil
	}

	// Stage 2: 2-to-1 hyperedges, parallel over tail pairs.
	type pairJob struct{ a, b int }
	prog2 := runopt.NewMeter(runopt.PhasePairs, n*(n-1)/2, cfg.Run.Func())
	jobs := make(chan pairJob)
	results := make(chan []pairEdge, cfg.Parallelism)
	var wg2 sync.WaitGroup
	for w := 0; w < cfg.Parallelism; w++ {
		wg2.Add(1)
		go func() {
			defer wg2.Done()
			chk := runopt.NewChecker(ctx, cfg.Run.Stride(), DefaultCheckEvery)
			var cnt, tailRow []int32
			var pairBuf []uint64
			var pairCnt []int
			if useBits {
				pairBuf = make([]uint64, k*k*ix.Words())
				pairCnt = make([]int, k*k)
			} else {
				cnt = make([]int32, k*k*k)
				tailRow = make([]int32, m)
			}
			var local []pairEdge
			for job := range jobs {
				if chk.Err() != nil {
					continue
				}
				a, b := job.a, job.b
				// Materialize the tail once per pair: k*k bitmaps for
				// the bitset path, a per-row tail index otherwise.
				// Either is reused across all n-2 heads below.
				if useBits {
					fillTailPairBits(ix, a, b, pairBuf, pairCnt)
				} else {
					colA, colB := tb.Column(a), tb.Column(b)
					for i := 0; i < m; i++ {
						tailRow[i] = int32(colA[i]-1)*int32(k) + int32(colB[i]-1)
					}
				}
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
					base := model.EdgeACV[a*n+c]
					if x := model.EdgeACV[b*n+c]; x > base {
						base = x
					}
					var acv float64
					if useBits {
						acv = acvPairBits(ix, pairBuf, pairCnt, c)
					} else {
						acv = acvPair(tailRow, tb.Column(c), k, cnt)
					}
					if acv >= cfg.GammaPair*base {
						local = append(local, pairEdge{a, b, c, acv})
					}
				}
				if chk.Err() == nil {
					prog2.Tick(1)
				}
			}
			results <- local
		}()
	}
	go func() {
		defer close(jobs)
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				select {
				case jobs <- pairJob{a, b}:
				case <-ctx.Done():
					return
				}
			}
		}
	}()
	var admitted []pairEdge
	done := make(chan struct{})
	go func() {
		for local := range results {
			admitted = append(admitted, local...)
		}
		close(done)
	}()
	wg2.Wait()
	close(results)
	<-done
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Deterministic edge order regardless of scheduling.
	sort.Slice(admitted, func(i, j int) bool {
		if admitted[i].a != admitted[j].a {
			return admitted[i].a < admitted[j].a
		}
		if admitted[i].b != admitted[j].b {
			return admitted[i].b < admitted[j].b
		}
		return admitted[i].c < admitted[j].c
	})
	for _, e := range admitted {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := h.AddEdge([]int{e.a, e.b}, []int{e.c}, e.acv); err != nil {
			return nil, err
		}
	}
	if cfg.MaxTailSize < 3 {
		return model, nil
	}
	if err := buildTriples(ctx, model, admitted, cfg); err != nil {
		return nil, err
	}
	return model, nil
}

// TailPair is an admitted 2-to-1 hyperedge ({A,B},{C}) with its ACV,
// in the canonical A < B order stage 2 produces. It is the seed unit
// for stage 3 and the exchange format between BuildContext and the
// incremental re-miner in internal/delta.
type TailPair struct {
	A, B, C int
	ACV     float64
}

// BuildTriplesContext runs stage 3 of BuildContext standalone: it
// seeds 3-to-1 candidates from the given admitted 2-to-1 hyperedges,
// evaluates them against model.Table, and adds the admitted triples to
// model.H in the same deterministic order as a full build. pairs must
// be the complete admitted stage-2 set (A < B, sorted as stage 2
// sorts); the result is then bit-identical to the stage-3 portion of
// BuildContext under the same config. internal/delta uses this to
// finish a MaxTailSize=3 incremental update, where maintaining 4-way
// joint counts would not pay for itself.
func BuildTriplesContext(ctx context.Context, model *Model, pairs []TailPair, cfg Config) error {
	cfg = cfg.withDefaults()
	internal := make([]pairEdge, len(pairs))
	for i, p := range pairs {
		internal[i] = pairEdge{p.A, p.B, p.C, p.ACV}
	}
	return buildTriples(ctx, model, internal, cfg)
}

// tripleKey identifies a 3-to-1 candidate: sorted tail a<b<c, head d.
type tripleKey struct{ a, b, c, d int }

// buildTriples is stage 3 (the thesis's future-work generalization):
// candidate 3-to-1 hyperedges are seeded by extending each admitted
// 2-to-1 hyperedge's tail with every other attribute, deduplicated,
// and admitted under the gamma-significance rule of Definition 3.7 —
// ACV(T, H) >= GammaTriple * max over v in T of ACV(T - {v}, H),
// where the 2-to-1 constituent ACVs are computed on demand.
func buildTriples(ctx context.Context, model *Model, pairs []pairEdge, cfg Config) error {
	tb := model.Table
	n := tb.NumAttrs()
	k := tb.K()
	m := tb.NumRows()

	// Enumerate candidates: each admitted ({a,b},{d}) extends to
	// ({a,b,v},{d}) for all v outside {a,b,d}.
	candSet := make(map[tripleKey]struct{})
	for _, p := range pairs {
		for v := 0; v < n; v++ {
			if v == p.a || v == p.b || v == p.c {
				continue
			}
			t := [3]int{p.a, p.b, v}
			sort.Ints(t[:])
			candSet[tripleKey{t[0], t[1], t[2], p.c}] = struct{}{}
		}
	}
	cands := make([]tripleKey, 0, len(candSet))
	for key := range candSet {
		cands = append(cands, key)
	}
	sort.Slice(cands, func(i, j int) bool {
		a, b := cands[i], cands[j]
		if a.a != b.a {
			return a.a < b.a
		}
		if a.b != b.b {
			return a.b < b.b
		}
		if a.c != b.c {
			return a.c < b.c
		}
		return a.d < b.d
	})

	// Group by tail triple so the tail-row index is computed once.
	groups := groupByTail(cands)
	type tripleEdge struct {
		key tripleKey
		acv float64
	}
	prog := runopt.NewMeter(runopt.PhaseTriples, len(groups), cfg.Run.Func())
	jobs := make(chan []tripleKey)
	results := make(chan []tripleEdge, cfg.Parallelism)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			chk := runopt.NewChecker(ctx, cfg.Run.Stride(), DefaultCheckEvery)
			kkk := k * k * k
			cnt := make([]int32, kkk*k)
			pairCnt := make([]int32, kkk)
			tailRow := make([]int32, m)
			pairRow := make([]int32, m)
			pairCache := map[tripleKey]float64{}
			acvOfPair := func(x, y, d int) float64 {
				key := tripleKey{x, y, -1, d}
				if v, ok := pairCache[key]; ok {
					return v
				}
				colX, colY := tb.Column(x), tb.Column(y)
				for i := 0; i < m; i++ {
					pairRow[i] = int32(colX[i]-1)*int32(k) + int32(colY[i]-1)
				}
				v := acvPair(pairRow, tb.Column(d), k, pairCnt)
				pairCache[key] = v
				return v
			}
			var local []tripleEdge
			for group := range jobs {
				if chk.Err() != nil {
					continue
				}
				first := group[0]
				colA, colB, colC := tb.Column(first.a), tb.Column(first.b), tb.Column(first.c)
				for i := 0; i < m; i++ {
					tailRow[i] = (int32(colA[i]-1)*int32(k)+int32(colB[i]-1))*int32(k) + int32(colC[i]-1)
				}
				for _, cand := range group {
					if chk.Tick() != nil {
						break
					}
					base := acvOfPair(cand.a, cand.b, cand.d)
					if v := acvOfPair(cand.a, cand.c, cand.d); v > base {
						base = v
					}
					if v := acvOfPair(cand.b, cand.c, cand.d); v > base {
						base = v
					}
					colD := tb.Column(cand.d)
					for i := range cnt[:kkk*k] {
						cnt[i] = 0
					}
					for i, tr := range tailRow {
						cnt[int(tr)*k+int(colD[i]-1)]++
					}
					var sum int64
					for r := 0; r < kkk; r++ {
						best := int32(0)
						for c := 0; c < k; c++ {
							if v := cnt[r*k+c]; v > best {
								best = v
							}
						}
						sum += int64(best)
					}
					acv := float64(sum) / float64(m)
					if acv >= cfg.GammaTriple*base {
						local = append(local, tripleEdge{cand, acv})
					}
				}
				if chk.Err() == nil {
					prog.Tick(1)
				}
			}
			results <- local
		}()
	}
	go func() {
		defer close(jobs)
		for _, group := range groups {
			select {
			case jobs <- group:
			case <-ctx.Done():
				return
			}
		}
	}()
	var admitted []tripleEdge
	done := make(chan struct{})
	go func() {
		for local := range results {
			admitted = append(admitted, local...)
		}
		close(done)
	}()
	wg.Wait()
	close(results)
	<-done
	if err := ctx.Err(); err != nil {
		return err
	}

	sort.Slice(admitted, func(i, j int) bool {
		a, b := admitted[i].key, admitted[j].key
		if a.a != b.a {
			return a.a < b.a
		}
		if a.b != b.b {
			return a.b < b.b
		}
		if a.c != b.c {
			return a.c < b.c
		}
		return a.d < b.d
	})
	for _, e := range admitted {
		if err := model.H.AddEdge([]int{e.key.a, e.key.b, e.key.c}, []int{e.key.d}, e.acv); err != nil {
			return err
		}
	}
	return nil
}

// groupByTail splits the sorted candidate list into runs sharing one
// tail triple, the unit of work (and of progress) for stage 3.
func groupByTail(cands []tripleKey) [][]tripleKey {
	var groups [][]tripleKey
	start := 0
	for i := 1; i <= len(cands); i++ {
		if i == len(cands) || cands[i].a != cands[start].a ||
			cands[i].b != cands[start].b || cands[i].c != cands[start].c {
			groups = append(groups, cands[start:i])
			start = i
		}
	}
	return groups
}
