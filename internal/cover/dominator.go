package cover

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"hypermine/internal/hypergraph"
	"hypermine/internal/runopt"
)

// Variant selects how the hypermine.LeadingIndicators facade
// interprets the Enhancement flags. Historically that entry point
// silently forced both enhancements on, overwriting caller-supplied
// values; the zero value VariantAuto keeps (and now documents) that
// paper-preferred default, while VariantExplicit makes the facade
// respect Enhancement1/Enhancement2 exactly as set. DominatorSetCover
// and DominatorGreedyDS always honor the explicit flags and ignore
// Variant entirely.
type Variant int

const (
	// VariantAuto (the zero value): LeadingIndicators runs Algorithm 6
	// with both enhancements regardless of the Enhancement fields.
	VariantAuto Variant = iota
	// VariantExplicit: LeadingIndicators uses Enhancement1/2 as given.
	VariantExplicit
)

// DefaultCheckEvery is the default candidate-evaluation stride between
// context polls in the Context dominator variants. Scoring one
// candidate touches its members and their out-edges, so 64 of them
// bound cancellation latency well under a greedy iteration.
const DefaultCheckEvery = 64

// Options tunes the dominator algorithms.
type Options struct {
	// Complete forces the greedy loop to run until every target is
	// covered, falling back to self-coverage (adding a node to the
	// dominator trivially covers it). When false — the default and
	// the behaviour behind the "Percent Covered" column of Tables
	// 5.3/5.4 — the loop stops as soon as the best candidate covers
	// no new target through hyperedges, leaving the remainder
	// uncovered instead of bloating the dominator.
	Complete bool
	// Enhancement1 enables Algorithm 7 for DominatorSetCover: among
	// equally effective tail sets prefer the one contributing the
	// fewest new dominator members.
	Enhancement1 bool
	// Enhancement2 enables Algorithm 8 for DominatorSetCover: drop
	// tail sets already contained in the dominator from the
	// candidate pool.
	Enhancement2 bool
	// Variant controls whether hypermine.LeadingIndicators may
	// overwrite the Enhancement flags with its paper-preferred
	// defaults; see the Variant type. The algorithms in this package
	// ignore it.
	Variant Variant

	// Run carries the runtime-only hooks of the Context variants: a
	// PhaseDominator progress callback (done counts covered targets,
	// total is |S|) and the context-poll stride in candidate
	// evaluations (0 = DefaultCheckEvery). Held by pointer so Options
	// stays comparable; never mutated by the algorithms.
	Run *runopt.Hooks
}

// Result reports a computed dominator.
type Result struct {
	// DomSet is the dominator, in pick order (members of a tail set
	// picked together appear consecutively).
	DomSet []int
	// Covered marks every vertex covered at termination (dominator
	// members and hyperedge-covered targets).
	Covered []bool
	// TargetCovered counts covered vertices of the requested set S.
	TargetCovered int
	// TargetSize is |S|.
	TargetSize int
	// Iterations is the number of greedy picks performed.
	Iterations int
}

// CoverageFraction returns TargetCovered / TargetSize.
func (r *Result) CoverageFraction() float64 {
	if r.TargetSize == 0 {
		return 0
	}
	return float64(r.TargetCovered) / float64(r.TargetSize)
}

// Targets returns the dominator's classifiable targets: the covered
// vertices outside DomSet, ascending.
func (r *Result) Targets() []int {
	inDom := make([]bool, len(r.Covered))
	for _, v := range r.DomSet {
		inDom[v] = true
	}
	var targets []int
	for v, cov := range r.Covered {
		if cov && !inDom[v] {
			targets = append(targets, v)
		}
	}
	return targets
}

// IsDominator checks Definition 4.1 for the subset of S marked covered:
// every covered u in S - X has a hyperedge e with T(e) inside X and u
// in H(e). It returns the covered targets that violate the property.
func IsDominator(h *hypergraph.H, s []int, dom []int) []int {
	inDom := make([]bool, h.NumVertices())
	for _, v := range dom {
		inDom[v] = true
	}
	var bad []int
	for _, u := range s {
		if inDom[u] {
			continue
		}
		ok := false
		for _, ei := range h.In(u) {
			e := h.Edge(int(ei))
			all := true
			for _, tv := range e.Tail {
				if !inDom[tv] {
					all = false
					break
				}
			}
			if all {
				ok = true
				break
			}
		}
		if !ok {
			bad = append(bad, u)
		}
	}
	return bad
}

func validateTargets(h *hypergraph.H, s []int) error {
	if len(s) == 0 {
		return errors.New("cover: empty target set")
	}
	seen := map[int]bool{}
	for _, v := range s {
		if v < 0 || v >= h.NumVertices() {
			return fmt.Errorf("cover: target vertex %d out of range", v)
		}
		if seen[v] {
			return fmt.Errorf("cover: duplicate target vertex %d", v)
		}
		seen[v] = true
	}
	return nil
}

// headGain appends to gained (from length zero) the targets in
// S - Covered that become covered through hyperedges once dom (with
// the candidate additions) is the dominator, and returns it. Callers
// pass the previous result back in as scratch.
func headGain(h *hypergraph.H, inS, covered, inDom []bool, added, gained []int) []int {
	for _, v := range added {
		inDom[v] = true
	}
	gained = gained[:0]
	for _, v := range added {
		for _, ei := range h.Out(v) {
			e := h.Edge(int(ei))
			hv := e.Head[0]
			if !inS[hv] || covered[hv] {
				continue
			}
			all := true
			for _, tv := range e.Tail {
				if !inDom[tv] {
					all = false
					break
				}
			}
			if all {
				covered[hv] = true
				gained = append(gained, hv)
			}
		}
	}
	// Roll back; caller commits separately.
	for _, v := range added {
		inDom[v] = false
	}
	for _, v := range gained {
		covered[v] = false
	}
	return gained
}

// DominatorGreedyDS is Algorithm 5: the adaptation of the greedy graph
// dominating-set approximation. Each iteration scores every vertex u
// outside the dominator with
//
//	alpha(u) = [u uncovered target] +
//	           sum over uncovered targets v of
//	           max over e with u in T(e), v in H(e) of
//	           w(e) / |T(e) - DomSet|
//
// and commits the highest-scoring vertex. Runs in O(|S| * |E|) per the
// paper. Ties break toward the smallest vertex id, so results are
// deterministic.
//
// Iterations memoize alpha scores with dirty tracking: committing a
// vertex only changes the score of candidates that share an edge with
// it (their free tail counts shrink) or with a newly covered head
// (their L(u, v) term drops), so everyone else keeps the cached value
// instead of rescanning its out-edges. The memoized run is
// bit-identical to the full rescan (see the differential test).
func DominatorGreedyDS(h *hypergraph.H, s []int, opt Options) (*Result, error) {
	return DominatorGreedyDSContext(context.Background(), h, s, opt)
}

// DominatorGreedyDSContext is DominatorGreedyDS under a context:
// cancellation is polled every Options.Run.CheckEvery candidate
// scorings (DefaultCheckEvery when unset) and ctx.Err() is returned promptly,
// discarding the partial dominator. Bit-identical to DominatorGreedyDS
// when never canceled.
func DominatorGreedyDSContext(ctx context.Context, h *hypergraph.H, s []int, opt Options) (*Result, error) {
	return dominatorGreedyDS(ctx, h, s, opt, true)
}

// dominatorGreedyDS is DominatorGreedyDS with the alpha memoization
// switchable, so tests can compare against the always-rescan reference.
func dominatorGreedyDS(ctx context.Context, h *hypergraph.H, s []int, opt Options, memo bool) (*Result, error) {
	if err := validateTargets(h, s); err != nil {
		return nil, err
	}
	chk := runopt.NewChecker(ctx, opt.Run.Stride(), DefaultCheckEvery)
	prog := runopt.NewMeter(runopt.PhaseDominator, len(s), opt.Run.Func())
	n := h.NumVertices()
	inS := make([]bool, n)
	for _, v := range s {
		inS[v] = true
	}
	covered := make([]bool, n)
	inDom := make([]bool, n)
	res := &Result{Covered: covered, TargetSize: len(s)}

	remaining := len(s)
	// lBest[v] accumulates the per-head maximum L(u, v) while scoring a
	// candidate u; touched lists the heads to reset between candidates.
	lBest := make([]float64, n)
	touched := make([]int, 0, n)
	score := func(u int) float64 {
		alpha := 0.0
		if inS[u] && !covered[u] {
			alpha = 1
		}
		touched = touched[:0]
		for _, ei := range h.Out(u) {
			e := h.Edge(int(ei))
			hv := e.Head[0]
			if !inS[hv] || covered[hv] {
				continue
			}
			free := 0
			for _, tv := range e.Tail {
				if !inDom[tv] {
					free++
				}
			}
			if free == 0 {
				continue
			}
			// L(u, v) is the max over edges from u into v of
			// w(e)/|T(e)-DomSet| — keep only the best edge per head.
			if l := e.Weight / float64(free); l > lBest[hv] {
				if lBest[hv] == 0 {
					touched = append(touched, hv)
				}
				lBest[hv] = l
			}
		}
		for _, hv := range touched {
			alpha += lBest[hv]
			lBest[hv] = 0
		}
		return alpha
	}
	alphaCache := make([]float64, n)
	dirty := make([]bool, n)
	for u := range dirty {
		dirty[u] = true
	}
	// markCommitted records that v joined the dominator: every edge
	// with v in its tail now has one less free tail vertex, changing
	// the L terms of all its other tail members.
	markCommitted := func(v int) {
		for _, ei := range h.Out(v) {
			for _, tv := range h.Edge(int(ei)).Tail {
				dirty[tv] = true
			}
		}
	}
	// markCovered records that target v became covered: candidates
	// feeding v through a hyperedge lose their L(u, v) term, and v
	// itself loses its self-coverage unit.
	markCovered := func(v int) {
		dirty[v] = true
		for _, ei := range h.In(v) {
			for _, tv := range h.Edge(int(ei)).Tail {
				dirty[tv] = true
			}
		}
	}
	var gained []int // headGain scratch
	for remaining > 0 {
		bestU, bestAlpha := -1, -1.0
		for u := 0; u < n; u++ {
			if inDom[u] {
				continue
			}
			if err := chk.Tick(); err != nil {
				return nil, err
			}
			if !memo || dirty[u] {
				alphaCache[u] = score(u)
				dirty[u] = false
			}
			if alphaCache[u] > bestAlpha {
				bestAlpha, bestU = alphaCache[u], u
			}
		}
		if bestU < 0 {
			break
		}
		gained = headGain(h, inS, covered, inDom, []int{bestU}, gained)
		gain := len(gained)
		selfGain := 0
		if inS[bestU] && !covered[bestU] {
			selfGain = 1
		}
		if !opt.Complete && gain == 0 && bestAlpha <= 1 {
			// Only self-coverage left: stop, reporting partial
			// coverage (the paper's "Percent Covered" < 100).
			break
		}
		if gain == 0 && selfGain == 0 && opt.Complete {
			// No progress possible even in complete mode for this
			// pick; fall back to covering an arbitrary uncovered
			// target directly.
			bestU = -1
			for _, v := range s {
				if !covered[v] && !inDom[v] {
					bestU = v
					break
				}
			}
			if bestU < 0 {
				break
			}
			gained = headGain(h, inS, covered, inDom, []int{bestU}, gained)
			gain = len(gained)
		}
		inDom[bestU] = true
		res.DomSet = append(res.DomSet, bestU)
		res.Iterations++
		markCommitted(bestU)
		newlyCovered := 0
		if inS[bestU] && !covered[bestU] {
			covered[bestU] = true
			remaining--
			res.TargetCovered++
			newlyCovered++
			markCovered(bestU)
		}
		for _, v := range gained {
			covered[v] = true
			remaining--
			res.TargetCovered++
			newlyCovered++
			markCovered(v)
		}
		prog.Tick(newlyCovered)
	}
	return res, nil
}

// tailCandidate is one entry of the T* pool of Algorithm 6.
type tailCandidate struct {
	members []int // sorted vertex ids
}

// DominatorSetCover is Algorithm 6: the adaptation of the greedy
// set-cover approximation. The candidate pool T* holds the distinct
// tail sets of all hyperedges; each iteration scores a candidate t* by
// the number of new target vertices it would cover — its own members
// plus heads of edges whose tails lie inside t* — and commits the best
// one.
//
// Deviation from the pseudocode, documented here on purpose: Lines
// 13–17 of Algorithm 6 add one unit per *edge* with T(e) inside t*,
// which double-counts a head reachable through several edges. This
// implementation counts distinct head vertices, matching the stated
// intent ("alpha(t*) contains all new vertices that can be covered by
// including t* in DomSet").
//
// Enhancements 1 and 2 (Algorithms 7 and 8) are applied when enabled
// in Options. Ties (after Enhancement 1, if on) break lexicographically
// so results are deterministic.
func DominatorSetCover(h *hypergraph.H, s []int, opt Options) (*Result, error) {
	return DominatorSetCoverContext(context.Background(), h, s, opt)
}

// DominatorSetCoverContext is DominatorSetCover under a context:
// cancellation is polled every Options.Run.CheckEvery candidate
// evaluations (DefaultCheckEvery when unset) within each greedy
// iteration, and ctx.Err() is returned promptly, discarding the
// partial dominator. Bit-identical to DominatorSetCover when never
// canceled.
func DominatorSetCoverContext(ctx context.Context, h *hypergraph.H, s []int, opt Options) (*Result, error) {
	if err := validateTargets(h, s); err != nil {
		return nil, err
	}
	chk := runopt.NewChecker(ctx, opt.Run.Stride(), DefaultCheckEvery)
	prog := runopt.NewMeter(runopt.PhaseDominator, len(s), opt.Run.Func())
	n := h.NumVertices()
	inS := make([]bool, n)
	for _, v := range s {
		inS[v] = true
	}
	covered := make([]bool, n)
	inDom := make([]bool, n)
	res := &Result{Covered: covered, TargetSize: len(s)}

	// Build the distinct tail-set pool, deduplicating on the packed
	// integer tail key (string EdgeKey fallback for tails beyond the
	// restricted model).
	pool := map[uint64]tailCandidate{}
	var poolS map[string]tailCandidate
	for _, e := range h.Edges() {
		if err := chk.Tick(); err != nil {
			return nil, err
		}
		if key, ok := hypergraph.PackTailKey(e.Tail); ok {
			if _, dup := pool[key]; !dup {
				pool[key] = tailCandidate{members: e.Tail}
			}
			continue
		}
		if poolS == nil {
			poolS = map[string]tailCandidate{}
		}
		key := hypergraph.EdgeKey(e.Tail, e.Tail[:1])
		if _, dup := poolS[key]; !dup {
			poolS[key] = tailCandidate{members: e.Tail}
		}
	}
	cands := make([]tailCandidate, 0, len(pool)+len(poolS))
	for _, c := range pool {
		cands = append(cands, c)
	}
	for _, c := range poolS {
		cands = append(cands, c)
	}
	sort.Slice(cands, func(i, j int) bool { return lessIntSlice(cands[i].members, cands[j].members) })

	remaining := len(s)
	var added, gained []int // diffMembers / headGain scratch
	for remaining > 0 && len(cands) > 0 {
		bestIdx, bestAlpha := -1, 0
		bestNew := 0 // |t* - DomSet| of the current best (Enhancement 1)
		bestHGIdx, bestHG := -1, 0
		keep := cands[:0]
		for _, c := range cands {
			if err := chk.Tick(); err != nil {
				return nil, err
			}
			if opt.Enhancement2 && subsetOf(c.members, inDom) {
				continue // Algorithm 8: drop permanently
			}
			alpha := 0
			newMembers := 0
			for _, v := range c.members {
				if !inDom[v] {
					newMembers++
				}
				if inS[v] && !covered[v] {
					alpha++
				}
			}
			added = diffMembers(c.members, inDom, added)
			gained = headGain(h, inS, covered, inDom, added, gained)
			hg := len(gained)
			alpha += hg
			if alpha == 0 {
				continue // Line 18: discard ineffective sets
			}
			keep = append(keep, c)
			idx := len(keep) - 1
			switch {
			case alpha > bestAlpha:
				bestAlpha, bestIdx, bestNew = alpha, idx, newMembers
			case alpha == bestAlpha && opt.Enhancement1 && newMembers < bestNew:
				// Algorithm 7: prefer the candidate adding fewer
				// members to the dominator.
				bestIdx, bestNew = idx, newMembers
			}
			if hg > bestHG {
				bestHG, bestHGIdx = hg, idx
			}
		}
		cands = keep
		if bestIdx < 0 {
			break
		}
		chosen := cands[bestIdx]
		added = diffMembers(chosen.members, inDom, added)
		gained = headGain(h, inS, covered, inDom, added, gained)
		hg := len(gained)
		if !opt.Complete && hg == 0 {
			// The alpha-best candidate only self-covers. Fall back to
			// the best hyperedge-covering candidate if one exists;
			// otherwise stop with partial coverage (the "Percent
			// Covered" < 100 of Tables 5.3/5.4).
			if bestHGIdx < 0 {
				break
			}
			chosen = cands[bestHGIdx]
			added = diffMembers(chosen.members, inDom, added)
			gained = headGain(h, inS, covered, inDom, added, gained)
			hg = len(gained)
			if hg == 0 {
				break
			}
		}
		for _, v := range added {
			inDom[v] = true
			res.DomSet = append(res.DomSet, v)
		}
		res.Iterations++
		// Line 22: Covered grows by the tail members and newly
		// dominated heads.
		newlyCovered := 0
		for _, v := range chosen.members {
			if !covered[v] {
				covered[v] = true
				if inS[v] {
					remaining--
					res.TargetCovered++
					newlyCovered++
				}
			}
		}
		for _, v := range gained {
			if !covered[v] {
				covered[v] = true
				remaining--
				res.TargetCovered++
				newlyCovered++
			}
		}
		prog.Tick(newlyCovered)
	}
	if opt.Complete {
		for _, v := range s {
			if err := chk.Tick(); err != nil {
				return nil, err
			}
			if !covered[v] {
				covered[v] = true
				inDom[v] = true
				res.DomSet = append(res.DomSet, v)
				res.TargetCovered++
				prog.Tick(1)
			}
		}
	}
	return res, nil
}

func subsetOf(members []int, in []bool) bool {
	for _, v := range members {
		if !in[v] {
			return false
		}
	}
	return true
}

// diffMembers appends to dst (from length zero) the members outside
// the dominator and returns it.
func diffMembers(members []int, inDom []bool, dst []int) []int {
	dst = dst[:0]
	for _, v := range members {
		if !inDom[v] {
			dst = append(dst, v)
		}
	}
	return dst
}

func lessIntSlice(a, b []int) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}
