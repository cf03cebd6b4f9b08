package similarity

import (
	"math"

	"hypermine/internal/hypergraph"
)

// The substitution join behind BuildGraphContext.
//
// OutSim pairs an edge e leaving a1 with the edge f = (T(e) with a1
// replaced by a2, H(e)). Key every out incidence (e, v) by its
// remainder (T(e) - {v}, H(e)): then f exists iff a2 has an out
// incidence with e's remainder, because the remainder and a2 fix f's
// sets, and validSets keeps every vertex out of repeats and out of
// both sides of an edge, so the substitution OutSim tests is valid
// exactly when the remainders match. In incidences (e, v) are keyed by
// (T(e), H(e) - {v}) in the same way for InSim. A vertex meets each
// remainder at most once, since (remainder, v) determines the edge.
//
// The join gives every remainder a dense bucket id and lists each
// vertex's ids in h.Out(v) and h.In(v) order. A pair then stamps a2's
// buckets into an array and walks a1's and a2's lists in OutSim's and
// InSim's order, so each Lookup becomes an array read and every sum
// adds the same terms in the same order: the distances are bit-for-bit
// those of Distance. Out and in remainders share one id space and may
// share an id, since each walk reads only the stamps it wrote.

// side is one vertex's out or in incidences: bucket ids and edge
// weights, in h.Out(v) or h.In(v) order.
type side struct {
	bucket []int32
	weight []float64
}

// joinIndex holds the incidence lists of the vertices of one
// collection S, indexed by vertex id, and the number of bucket ids.
type joinIndex struct {
	lists   []incidences
	buckets int
}

type incidences struct {
	out, in side
	indexed bool // v is in S
}

// newJoinIndex lists the out and in incidences of every vertex of s.
func newJoinIndex(h *hypergraph.H, s []int) *joinIndex {
	nv := h.NumVertices()
	ix := &joinIndex{lists: make([]incidences, nv)}
	total := 0
	for _, v := range s {
		total += len(h.Out(v)) + len(h.In(v))
	}
	bucket, weight := make([]int32, total), make([]float64, total)
	carve := func(n int) side {
		sd := side{bucket[:n:n], weight[:n:n]}
		bucket, weight = bucket[n:], weight[n:]
		return sd
	}
	keys := newKeyTable(total)
	edges := h.Edges()
	for _, v := range s {
		l := &ix.lists[v]
		if l.indexed {
			continue
		}
		out, in := h.Out(v), h.In(v)
		*l = incidences{out: carve(len(out)), in: carve(len(in)), indexed: true}
		for p, id := range out {
			e := &edges[id]
			l.out.bucket[p] = keys.outID(e.Tail, e.Head, v)
			l.out.weight[p] = e.Weight
		}
		for p, id := range in {
			e := &edges[id]
			l.in.bucket[p] = keys.inID(e.Tail, e.Head, v)
			l.in.weight[p] = e.Weight
		}
	}
	ix.buckets = int(keys.n)
	return ix
}

// keyTable assigns dense bucket ids to remainders. Remainders of the
// restricted model pack into a uint64 in PackEdgeKey's layout and are
// interned in an open-addressing table; any other shape (a head of
// more than one vertex, a long tail, a large id) takes a string key in
// a map. Remainders repeat across many incidences (40 x 50000 mined:
// 92040 incidences, 2420 buckets), so the table starts at a size that
// stays in cache and doubles when half full.
type keyTable struct {
	slots   []keySlot
	shift   uint
	n       int32
	general map[string]int32
}

// keySlot is one open-addressing slot; key 0 marks it empty (no packed
// remainder is 0: an out remainder has a head, an in remainder a tail).
type keySlot struct {
	key uint64
	id  int32
}

// keyTableStart bounds the table's first size, in slots.
const keyTableStart = 4096

func newKeyTable(incidences int) *keyTable {
	bits := uint(4)
	for 1<<bits < min(2*incidences, keyTableStart) {
		bits++
	}
	return &keyTable{slots: make([]keySlot, 1<<bits), shift: 64 - bits}
}

// outID returns the bucket of the out incidence (tail, head, v):
// remainder (tail - {v}, head). Packed, the remaining tail ids fill
// slots 0..2 and the head slot 3.
func (t *keyTable) outID(tail, head []int, v int) int32 {
	if len(head) == 1 && uint(head[0]) <= hypergraph.MaxPackedID && len(tail) <= hypergraph.MaxRestrictedTail+1 {
		key, shift := uint64(head[0]+1)<<48, 0
		packed := true
		for _, u := range tail {
			if u == v {
				continue
			}
			if uint(u) > hypergraph.MaxPackedID {
				packed = false
				break
			}
			key |= uint64(u+1) << shift
			shift += 16
		}
		if packed {
			return t.packedID(key)
		}
	}
	return t.generalID(without(tail, v), head)
}

// inID returns the bucket of the in incidence (tail, head, v):
// remainder (tail, head - {v}). Packed, it is tail's PackTailKey.
func (t *keyTable) inID(tail, head []int, v int) int32 {
	if len(head) == 1 {
		if key, ok := hypergraph.PackTailKey(tail); ok {
			return t.packedID(key)
		}
	}
	return t.generalID(tail, without(head, v))
}

func (t *keyTable) packedID(key uint64) int32 {
	sl := t.slot(key)
	if sl.key == 0 {
		if 2*(int(t.n)+1) > len(t.slots) {
			t.grow()
			sl = t.slot(key)
		}
		sl.key, sl.id = key, t.n
		t.n++
	}
	return sl.id
}

// slot returns key's slot: the one holding it, or the empty one where
// it would go.
func (t *keyTable) slot(key uint64) *keySlot {
	mask := len(t.slots) - 1
	for i := int(key * 0x9E3779B97F4A7C15 >> t.shift); ; i = (i + 1) & mask {
		if sl := &t.slots[i]; sl.key == key || sl.key == 0 {
			return sl
		}
	}
}

func (t *keyTable) grow() {
	old := t.slots
	t.slots, t.shift = make([]keySlot, 2*len(old)), t.shift-1
	for _, sl := range old {
		if sl.key != 0 {
			*t.slot(sl.key) = sl
		}
	}
}

func (t *keyTable) generalID(tail, head []int) int32 {
	key := hypergraph.EdgeKey(tail, head)
	if id, ok := t.general[key]; ok {
		return id
	}
	if t.general == nil {
		t.general = make(map[string]int32)
	}
	t.general[key] = t.n
	t.n++
	return t.n - 1
}

func without(ids []int, v int) []int {
	out := make([]int, 0, len(ids))
	for _, u := range ids {
		if u != v {
			out = append(out, u)
		}
	}
	return out
}

// joinScratch is one worker's stamp array over the bucket ids. Each
// sim call takes a fresh epoch, so no call clears the array.
type joinScratch struct {
	stamps []stamp
	epoch  uint32
}

// stamp marks a bucket as held by a2 (mark == epoch, with a2's edge
// weight) or as already matched from a1 (mark == epoch+1).
type stamp struct {
	mark   uint32
	weight float64
}

func newJoinScratch(buckets int) *joinScratch {
	return &joinScratch{stamps: make([]stamp, buckets)}
}

// sim is OutSim (given out sides) or InSim (given in sides) of two
// distinct vertices a1 and a2, summed in the same order.
func (sc *joinScratch) sim(a1, a2 side) float64 {
	if sc.epoch >= math.MaxUint32-2 {
		clear(sc.stamps)
		sc.epoch = 0
	}
	sc.epoch += 2
	held, matched := sc.epoch, sc.epoch+1
	st := sc.stamps
	for q, b := range a2.bucket {
		st[b] = stamp{held, a2.weight[q]}
	}
	var num, den float64
	for p, b := range a1.bucket {
		w := a1.weight[p]
		if s := &st[b]; s.mark == held {
			// min and max treat NaN and signed zeros as math.Min
			// and math.Max do.
			num += min(w, s.weight)
			den += max(w, s.weight)
			s.mark = matched
			continue
		}
		den += w
	}
	for q, b := range a2.bucket {
		if st[b].mark != matched {
			den += a2.weight[q]
		}
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// distance is Distance(h, a1, a2) for a1 != a2, read off the join.
func (ix *joinIndex) distance(sc *joinScratch, a1, a2 int) float64 {
	l1, l2 := &ix.lists[a1], &ix.lists[a2]
	return 1 - (sc.sim(l1.in, l2.in)+sc.sim(l1.out, l2.out))/2
}
