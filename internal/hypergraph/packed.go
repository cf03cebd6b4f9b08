package hypergraph

// Packed edge keys. The paper's restricted association hypergraphs
// only carry edges with |T| <= 3 and |H| = 1 (directed, 2-to-1, and
// the thesis's future-work 3-to-1 generalization), so a (tail, head)
// pair fits in one uint64: four 16-bit slots, each holding id+1 with 0
// meaning "slot empty".
//
//	bits  0..15  tail[0]+1   (smallest tail id)
//	bits 16..31  tail[1]+1   (0 when |T| < 2)
//	bits 32..47  tail[2]+1   (0 when |T| < 3)
//	bits 48..63  head[0]+1
//
// Tail ids are stored sorted ascending, so the encoding is canonical:
// any permutation of the same tail set packs to the same key. An edge
// is packable iff 1 <= |T| <= 3, |H| == 1, and every vertex id is in
// [0, MaxPackedID]. Everything else (larger heads or tails, ids beyond
// 16 bits) falls back to the string EdgeKey map — correctness never
// depends on packability, only speed does.
//
// Packability is a pure function of the (tail, head) sets, so H can
// route each edge to exactly one of its two key indexes (the flat
// packed-key table of keyindex.go, or the string map) and Lookup can
// decide which to probe without any per-graph gate. A packed key is
// never 0 (the head slot holds head+1), so the flat table can use 0
// to mark an edge that has no packed key.

// MaxPackedID is the largest vertex id a packed key can carry (id+1
// must fit in 16 bits).
const MaxPackedID = 0xFFFE

// MaxRestrictedTail is the largest tail size of the restricted model
// (and of a packed key): sized scratch buffers of this length cover
// every packable edge.
const MaxRestrictedTail = 3

// PackEdgeKey returns the canonical uint64 key of a (tail, head) pair
// and whether the pair is packable. The slices need not be sorted.
// It performs no heap allocation.
//
//hyper:noalloc
func PackEdgeKey(tail, head []int) (uint64, bool) {
	if len(head) != 1 {
		return 0, false
	}
	h0 := head[0]
	if uint(h0) > MaxPackedID {
		return 0, false
	}
	tk, ok := PackTailKey(tail)
	if !ok {
		return 0, false
	}
	return tk | uint64(h0+1)<<48, true
}

// PackTailKey packs a tail set alone (head slot zero) — the canonical
// integer identity of a tail set, used e.g. to deduplicate the T* pool
// of Algorithm 6. Same packability rules as PackEdgeKey.
//
//hyper:noalloc
func PackTailKey(tail []int) (uint64, bool) {
	switch len(tail) {
	case 1:
		t0 := tail[0]
		if uint(t0) > MaxPackedID {
			return 0, false
		}
		return uint64(t0 + 1), true
	case 2:
		t0, t1 := tail[0], tail[1]
		if t0 > t1 {
			t0, t1 = t1, t0
		}
		if uint(t0) > MaxPackedID || uint(t1) > MaxPackedID {
			return 0, false
		}
		return uint64(t0+1) | uint64(t1+1)<<16, true
	case 3:
		t0, t1, t2 := tail[0], tail[1], tail[2]
		if t0 > t1 {
			t0, t1 = t1, t0
		}
		if t1 > t2 {
			t1, t2 = t2, t1
		}
		if t0 > t1 {
			t0, t1 = t1, t0
		}
		if uint(t0) > MaxPackedID || uint(t2) > MaxPackedID {
			return 0, false
		}
		return uint64(t0+1) | uint64(t1+1)<<16 | uint64(t2+1)<<32, true
	default:
		return 0, false
	}
}
