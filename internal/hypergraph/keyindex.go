package hypergraph

import "math/bits"

// keyIndex maps packed edge keys (see packed.go) to edge ids without a
// Go map. keys holds every edge's packed key by edge id (0 for an edge
// that is not packable: it lives in H's string-key map). slots is a
// flat open-addressing table over those ids: a probe starts at the
// key's Fibonacci hash, walks forward (linear probing) and compares
// keys[id] at each occupied slot until it meets the key or an empty
// slot. Edges are never removed, so there are no tombstones.
//
// A slot is 4 bytes (id+1, 0 when empty), and the table is kept at
// most half full, so a probe meets an empty slot or its key within
// about one or two slots. Per edge that is at most 16 bytes of slots
// plus the 8-byte key: on the 13050-edge serving model, sized by
// Reserve, 235 KB, less than the 296 KB a map[uint64]int32 of the same
// keys takes (TestKeyIndexBytesBar), and BenchmarkOutSim's mix of hits
// and misses probes it faster than such a map.
type keyIndex struct {
	keys  []uint64 // packed key by edge id; 0: not packable
	slots []uint32 // edge id+1; 0: empty
	shift uint     // 64 - log2(len(slots)): a hash's top bits pick the home slot
	n     int      // packable edges (occupied slots)
}

// minIndexSlots is the smallest table.
const minIndexSlots = 8

// reserve empties the index and sizes it for n edges, all packable.
func (x *keyIndex) reserve(n int) {
	slots := minIndexSlots
	for slots < 2*n {
		slots *= 2
	}
	x.keys = make([]uint64, 0, n)
	x.alloc(slots)
	x.n = 0
}

// alloc replaces the table with slots empty slots (a power of two).
func (x *keyIndex) alloc(slots int) {
	x.slots = make([]uint32, slots)
	x.shift = uint(64 - bits.TrailingZeros(uint(slots)))
}

// home returns the first slot a probe for k visits.
func (x *keyIndex) home(k uint64) uint64 { return (k * 0x9E3779B97F4A7C15) >> x.shift }

// get returns the id of the edge whose packed key is k.
//
//hyper:noalloc
func (x *keyIndex) get(k uint64) (int32, bool) {
	if x.n == 0 {
		return 0, false
	}
	mask := uint64(len(x.slots) - 1)
	for i := x.home(k); ; i = (i + 1) & mask {
		s := x.slots[i]
		if s == 0 {
			return 0, false
		}
		if x.keys[s-1] == k {
			return int32(s - 1), true
		}
	}
}

// add records the next edge id, len(x.keys), under packed key k, or
// only keeps its place when k is 0 (the edge is not packable). It
// stores nothing and reports false if k is already present.
func (x *keyIndex) add(k uint64) bool {
	if k == 0 {
		x.keys = append(x.keys, 0)
		return true
	}
	if 2*(x.n+1) > len(x.slots) { // keep the table at most half full
		x.grow()
	}
	mask := uint64(len(x.slots) - 1)
	i := x.home(k)
	for ; x.slots[i] != 0; i = (i + 1) & mask {
		if x.keys[x.slots[i]-1] == k {
			return false
		}
	}
	x.keys = append(x.keys, k)
	x.slots[i] = uint32(len(x.keys))
	x.n++
	return true
}

// grow doubles the table (or gives an unsized one its first slots) and
// re-places every packable edge.
func (x *keyIndex) grow() {
	x.alloc(max(2*len(x.slots), minIndexSlots))
	mask := uint64(len(x.slots) - 1)
	for id, k := range x.keys {
		if k == 0 {
			continue
		}
		i := x.home(k)
		for x.slots[i] != 0 {
			i = (i + 1) & mask
		}
		x.slots[i] = uint32(id + 1)
	}
}
