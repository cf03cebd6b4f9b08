package core

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sort"

	"hypermine/internal/hypergraph"
	"hypermine/internal/table"
)

// Binary model snapshots: the one on-disk form of a mined model. The
// CLI writes them (`hypermine build`), the serving daemon loads and
// replicates them, and serving restarts and hot reloads are bounded by
// how fast they decode, so the format is binary:
//
//	magic   "HYPM"                        4 bytes
//	version uvarint                       (currently 1)
//	flags   uvarint                       bit 0: snapshot carries rows
//	section schema                        k, attribute names
//	section config                        the build Config
//	section edges                         varint tails/heads + weights
//	section acv                           the EdgeACV cache
//	section rows (iff flags bit 0)        column-major raw cells
//	crc32   IEEE, little-endian           over magic..last section
//
// Every section is length-prefixed (uvarint payload size), so readers
// can verify framing per section and future versions can add sections
// without breaking old layouts. Vertex ids and counts are uvarints;
// float64s (gammas, edge weights, ACVs) are little-endian IEEE bits so
// values round-trip exactly. Rows are stored column-major one byte per
// cell (table.Value is uint8), which makes the rows section — the bulk
// of a full snapshot — a straight memory copy on load.
//
// The rows section is optional so serving snapshots can omit the
// training table. A model loaded without rows has RowsOmitted set and
// an empty (schema-only) table: graph queries (similarity, dominators,
// weights) work, while row-dependent operations (association tables,
// rule mining, classifier construction) fail via RequireRows.

// snapshotMagic identifies a hypermine binary model snapshot.
var snapshotMagic = [4]byte{'H', 'Y', 'P', 'M'}

// SnapshotVersion is the current snapshot format version.
const SnapshotVersion = 1

const snapshotFlagRows = 1 << 0

// SaveOptions tunes WriteSnapshot.
type SaveOptions struct {
	// OmitRows drops the training table from the saved model. The
	// resulting file is much smaller and loads faster, but the loaded
	// model cannot rebuild association tables: see Model.RequireRows.
	OmitRows bool
}

// appendUvarint / appendFloat64 are the snapshot primitive writers.
func appendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

func appendFloat64(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

// appendSection frames a section payload with its uvarint length.
func appendSection(dst, payload []byte) []byte {
	dst = appendUvarint(dst, uint64(len(payload)))
	return append(dst, payload...)
}

// WriteSnapshot serializes the model in the binary snapshot format.
// With opt.OmitRows (or when the model itself has no rows) the rows
// section is skipped and the snapshot is marked row-less.
func WriteSnapshot(w io.Writer, m *Model, opt SaveOptions) error {
	if m == nil || m.Table == nil || m.H == nil {
		return fmt.Errorf("core: snapshot: nil model")
	}
	tb := m.Table
	n := tb.NumAttrs()
	if len(m.EdgeACV) != n*n {
		return fmt.Errorf("core: snapshot: edgeACV has %d entries, want %d", len(m.EdgeACV), n*n)
	}
	hasRows := !opt.OmitRows && !m.RowsOmitted && tb.NumRows() > 0

	buf := make([]byte, 0, snapshotSizeHint(m, hasRows))
	buf = append(buf, snapshotMagic[:]...)
	buf = appendUvarint(buf, SnapshotVersion)
	var flags uint64
	if hasRows {
		flags |= snapshotFlagRows
	}
	buf = appendUvarint(buf, flags)

	// Schema section: k, then the attribute names.
	var sec []byte
	sec = appendUvarint(sec, uint64(tb.K()))
	sec = appendUvarint(sec, uint64(n))
	for _, a := range tb.Attrs() {
		sec = appendUvarint(sec, uint64(len(a)))
		sec = append(sec, a...)
	}
	buf = appendSection(buf, sec)

	// Config section.
	cfg := m.Config
	sec = sec[:0]
	sec = appendUvarint(sec, uint64(cfg.K))
	sec = appendUvarint(sec, uint64(cfg.MaxTailSize))
	sec = appendUvarint(sec, uint64(cfg.Candidates))
	sec = appendUvarint(sec, uint64(cfg.Parallelism))
	sec = appendFloat64(sec, cfg.GammaEdge)
	sec = appendFloat64(sec, cfg.GammaPair)
	sec = appendFloat64(sec, cfg.GammaTriple)
	buf = appendSection(buf, sec)

	// Edges section.
	edges := m.H.Edges()
	sec = sec[:0]
	sec = appendUvarint(sec, uint64(len(edges)))
	for _, e := range edges {
		sec = appendUvarint(sec, uint64(len(e.Tail)))
		for _, v := range e.Tail {
			sec = appendUvarint(sec, uint64(v))
		}
		sec = appendUvarint(sec, uint64(len(e.Head)))
		for _, v := range e.Head {
			sec = appendUvarint(sec, uint64(v))
		}
		sec = appendFloat64(sec, e.Weight)
	}
	buf = appendSection(buf, sec)

	// ACV section.
	sec = sec[:0]
	sec = appendUvarint(sec, uint64(len(m.EdgeACV)))
	for _, v := range m.EdgeACV {
		sec = appendFloat64(sec, v)
	}
	buf = appendSection(buf, sec)

	// Rows section: column-major raw bytes.
	if hasRows {
		rows := tb.NumRows()
		sec = sec[:0]
		sec = appendUvarint(sec, uint64(rows))
		for j := 0; j < n; j++ {
			col := tb.Column(j)
			for _, v := range col {
				sec = append(sec, byte(v))
			}
		}
		buf = appendSection(buf, sec)
	}

	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
	_, err := w.Write(buf)
	return err
}

// snapshotSizeHint estimates the serialized size to seed the write
// buffer (exactness is irrelevant; it only avoids regrowth churn).
func snapshotSizeHint(m *Model, hasRows bool) int {
	n := m.Table.NumAttrs()
	size := 256 + 16*n + 32*m.H.NumEdges() + 8*len(m.EdgeACV)
	if hasRows {
		size += n * m.Table.NumRows()
	}
	return size
}

// snapReader decodes snapshot primitives from an in-memory buffer.
type snapReader struct {
	b   []byte
	off int
}

func (r *snapReader) remaining() int { return len(r.b) - r.off }

func (r *snapReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("core: snapshot: truncated varint at offset %d", r.off)
	}
	r.off += n
	return v, nil
}

// count reads a uvarint used as an element count and bounds it by the
// bytes actually remaining (each element costs at least one byte), so
// corrupt counts fail cleanly instead of attempting huge allocations.
func (r *snapReader) count(what string) (int, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if v > uint64(r.remaining()) {
		return 0, fmt.Errorf("core: snapshot: %s count %d exceeds payload", what, v)
	}
	return int(v), nil
}

func (r *snapReader) float64() (float64, error) {
	if r.remaining() < 8 {
		return 0, fmt.Errorf("core: snapshot: truncated float at offset %d", r.off)
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b[r.off:]))
	r.off += 8
	return v, nil
}

func (r *snapReader) bytes(n int, what string) ([]byte, error) {
	if n < 0 || r.remaining() < n {
		return nil, fmt.Errorf("core: snapshot: truncated %s at offset %d", what, r.off)
	}
	out := r.b[r.off : r.off+n]
	r.off += n
	return out, nil
}

// section returns a reader over the next length-prefixed section.
func (r *snapReader) section(what string) (*snapReader, error) {
	size, err := r.uvarint()
	if err != nil {
		return nil, fmt.Errorf("core: snapshot: %s section: %w", what, err)
	}
	payload, err := r.bytes(int(size), what+" section")
	if err != nil {
		return nil, err
	}
	return &snapReader{b: payload}, nil
}

// ReadSnapshot loads a model written by WriteSnapshot, verifying the
// checksum and re-validating the schema and every hyperedge. Snapshots
// saved with OmitRows come back with RowsOmitted set and an empty
// training table (see Model.RequireRows).
func ReadSnapshot(r io.Reader) (*Model, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("core: snapshot: %w", err)
	}
	if len(raw) < len(snapshotMagic)+4 {
		return nil, fmt.Errorf("core: snapshot: %d bytes is too short", len(raw))
	}
	body, sum := raw[:len(raw)-4], binary.LittleEndian.Uint32(raw[len(raw)-4:])
	if got := crc32.ChecksumIEEE(body); got != sum {
		return nil, fmt.Errorf("core: snapshot: checksum mismatch (got %08x, want %08x)", got, sum)
	}
	if string(body[:4]) != string(snapshotMagic[:]) {
		return nil, fmt.Errorf("core: snapshot: bad magic %q", body[:4])
	}
	sr := &snapReader{b: body, off: 4}
	version, err := sr.uvarint()
	if err != nil {
		return nil, err
	}
	if version != SnapshotVersion {
		return nil, fmt.Errorf("core: snapshot: unsupported version %d (have %d)", version, SnapshotVersion)
	}
	flags, err := sr.uvarint()
	if err != nil {
		return nil, err
	}
	hasRows := flags&snapshotFlagRows != 0

	// Schema.
	sec, err := sr.section("schema")
	if err != nil {
		return nil, err
	}
	k64, err := sec.uvarint()
	if err != nil {
		return nil, err
	}
	nAttrs, err := sec.count("attribute")
	if err != nil {
		return nil, err
	}
	attrs := make([]string, nAttrs)
	for j := range attrs {
		nameLen, err := sec.count("attribute-name")
		if err != nil {
			return nil, err
		}
		name, err := sec.bytes(nameLen, "attribute name")
		if err != nil {
			return nil, err
		}
		attrs[j] = string(name)
	}

	// Config.
	sec, err = sr.section("config")
	if err != nil {
		return nil, err
	}
	var cfg Config
	cfgK, err := sec.uvarint()
	if err != nil {
		return nil, err
	}
	maxTail, err := sec.uvarint()
	if err != nil {
		return nil, err
	}
	cand, err := sec.uvarint()
	if err != nil {
		return nil, err
	}
	par, err := sec.uvarint()
	if err != nil {
		return nil, err
	}
	cfg.K, cfg.MaxTailSize, cfg.Candidates, cfg.Parallelism = int(cfgK), int(maxTail), CandidateStrategy(cand), int(par)
	if cfg.GammaEdge, err = sec.float64(); err != nil {
		return nil, err
	}
	if cfg.GammaPair, err = sec.float64(); err != nil {
		return nil, err
	}
	if cfg.GammaTriple, err = sec.float64(); err != nil {
		return nil, err
	}

	// Edges.
	sec, err = sr.section("edges")
	if err != nil {
		return nil, err
	}
	h, err := hypergraph.New(attrs)
	if err != nil {
		return nil, err
	}
	numEdges, err := sec.count("edge")
	if err != nil {
		return nil, err
	}
	// Every tail and head lands in one slab, sized exactly by a
	// counting pre-pass (each id takes at least one byte, so the size
	// is capped by the section). The graph keeps capped sub-slices of
	// it, and delta generations go on sharing them, so an oversized
	// slab would stay live for as long as the model line does. The
	// same pass counts vertex degrees, so the graph's incidence lists
	// are sized once too.
	ids, outDeg, inDeg := sec.scanEdges(numEdges, nAttrs)
	h.Reserve(min(numEdges, sec.remaining()/minEdgeBytes), outDeg, inDeg)
	slab := make([]int, 0, min(ids, sec.remaining()))
	for i := 0; i < numEdges; i++ {
		a := len(slab)
		if slab, err = sec.appendIDs(slab, "tail"); err != nil {
			return nil, fmt.Errorf("core: snapshot edge %d: %w", i, err)
		}
		b := len(slab)
		if slab, err = sec.appendIDs(slab, "head"); err != nil {
			return nil, fmt.Errorf("core: snapshot edge %d: %w", i, err)
		}
		w, err := sec.float64()
		if err != nil {
			return nil, fmt.Errorf("core: snapshot edge %d: %w", i, err)
		}
		tail, head := slab[a:b:b], slab[b:len(slab):len(slab)]
		if err := addDecodedEdge(h, tail, head, w); err != nil {
			return nil, fmt.Errorf("core: snapshot edge %d: %w", i, err)
		}
	}

	// ACVs.
	sec, err = sr.section("acv")
	if err != nil {
		return nil, err
	}
	numACV, err := sec.count("acv")
	if err != nil {
		return nil, err
	}
	if numACV != nAttrs*nAttrs {
		return nil, fmt.Errorf("core: snapshot: edgeACV has %d entries, want %d", numACV, nAttrs*nAttrs)
	}
	acv := make([]float64, numACV)
	for i := range acv {
		if acv[i], err = sec.float64(); err != nil {
			return nil, err
		}
	}

	// Rows.
	var tb *table.Table
	if hasRows {
		sec, err = sr.section("rows")
		if err != nil {
			return nil, err
		}
		numRows, err := sec.uvarint()
		if err != nil {
			return nil, err
		}
		if need := uint64(nAttrs) * numRows; need != uint64(sec.remaining()) {
			return nil, fmt.Errorf("core: snapshot: rows section has %d cell bytes, want %d", sec.remaining(), need)
		}
		cols := make([][]byte, nAttrs)
		for j := range cols {
			if cols[j], err = sec.bytes(int(numRows), "row cells"); err != nil {
				return nil, err
			}
		}
		if tb, err = table.FromRawColumns(attrs, int(k64), cols); err != nil {
			return nil, fmt.Errorf("core: snapshot: %w", err)
		}
	} else {
		if tb, err = table.New(attrs, int(k64)); err != nil {
			return nil, fmt.Errorf("core: snapshot: %w", err)
		}
	}
	return &Model{Table: tb, Config: cfg, H: h, EdgeACV: acv, RowsOmitted: !hasRows}, nil
}

// minEdgeBytes is the smallest encoding of one edge: a tail count and
// one id, a head count and one id, and the 8-byte weight.
const minEdgeBytes = 12

// scanEdges returns how many vertex ids the next numEdges edges hold,
// and for each of the nv vertices how many tails and heads list it,
// without consuming the edges. It stops at the first framing error and
// leaves reporting it to the decoding pass; out-of-range ids are left
// for validation to reject.
func (r snapReader) scanEdges(numEdges, nv int) (ids int, outDeg, inDeg []int) {
	deg := make([]int, 2*nv)
	outDeg, inDeg = deg[:nv], deg[nv:]
	for i := 0; i < numEdges; i++ {
		for _, d := range [2][]int{outDeg, inDeg} {
			n, err := r.count("id")
			if err != nil {
				return ids, outDeg, inDeg
			}
			for range n {
				v, err := r.uvarint()
				if err != nil {
					return ids, outDeg, inDeg
				}
				if v < uint64(nv) {
					d[v]++
				}
			}
			ids += n
		}
		if _, err := r.float64(); err != nil {
			return ids, outDeg, inDeg
		}
	}
	return ids, outDeg, inDeg
}

// appendIDs decodes a count-prefixed vertex id list onto buf.
func (r *snapReader) appendIDs(buf []int, what string) ([]int, error) {
	n, err := r.count(what)
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		v, err := r.uvarint()
		if err != nil {
			return nil, fmt.Errorf("%s id: %w", what, err)
		}
		buf = append(buf, int(v))
	}
	return buf, nil
}

// addDecodedEdge stores a decoded edge without copying its id slices.
// WriteSnapshot emits canonical (sorted) sets, so every edge it wrote
// takes that path. An unsorted set goes through AddEdge, which
// validates it in file order and stores sorted copies, so such input
// is accepted or rejected exactly as before, with the same error text.
func addDecodedEdge(h *hypergraph.H, tail, head []int, w float64) error {
	if !sort.IntsAreSorted(tail) || !sort.IntsAreSorted(head) {
		return h.AddEdge(tail, head, w)
	}
	return h.AddEdgeShared(tail, head, w)
}
