package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"math"
	"math/bits"
	"sort"

	"hypermine/internal/hypergraph"
	"hypermine/internal/schema"
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
// Encoding streams: one description of the format (encodeSnapshot)
// runs twice, first counting every section's length (SnapshotSize
// exposes the total, and WriteSnapshot passes it to a writer's Grow,
// for a pre-sized buffer or a Content-Length), then
// writing each length prefix before its payload and sending the bytes
// through one buffer of at most 32 KB with a running checksum, so no
// section is built in memory. Decoding
// reads the input once, into one buffer of the input's size when that
// is known (ReadSnapshot asks a *bytes.Reader, a *bytes.Buffer or a
// regular file; HTTP handlers read a body at its Content-Length and
// call DecodeSnapshot), then decodes in place: one string for the
// attribute names, one id slab for every edge, one slab for the
// table's columns, and a hypergraph sized exactly before its first
// edge. The decoded model does not keep the input buffer.
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

// snapEncoder emits a snapshot. encodeSnapshot drives it twice over
// the same code: a sizing pass (w nil) that only counts bytes and
// records each section's payload length, then a writing pass that
// writes those lengths as the section prefixes and streams every byte
// to w through one buffer, folding each flushed byte into the running
// checksum. The first write error sticks; later writes are dropped.
type snapEncoder struct {
	w    io.Writer // nil: the sizing pass
	buf  []byte
	n    int // bytes emitted so far
	crc  uint32
	err  error
	secs [5]int // section payload lengths, recorded by the sizing pass
	nsec int    // sections recorded, or written by the writing pass
}

// snapWriteBuf bounds the encoder's one buffer.
const snapWriteBuf = 32 << 10

// maxPrimitive is the longest primitive (a uvarint) the encoder
// appends at once: it keeps that much room free in its buffer.
const maxPrimitive = binary.MaxVarintLen64

func (e *snapEncoder) flush() {
	if e.err == nil && len(e.buf) > 0 {
		e.crc = crc32.Update(e.crc, crc32.IEEETable, e.buf)
		_, e.err = e.w.Write(e.buf)
	}
	e.buf = e.buf[:0]
}

// room flushes the buffer unless it can take one more primitive.
func (e *snapEncoder) room() {
	if cap(e.buf)-len(e.buf) < maxPrimitive {
		e.flush()
	}
}

func (e *snapEncoder) uvarint(v uint64) {
	if e.w == nil {
		e.n += (bits.Len64(v|1) + 6) / 7
		return
	}
	e.room()
	n := len(e.buf)
	e.buf = binary.AppendUvarint(e.buf, v)
	e.n += len(e.buf) - n
}

func (e *snapEncoder) float64(f float64) {
	e.n += 8
	if e.w != nil {
		e.room()
		e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(f))
	}
}

func (e *snapEncoder) ids(ids []int) {
	e.uvarint(uint64(len(ids)))
	for _, v := range ids {
		e.uvarint(uint64(v))
	}
}

func (e *snapEncoder) string(v string) {
	e.n += len(v)
	for e.w != nil && len(v) > 0 {
		e.room()
		k := copy(e.buf[len(e.buf):cap(e.buf)], v)
		e.buf, v = e.buf[:len(e.buf)+k], v[k:]
	}
}

// cells emits a column's values one byte each.
func (e *snapEncoder) cells(col []table.Value) {
	e.n += len(col)
	for e.w != nil && len(col) > 0 {
		e.room()
		room := e.buf[len(e.buf):cap(e.buf)]
		k := min(len(room), len(col))
		for i, v := range col[:k] {
			room[i] = byte(v)
		}
		e.buf, col = e.buf[:len(e.buf)+k], col[k:]
	}
}

// section emits one length-prefixed section whose payload body emits.
func (e *snapEncoder) section(body func()) {
	if e.w == nil {
		start := e.n
		body()
		size := e.n - start
		e.secs[e.nsec] = size
		e.nsec++
		e.uvarint(uint64(size)) // counts the prefix
		return
	}
	e.uvarint(uint64(e.secs[e.nsec]))
	e.nsec++
	body()
}

// encodeSnapshot emits m, without the trailing checksum, in the
// format described at the top of this file.
func encodeSnapshot(e *snapEncoder, m *Model, hasRows bool) {
	tb := m.Table
	n := tb.NumAttrs()
	e.string(string(snapshotMagic[:]))
	e.uvarint(SnapshotVersion)
	var flags uint64
	if hasRows {
		flags |= snapshotFlagRows
	}
	e.uvarint(flags)

	// Schema section: k, then the attribute names.
	e.section(func() {
		e.uvarint(uint64(tb.K()))
		e.uvarint(uint64(n))
		for j := 0; j < n; j++ {
			a := tb.AttrName(j)
			e.uvarint(uint64(len(a)))
			e.string(a)
		}
	})

	// Config section.
	e.section(func() {
		cfg := m.Config
		e.uvarint(uint64(cfg.K))
		e.uvarint(uint64(cfg.MaxTailSize))
		e.uvarint(uint64(cfg.Candidates))
		e.uvarint(uint64(cfg.Parallelism))
		e.float64(cfg.GammaEdge)
		e.float64(cfg.GammaPair)
		e.float64(cfg.GammaTriple)
	})

	// Edges section.
	e.section(func() {
		edges := m.H.Edges()
		e.uvarint(uint64(len(edges)))
		for _, ed := range edges {
			e.ids(ed.Tail)
			e.ids(ed.Head)
			e.float64(ed.Weight)
		}
	})

	// ACV section.
	e.section(func() {
		e.uvarint(uint64(len(m.EdgeACV)))
		for _, v := range m.EdgeACV {
			e.float64(v)
		}
	})

	// Rows section: column-major raw bytes.
	if hasRows {
		e.section(func() {
			e.uvarint(uint64(tb.NumRows()))
			for j := 0; j < n; j++ {
				e.cells(tb.Column(j))
			}
		})
	}
}

// sizeSnapshot runs the sizing pass: it checks that m can be written
// and returns whether the rows section is written and the snapshot's
// total length, checksum included.
func sizeSnapshot(e *snapEncoder, m *Model, opt SaveOptions) (hasRows bool, size int, err error) {
	if m == nil || m.Table == nil || m.H == nil {
		return false, 0, fmt.Errorf("core: snapshot: nil model")
	}
	if n := m.Table.NumAttrs(); len(m.EdgeACV) != n*n {
		return false, 0, fmt.Errorf("core: snapshot: edgeACV has %d entries, want %d", len(m.EdgeACV), n*n)
	}
	hasRows = !opt.OmitRows && !m.RowsOmitted && m.Table.NumRows() > 0
	encodeSnapshot(e, m, hasRows)
	return hasRows, e.n + 4, nil
}

// SnapshotSize returns the exact number of bytes WriteSnapshot writes
// for m under opt, so a caller can size a buffer or a Content-Length
// up front. It fails exactly when WriteSnapshot would.
func SnapshotSize(m *Model, opt SaveOptions) (int, error) {
	_, size, err := sizeSnapshot(&snapEncoder{}, m, opt)
	return size, err
}

// WriteSnapshot serializes the model in the binary snapshot format.
// With opt.OmitRows (or when the model itself has no rows) the rows
// section is skipped and the snapshot is marked row-less. A sizing
// pass fixes every section's length first, so the sections stream to
// w through one buffer of at most 32 KB with a running checksum, and
// w receives exactly SnapshotSize(m, opt) bytes. A w with a Grow(int)
// method is told that size before the first write: a *bytes.Buffer
// grows to it, and an HTTP handler's writer can declare it as the
// Content-Length without a second sizing pass.
func WriteSnapshot(w io.Writer, m *Model, opt SaveOptions) error {
	var e snapEncoder
	hasRows, size, err := sizeSnapshot(&e, m, opt)
	if err != nil {
		return err
	}
	if g, ok := w.(interface{ Grow(int) }); ok {
		g.Grow(size) // a *bytes.Buffer takes the whole snapshot in one allocation
	}
	e.w, e.n, e.nsec = w, 0, 0
	e.buf = make([]byte, 0, max(min(size, snapWriteBuf), 2*maxPrimitive))
	encodeSnapshot(&e, m, hasRows)
	e.flush()
	if e.err != nil {
		return e.err
	}
	if e.n+4 != size {
		return fmt.Errorf("core: snapshot: wrote %d bytes, sized %d", e.n+4, size)
	}
	_, err = w.Write(binary.LittleEndian.AppendUint32(e.buf, e.crc))
	return err
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
func (r *snapReader) section(what string) (snapReader, error) {
	size, err := r.uvarint()
	if err != nil {
		return snapReader{}, fmt.Errorf("core: snapshot: %s section: %w", what, err)
	}
	if size > uint64(r.remaining()) {
		return snapReader{}, fmt.Errorf("core: snapshot: truncated %s section at offset %d", what, r.off)
	}
	payload := r.b[r.off : r.off+int(size)]
	r.off += int(size)
	return snapReader{b: payload}, nil
}

// ReadSnapshot loads a model written by WriteSnapshot: it reads r to
// the end in one buffer and decodes that with DecodeSnapshot. When r
// knows its length (a *bytes.Reader, a *bytes.Buffer, a regular
// *os.File) the buffer is allocated once at that size; a body of known
// length should be read at its length and handed to DecodeSnapshot.
func ReadSnapshot(r io.Reader) (*Model, error) {
	raw, err := readAllSized(r)
	if err != nil {
		return nil, fmt.Errorf("core: snapshot: %w", err)
	}
	return DecodeSnapshot(raw)
}

// readAllSized is io.ReadAll that starts at r's own length when r can
// tell it, with bytes.MinRead to spare for the read that reports
// io.EOF, so a reader of known length fills one buffer.
func readAllSized(r io.Reader) ([]byte, error) {
	size := 0
	switch s := r.(type) {
	case interface{ Len() int }:
		size = s.Len()
	case interface{ Stat() (fs.FileInfo, error) }:
		if fi, err := s.Stat(); err == nil && fi.Mode().IsRegular() && fi.Size() < math.MaxInt32 {
			size = int(fi.Size())
		}
	}
	var b bytes.Buffer
	b.Grow(size + bytes.MinRead)
	_, err := b.ReadFrom(r)
	return b.Bytes(), err
}

// DecodeSnapshot decodes a snapshot held in memory, verifying the
// checksum and re-validating the schema and every hyperedge. It is the
// one snapshot decoder. The schema is validated once, and the graph
// and the table share it. It does not retain raw: the attribute names
// share one string, the edges' vertex ids one slab, and the rows one
// column slab (table.FromRawColumnsOver), each sized exactly before it is
// filled. Snapshots saved with OmitRows come back with RowsOmitted set
// and an empty training table (see Model.RequireRows).
func DecodeSnapshot(raw []byte) (*Model, error) {
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
	sr := snapReader{b: body, off: 4}
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

	// Schema. The names are substrings of one string made from the
	// rest of the section (their length prefixes ride along).
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
	names, base := string(sec.b[sec.off:]), sec.off
	attrs := make([]string, nAttrs)
	for j := range attrs {
		nameLen, err := sec.count("attribute-name")
		if err != nil {
			return nil, err
		}
		if _, err := sec.bytes(nameLen, "attribute name"); err != nil {
			return nil, err
		}
		attrs[j] = names[sec.off-base-nameLen : sec.off-base]
	}
	schm, err := schema.New(attrs)
	if err != nil {
		return nil, fmt.Errorf("core: snapshot: %w", err)
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
	// A config Build would reject must not reach a re-mine: delta
	// derives every appended generation under this config.
	if err := cfg.withDefaults().check(int(k64)); err != nil {
		return nil, fmt.Errorf("core: snapshot: %w", err)
	}

	// Edges.
	sec, err = sr.section("edges")
	if err != nil {
		return nil, err
	}
	h := hypergraph.NewOver(schm)
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
	// and its key index are sized once too.
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
		if tb, err = table.FromRawColumnsOver(schm, int(k64), cols); err != nil {
			return nil, fmt.Errorf("core: snapshot: %w", err)
		}
	} else {
		if tb, err = table.NewOver(schm, int(k64)); err != nil {
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
// is accepted or rejected exactly as before.
func addDecodedEdge(h *hypergraph.H, tail, head []int, w float64) error {
	if !sort.IntsAreSorted(tail) || !sort.IntsAreSorted(head) {
		return h.AddEdge(tail, head, w)
	}
	return h.AddEdgeShared(tail, head, w)
}
