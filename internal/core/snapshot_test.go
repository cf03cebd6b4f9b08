package core

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"strings"
	"testing"
)

// modelsEquivalent deep-compares two models: schema, cells, config,
// edges in order, and the EdgeACV cache bit for bit.
func modelsEquivalent(t *testing.T, a, b *Model) {
	t.Helper()
	if a.Table.NumRows() != b.Table.NumRows() || a.Table.NumAttrs() != b.Table.NumAttrs() || a.Table.K() != b.Table.K() {
		t.Fatalf("table shape %dx%d k=%d vs %dx%d k=%d",
			a.Table.NumRows(), a.Table.NumAttrs(), a.Table.K(),
			b.Table.NumRows(), b.Table.NumAttrs(), b.Table.K())
	}
	for j, name := range a.Table.Attrs() {
		if b.Table.AttrName(j) != name {
			t.Fatalf("attr %d: %q vs %q", j, name, b.Table.AttrName(j))
		}
	}
	for i := 0; i < a.Table.NumRows(); i++ {
		for j := 0; j < a.Table.NumAttrs(); j++ {
			if a.Table.At(i, j) != b.Table.At(i, j) {
				t.Fatalf("cell (%d,%d): %d vs %d", i, j, a.Table.At(i, j), b.Table.At(i, j))
			}
		}
	}
	if a.Config != b.Config {
		t.Fatalf("config %+v vs %+v", a.Config, b.Config)
	}
	if a.RowsOmitted != b.RowsOmitted {
		t.Fatalf("rowsOmitted %v vs %v", a.RowsOmitted, b.RowsOmitted)
	}
	ea, eb := a.H.Edges(), b.H.Edges()
	if len(ea) != len(eb) {
		t.Fatalf("%d edges vs %d", len(ea), len(eb))
	}
	for i := range ea {
		if !intsEqual(ea[i].Tail, eb[i].Tail) || !intsEqual(ea[i].Head, eb[i].Head) || ea[i].Weight != eb[i].Weight {
			t.Fatalf("edge %d: %+v vs %+v", i, ea[i], eb[i])
		}
	}
	if len(a.EdgeACV) != len(b.EdgeACV) {
		t.Fatalf("EdgeACV %d vs %d", len(a.EdgeACV), len(b.EdgeACV))
	}
	for i := range a.EdgeACV {
		if a.EdgeACV[i] != b.EdgeACV[i] {
			t.Fatalf("EdgeACV[%d]: %v vs %v", i, a.EdgeACV[i], b.EdgeACV[i])
		}
	}
}

// checkSnapshotRoundTrip writes m as a snapshot and reads it back. The
// loaded model must equal m exactly, rebuild the same association table
// for every edge, and write back to the same bytes.
func checkSnapshotRoundTrip(t *testing.T, m *Model) {
	t.Helper()
	var first bytes.Buffer
	if err := WriteSnapshot(&first, m, SaveOptions{}); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSnapshot(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	modelsEquivalent(t, m, back)
	if err := back.H.Validate(); err != nil {
		t.Fatal(err)
	}

	// The loaded model is fully functional: association tables rebuilt
	// from the round-tripped training table agree with the originals.
	for _, e := range m.H.Edges() {
		atO, err := m.AssociationTableFor(e.Tail, e.Head[0])
		if err != nil {
			t.Fatal(err)
		}
		atB, err := back.AssociationTableFor(e.Tail, e.Head[0])
		if err != nil {
			t.Fatal(err)
		}
		if atO.ACV() != atB.ACV() {
			t.Fatalf("AT ACV for %v->%v changed: %v -> %v", e.Tail, e.Head, atO.ACV(), atB.ACV())
		}
	}

	// Writing the loaded model again is byte-stable.
	var again bytes.Buffer
	if err := WriteSnapshot(&again, back, SaveOptions{}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), again.Bytes()) {
		t.Error("snapshot round trip not byte-stable")
	}
}

// TestSnapshotRoundTrip: WriteSnapshot then ReadSnapshot must
// reproduce the model exactly, on randomized models including 3-to-1
// edges; the loaded model must rebuild the same association tables,
// and writing it again must be byte-stable.
func TestSnapshotRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"restricted", Config{GammaEdge: 1.02, GammaPair: 1.01, MaxTailSize: 2, Candidates: EdgeSeeded}},
		{"triples", Config{GammaEdge: 1.0, GammaPair: 1.0, GammaTriple: 1.0, MaxTailSize: 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(31))
			tb := randTable(t, rng, 6, 3, 180)
			m, err := Build(tb, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkSnapshotRoundTrip(t, m)
		})
	}
}

// TestSnapshotRoundTripRandomized sweeps the snapshot round trip over
// random table shapes (attributes, k, rows) and tail-size limits,
// complementing the fixed cases of TestSnapshotRoundTrip.
func TestSnapshotRoundTripRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 6; i++ {
		nAttrs, k, rows := 3+rng.Intn(4), 2+rng.Intn(3), 50+rng.Intn(200)
		tb := randTable(t, rng, nAttrs, k, rows)
		cfg := Config{GammaEdge: 1.0, GammaPair: 1.0, GammaTriple: 1.0, MaxTailSize: 1 + rng.Intn(3)}
		if rng.Intn(2) == 0 {
			cfg.Candidates = EdgeSeeded
		}
		m, err := Build(tb, cfg)
		if err != nil {
			t.Fatalf("case %d (%d attrs, k=%d, %d rows, %+v): %v", i, nAttrs, k, rows, cfg, err)
		}
		checkSnapshotRoundTrip(t, m)
	}
}

// TestSnapshotOmitRows: a row-less snapshot loads with RowsOmitted set,
// serves graph queries, and fails row-dependent operations with a
// clear error instead of panicking.
func TestSnapshotOmitRows(t *testing.T) {
	tb := patientDB(t)
	m, err := Build(tb, Config{GammaEdge: 1.0, GammaPair: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, m, SaveOptions{OmitRows: true}); err != nil {
		t.Fatal(err)
	}
	full := new(bytes.Buffer)
	if err := WriteSnapshot(full, m, SaveOptions{}); err != nil {
		t.Fatal(err)
	}
	if buf.Len() >= full.Len() {
		t.Errorf("row-less snapshot (%d bytes) not smaller than full (%d bytes)", buf.Len(), full.Len())
	}

	back, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !back.RowsOmitted {
		t.Fatal("RowsOmitted not set")
	}
	if back.Table.NumRows() != 0 {
		t.Fatalf("row-less snapshot has %d rows", back.Table.NumRows())
	}
	if back.H.NumEdges() != m.H.NumEdges() {
		t.Fatalf("%d edges vs %d", back.H.NumEdges(), m.H.NumEdges())
	}
	// Graph queries still work.
	if got, want := back.H.WeightedInDegree(0), m.H.WeightedInDegree(0); got != want {
		t.Fatalf("in-degree %v vs %v", got, want)
	}
	// Row-dependent operations fail clearly.
	if _, err := back.AssociationTableFor([]int{0}, 1); err == nil || !strings.Contains(err.Error(), "without training rows") {
		t.Fatalf("AssociationTableFor error = %v, want rows-omitted error", err)
	}
	if _, err := MineRules(back, 1, MineOptions{}); err == nil || !strings.Contains(err.Error(), "without training rows") {
		t.Fatalf("MineRules error = %v, want rows-omitted error", err)
	}

	// Saving a RowsOmitted model never resurrects rows, even without
	// the option.
	var resave bytes.Buffer
	if err := WriteSnapshot(&resave, back, SaveOptions{}); err != nil {
		t.Fatal(err)
	}
	back2, err := ReadSnapshot(&resave)
	if err != nil {
		t.Fatal(err)
	}
	if !back2.RowsOmitted || back2.Table.NumRows() != 0 {
		t.Fatal("re-saved row-less model grew rows back")
	}
}

// TestReadSnapshotRejectsCorruptInputs: framing, checksum, and
// validation failures all surface as errors, never panics.
func TestReadSnapshotRejectsCorruptInputs(t *testing.T) {
	tb := interestDB(t)
	m, err := Build(tb, Config{GammaEdge: 1.0, GammaPair: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, m, SaveOptions{}); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	t.Run("empty", func(t *testing.T) {
		if _, err := ReadSnapshot(bytes.NewReader(nil)); err == nil {
			t.Fatal("accepted")
		}
	})
	t.Run("bad-magic", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[0] = 'X'
		if _, err := ReadSnapshot(bytes.NewReader(bad)); err == nil {
			t.Fatal("accepted")
		}
	})
	t.Run("bit-flip-fails-checksum", func(t *testing.T) {
		for _, off := range []int{5, len(good) / 2, len(good) - 5} {
			bad := append([]byte(nil), good...)
			bad[off] ^= 0x40
			if _, err := ReadSnapshot(bytes.NewReader(bad)); err == nil {
				t.Fatalf("bit flip at %d accepted", off)
			}
		}
	})
	t.Run("truncated", func(t *testing.T) {
		for _, n := range []int{3, 8, len(good) / 3, len(good) - 1} {
			if _, err := ReadSnapshot(bytes.NewReader(good[:n])); err == nil {
				t.Fatalf("truncation to %d bytes accepted", n)
			}
		}
	})
	t.Run("bad-version", func(t *testing.T) {
		// Rebuild with a bumped version byte and a fixed checksum, so
		// only the version check can reject it.
		bad := append([]byte(nil), good[:len(good)-4]...)
		bad[4] = 99 // version uvarint (single byte for small versions)
		sum := crc32.ChecksumIEEE(bad)
		bad = append(bad, byte(sum), byte(sum>>8), byte(sum>>16), byte(sum>>24))
		if _, err := ReadSnapshot(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "version") {
			t.Fatalf("error = %v, want version complaint", err)
		}
	})
}

// TestReadSnapshotSortsUnsortedSets: the decoder stores WriteSnapshot's
// sorted sets without copying them, and still accepts a snapshot whose
// tail lists a set out of order, storing it canonically.
func TestReadSnapshotSortsUnsortedSets(t *testing.T) {
	m, err := Build(interestDB(t), Config{GammaEdge: 1.0, GammaPair: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, m, SaveOptions{}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	body := raw[:len(raw)-4]

	// Walk to the edges section and swap the ids of the first
	// two-attribute tail (ids this small are one-byte uvarints).
	sr := &snapReader{b: body, off: 4}
	for range 2 { // version, flags
		if _, err := sr.uvarint(); err != nil {
			t.Fatal(err)
		}
	}
	for _, what := range []string{"schema", "config"} {
		if _, err := sr.section(what); err != nil {
			t.Fatal(err)
		}
	}
	sec, err := sr.section("edges")
	if err != nil {
		t.Fatal(err)
	}
	numEdges, err := sec.count("edge")
	if err != nil {
		t.Fatal(err)
	}
	swapped := -1
	for i := 0; i < numEdges && swapped < 0; i++ {
		if len(m.H.Edge(i).Tail) == 2 {
			if _, err := sec.uvarint(); err != nil {
				t.Fatal(err)
			}
			sec.b[sec.off], sec.b[sec.off+1] = sec.b[sec.off+1], sec.b[sec.off]
			swapped = i
			break
		}
		if _, err := sec.appendIDs(nil, "tail"); err != nil {
			t.Fatal(err)
		}
		if _, err := sec.appendIDs(nil, "head"); err != nil {
			t.Fatal(err)
		}
		if _, err := sec.float64(); err != nil {
			t.Fatal(err)
		}
	}
	if swapped < 0 {
		t.Fatal("fixture has no two-attribute tail")
	}
	binary.LittleEndian.PutUint32(raw[len(raw)-4:], crc32.ChecksumIEEE(body))

	back, err := ReadSnapshot(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("unsorted tail of edge %d rejected: %v", swapped, err)
	}
	modelsEquivalent(t, m, back)
	if err := back.H.Validate(); err != nil {
		t.Fatal(err)
	}
}
