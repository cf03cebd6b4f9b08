package core_test

import (
	"bytes"
	"runtime"
	"testing"

	"hypermine/internal/benchfix"
	"hypermine/internal/core"
	"hypermine/internal/testutil"
)

// decodeSlack covers what a decode allocates and does not keep beside
// its input buffer: the reader, the per-vertex degree counts, the
// column headers, and the page rounding of the input buffer.
const decodeSlack = 16 << 10

// TestReadSnapshotAllocsBelowEdgeCount bars the codec's allocations
// on the 30x20000 serving fixture (~13000 edges, ~776 KB): a decode
// makes at most 25 allocations, per model and never per edge (the
// graph and the table share one schema), and
// allocates no more bytes than its input buffer plus the model it
// returns; an encode into a buffer pre-sized by SnapshotSize makes at
// most 2 and writes exactly SnapshotSize bytes, and one into an empty
// bytes.Buffer grows it once, to that size.
func TestReadSnapshotAllocsBelowEdgeCount(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("alloc counts unreliable under the race detector")
	}
	m := benchfix.ModelWorkload(30, 20000)
	size, err := core.SnapshotSize(m, core.SaveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	buf := bytes.NewBuffer(make([]byte, 0, size))
	encAllocs := testing.AllocsPerRun(5, func() {
		buf.Reset()
		if err := core.WriteSnapshot(buf, m, core.SaveOptions{}); err != nil {
			t.Fatal(err)
		}
	})
	raw := buf.Bytes()
	if len(raw) != size {
		t.Fatalf("wrote %d bytes, SnapshotSize %d", len(raw), size)
	}
	var fresh bytes.Buffer
	if err := core.WriteSnapshot(&fresh, m, core.SaveOptions{}); err != nil {
		t.Fatal(err)
	}
	if fresh.Cap() > size+size/64 {
		t.Errorf("an empty bytes.Buffer grew to %d bytes for a %d-byte snapshot", fresh.Cap(), size)
	}
	decAllocs := testing.AllocsPerRun(5, func() {
		if _, err := core.ReadSnapshot(bytes.NewReader(raw)); err != nil {
			t.Fatal(err)
		}
	})

	var before, decoded, after runtime.MemStats
	// Two collections each side, so the heap is measured settled.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	back, err := core.ReadSnapshot(bytes.NewReader(raw))
	runtime.ReadMemStats(&decoded)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	kept := after.HeapAlloc - before.HeapAlloc
	runtime.KeepAlive(back)
	runtime.KeepAlive(m)
	runtime.KeepAlive(raw)
	allocated := decoded.TotalAlloc - before.TotalAlloc

	edges := m.H.NumEdges()
	t.Logf("%d edges, %d-byte snapshot: encode %v allocations; decode %v allocations, %d bytes allocated, %d kept by the model",
		edges, len(raw), encAllocs, decAllocs, allocated, kept)
	if edges < 10000 {
		t.Fatalf("fixture holds only %d edges; the bar needs the serving model", edges)
	}
	if encAllocs > 2 {
		t.Errorf("WriteSnapshot into a SnapshotSize buffer costs %v allocations, want <= 2", encAllocs)
	}
	if decAllocs > 25 {
		t.Errorf("ReadSnapshot costs %v allocations for %d edges, want <= 25", decAllocs, edges)
	}
	if limit := uint64(len(raw)) + kept + decodeSlack; allocated > limit {
		t.Errorf("ReadSnapshot allocated %d bytes, want <= input %d + model %d + %d", allocated, len(raw), kept, decodeSlack)
	}
}
