package core_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"

	"hypermine/internal/benchfix"
	"hypermine/internal/core"
	"hypermine/internal/table"
)

// pinFixtures are the two models whose snapshot bytes are pinned: the
// shared serving workload (directed and 2-to-1 edges), and a smaller
// table mined with MaxTailSize 3, so 3-to-1 edges are encoded too.
func pinFixtures(t testing.TB) map[string]*core.Model {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	attrs := make([]string, 8)
	for j := range attrs {
		attrs[j] = benchfix.AttrName(j)
	}
	tb, err := table.New(attrs, 3)
	if err != nil {
		t.Fatal(err)
	}
	row := make([]table.Value, len(attrs))
	for i := 0; i < 300; i++ {
		benchfix.CorrelatedRow(rng, row, 3)
		if err := tb.AppendRow(row); err != nil {
			t.Fatal(err)
		}
	}
	triples, err := core.Build(tb, core.Config{GammaEdge: 1.0, GammaPair: 1.0, GammaTriple: 1.0, MaxTailSize: 3})
	if err != nil {
		t.Fatal(err)
	}
	if triples.H.EdgeStats().Other == 0 {
		t.Fatal("the triples fixture mined no 3-to-1 edge")
	}
	return map[string]*core.Model{
		"serving": benchfix.ModelWorkload(16, 800),
		"triples": triples,
	}
}

// TestSnapshotBytesPinned pins the snapshot format: the SHA-256 of
// WriteSnapshot's output for two fixed models, with and without the
// rows section. A change to how the encoder writes (sizing, buffering,
// streaming) must leave every byte where it was; a deliberate format
// change must bump SnapshotVersion and re-record these.
func TestSnapshotBytesPinned(t *testing.T) {
	want := map[string]string{
		"serving/rows":    "fda641aa4abfeae9df03f52d928b512aba41c3a22f366fffc7c5bb2e85c7931a",
		"serving/omitted": "e484b199f012d278639c9c8bb7a01b3047eea43a42f2dff80913b7149db147ae",
		"triples/rows":    "519d9e0a2b5f8e6a15e9ad520f492d7dd5af3b9f46b34151b67a6dae4fbc9b73",
		"triples/omitted": "b604ef3a02f6de5e6d1389818d6fded245babbc09f77b9a1c9a9d9753da2e77f",
	}
	for name, m := range pinFixtures(t) {
		for _, opt := range []core.SaveOptions{{}, {OmitRows: true}} {
			key := name + "/rows"
			if opt.OmitRows {
				key = name + "/omitted"
			}
			var buf bytes.Buffer
			if err := core.WriteSnapshot(&buf, m, opt); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(buf.Bytes())
			if got := hex.EncodeToString(sum[:]); got != want[key] {
				t.Errorf("%s: %d bytes, sha256 %s, want %s", key, buf.Len(), got, want[key])
			}
		}
	}
}
