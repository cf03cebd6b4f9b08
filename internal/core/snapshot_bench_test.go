package core

import (
	"bytes"
	"testing"
)

// benchModel builds the model-load benchmark fixture: a serving-sized
// model whose persisted bulk is dominated by the training table, the
// case the binary rows section is designed for.
func benchModel(b *testing.B) *Model {
	b.Helper()
	tb := benchTable(b, 30, 3, 20000)
	m, err := Build(tb, Config{GammaEdge: 1.0, GammaPair: 1.0, Candidates: EdgeSeeded})
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkReadSnapshot measures cold model load — the serving
// restart / hot-reload critical path.
func BenchmarkReadSnapshot(b *testing.B) {
	m := benchModel(b)
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, m, SaveOptions{}); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadSnapshot(bytes.NewReader(raw)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWriteSnapshot(b *testing.B) {
	m := benchModel(b)
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := WriteSnapshot(&buf, m, SaveOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
