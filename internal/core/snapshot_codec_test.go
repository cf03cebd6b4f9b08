package core

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
	"testing/iotest"
)

// snapshotReaders wraps a snapshot's bytes the ways a decoder meets
// them: whole with a known length, one byte per Read, half of each
// Read, the last bytes together with io.EOF, and a plain reader that
// hides its length.
var snapshotReaders = map[string]func([]byte) io.Reader{
	"one-byte":   func(b []byte) io.Reader { return iotest.OneByteReader(bytes.NewReader(b)) },
	"half":       func(b []byte) io.Reader { return iotest.HalfReader(bytes.NewReader(b)) },
	"data-err":   func(b []byte) io.Reader { return iotest.DataErrReader(bytes.NewReader(b)) },
	"len-hidden": func(b []byte) io.Reader { return struct{ io.Reader }{bytes.NewReader(b)} },
	"buffer":     func(b []byte) io.Reader { return bytes.NewBuffer(append([]byte(nil), b...)) },
}

// sameDecode fails unless decoding through r gives what decoding the
// bytes from a *bytes.Reader gives: an equal model, or the same error.
func sameDecode(t *testing.T, name string, raw []byte, r io.Reader) {
	t.Helper()
	want, wantErr := ReadSnapshot(bytes.NewReader(raw))
	got, err := ReadSnapshot(r)
	switch {
	case wantErr != nil || err != nil:
		if wantErr == nil || err == nil || err.Error() != wantErr.Error() {
			t.Fatalf("%s, %d bytes: error %v, bytes.Reader gives %v", name, len(raw), err, wantErr)
		}
	default:
		modelsEquivalent(t, want, got)
	}
}

func smallSnapshots(t *testing.T) map[string][]byte {
	t.Helper()
	m, err := Build(interestDB(t), Config{GammaEdge: 1.0, GammaPair: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for name, opt := range map[string]SaveOptions{"rows": {}, "omit-rows": {OmitRows: true}} {
		var buf bytes.Buffer
		if err := WriteSnapshot(&buf, m, opt); err != nil {
			t.Fatal(err)
		}
		size, err := SnapshotSize(m, opt)
		if err != nil || size != buf.Len() {
			t.Fatalf("%s: SnapshotSize = %d, %v; wrote %d", name, size, err, buf.Len())
		}
		out[name] = buf.Bytes()
	}
	return out
}

// TestReadSnapshotReaders: the decoder reads its input once, whatever
// the reader's Read sizes and however it reports the end, and every
// reader gives the model a *bytes.Reader gives.
func TestReadSnapshotReaders(t *testing.T) {
	for snap, raw := range smallSnapshots(t) {
		for name, wrap := range snapshotReaders {
			sameDecode(t, snap+"/"+name, raw, wrap(raw))
		}
	}
}

// TestReadSnapshotTruncations: every proper prefix of a snapshot is
// rejected, with the same error through every reader.
func TestReadSnapshotTruncations(t *testing.T) {
	for snap, raw := range smallSnapshots(t) {
		for n := 0; n < len(raw); n++ {
			if _, err := ReadSnapshot(bytes.NewReader(raw[:n])); err == nil {
				t.Fatalf("%s: prefix of %d bytes accepted", snap, n)
			}
			for name, wrap := range snapshotReaders {
				sameDecode(t, snap+"/"+name, raw[:n], wrap(raw[:n]))
			}
		}
	}
}

// TestReadSnapshotChecksumAndTrailingBytes: a corrupted body reports
// a checksum mismatch, and bytes after the checksum are rejected.
func TestReadSnapshotChecksumAndTrailingBytes(t *testing.T) {
	raw := smallSnapshots(t)["rows"]
	for _, off := range []int{4, len(raw) / 2, len(raw) - 5} {
		bad := append([]byte(nil), raw...)
		bad[off] ^= 0x01
		if _, err := ReadSnapshot(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
			t.Fatalf("flip at %d: error %v, want a checksum mismatch", off, err)
		}
	}
	for _, extra := range [][]byte{{0}, {1, 2, 3, 4}, raw[len(raw)-4:]} {
		long := append(append([]byte(nil), raw...), extra...)
		if _, err := ReadSnapshot(bytes.NewReader(long)); err == nil {
			t.Fatalf("%d bytes after the checksum accepted", len(extra))
		}
	}
}

// failAfter is a writer that fails once it has taken n bytes.
type failAfter struct{ n int }

var errWriterFull = errors.New("writer full")

func (w *failAfter) Write(p []byte) (int, error) {
	if len(p) > w.n {
		k := w.n
		w.n = 0
		return k, errWriterFull
	}
	w.n -= len(p)
	return len(p), nil
}

// TestWriteSnapshotReportsWriteErrors: a writer that fails at any
// point, in a section or at the checksum, fails the encode.
func TestWriteSnapshotReportsWriteErrors(t *testing.T) {
	m := benchSizedModel(t)
	size, err := SnapshotSize(m, SaveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 1, snapWriteBuf - 1, snapWriteBuf + 1, size - 4, size - 1} {
		if err := WriteSnapshot(&failAfter{n: n}, m, SaveOptions{}); !errors.Is(err, errWriterFull) {
			t.Fatalf("writer failing after %d of %d bytes: error %v", n, size, err)
		}
	}
	if err := WriteSnapshot(&failAfter{n: size}, m, SaveOptions{}); err != nil {
		t.Fatalf("writer taking all %d bytes: %v", size, err)
	}
}

// benchSizedModel is a model whose snapshot spans several encoder
// buffers.
func benchSizedModel(t *testing.T) *Model {
	t.Helper()
	m, err := Build(benchTable(t, 12, 3, 8000), Config{GammaEdge: 1.0, GammaPair: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if size, _ := SnapshotSize(m, SaveOptions{}); size < 2*snapWriteBuf {
		t.Fatalf("fixture snapshot is %d bytes, want several buffers", size)
	}
	return m
}
