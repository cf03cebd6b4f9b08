package core

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"runtime"
	"testing"
	"testing/iotest"
)

// FuzzReadSnapshot feeds ReadSnapshot arbitrary bytes. The seed corpus
// (testdata/fuzz/FuzzReadSnapshot plus the f.Add seeds below) is
// WriteSnapshot output, with and without the rows section. For every
// input the decoder must return an error rather than panic and must
// allocate no more than a fixed multiple of the input length; an
// accepted input must decode to the same model when read one byte at
// a time. (Rejected inputs are not re-read that way: both reads reach
// the same in-memory decoder, and TestReadSnapshotReaders and
// TestReadSnapshotTruncations cover one-byte reads of every prefix.)
//
// Each input is tried twice: as given, and with its trailing checksum
// recomputed, so mutations reach the section parsers instead of
// stopping at the CRC. An accepted input as given must re-encode to
// exactly its own bytes. The checksum-sealed variant may be a valid
// but non-canonical encoding (an unsorted tail, an overlong varint),
// so its re-encoding must instead be canonical: decoding and encoding
// it again reproduces it byte for byte.
func FuzzReadSnapshot(f *testing.F) {
	m, err := Build(interestDB(f), Config{GammaEdge: 1.0, GammaPair: 1.0})
	if err != nil {
		f.Fatal(err)
	}
	for _, opt := range []SaveOptions{{}, {OmitRows: true}} {
		var buf bytes.Buffer
		if err := WriteSnapshot(&buf, m, opt); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if out, ok := decodeBounded(t, data); ok && !bytes.Equal(out, data) {
			t.Fatalf("accepted input re-encodes to different bytes:\n in  %x\n out %x", data, out)
		}
		if len(data) < 4 {
			return
		}
		sealed := append([]byte(nil), data[:len(data)-4]...)
		sealed = binary.LittleEndian.AppendUint32(sealed, crc32.ChecksumIEEE(sealed))
		out, ok := decodeBounded(t, sealed)
		if !ok {
			return
		}
		again, ok := decodeBounded(t, out)
		if !ok {
			t.Fatalf("re-encoding of an accepted input is rejected: %x", out)
		}
		if !bytes.Equal(again, out) {
			t.Fatalf("re-encoding is not canonical:\n first  %x\n second %x", out, again)
		}
	})
}

// decodeBounded decodes data, failing the test if the decode
// allocates more than a fixed multiple of the input length, and
// returns the accepted model's re-encoding, after checking that one-
// byte reads of data decode a model with the same encoding.
func decodeBounded(t *testing.T, data []byte) ([]byte, bool) {
	t.Helper()
	m, err := boundedRead(t, bytes.NewReader(data), len(data))
	if err != nil {
		return nil, false
	}
	var buf, buf1 bytes.Buffer
	if err := WriteSnapshot(&buf, m, SaveOptions{}); err != nil {
		t.Fatalf("accepted model does not re-encode: %v", err)
	}
	m1, err := ReadSnapshot(iotest.OneByteReader(bytes.NewReader(data)))
	if err != nil {
		t.Fatalf("one-byte reads reject an accepted input: %v", err)
	}
	if err := WriteSnapshot(&buf1, m1, SaveOptions{}); err != nil || !bytes.Equal(buf.Bytes(), buf1.Bytes()) {
		t.Fatalf("one-byte reads decode a different model (%v)", err)
	}
	return buf.Bytes(), true
}

// boundedRead is ReadSnapshot(r), failing the test if it allocates
// more than a fixed multiple of the n input bytes.
func boundedRead(t *testing.T, r io.Reader, n int) (*Model, error) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m, err := ReadSnapshot(r)
	runtime.ReadMemStats(&after)
	if limit := 512*uint64(n) + 64<<10; after.TotalAlloc-before.TotalAlloc > limit {
		t.Fatalf("decoding %d bytes allocated %d bytes (limit %d)", n, after.TotalAlloc-before.TotalAlloc, limit)
	}
	return m, err
}
