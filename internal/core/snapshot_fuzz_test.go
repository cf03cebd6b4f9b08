package core

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"runtime"
	"testing"
)

// FuzzReadSnapshot feeds ReadSnapshot arbitrary bytes. The seed corpus
// (testdata/fuzz/FuzzReadSnapshot plus the f.Add seeds below) is
// WriteSnapshot output, with and without the rows section. For every
// input the decoder must return an error rather than panic, and must
// allocate no more than a fixed multiple of the input length.
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

// decodeBounded decodes data, failing the test if the decode allocates
// more than a fixed multiple of the input length, and returns the
// accepted model's re-encoding.
func decodeBounded(t *testing.T, data []byte) ([]byte, bool) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m, err := ReadSnapshot(bytes.NewReader(data))
	runtime.ReadMemStats(&after)
	if limit := 512*uint64(len(data)) + 64<<10; after.TotalAlloc-before.TotalAlloc > limit {
		t.Fatalf("decoding %d bytes allocated %d bytes (limit %d)", len(data), after.TotalAlloc-before.TotalAlloc, limit)
	}
	if err != nil {
		return nil, false
	}
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, m, SaveOptions{}); err != nil {
		t.Fatalf("accepted model does not re-encode: %v", err)
	}
	return buf.Bytes(), true
}
