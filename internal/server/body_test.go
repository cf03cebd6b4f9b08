package server

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"

	"hypermine/internal/core"
	"hypermine/internal/registry"
)

// unreadable fails the test if anything reads it: a body that must be
// refused on its declared length alone.
type unreadable struct{ t *testing.T }

func (u unreadable) Read([]byte) (int, error) {
	u.t.Error("body read although its declared length is over the bound")
	return 0, io.EOF
}

// TestReadBody pins ReadBody's contract: a declared length is read at
// exactly that size, an undeclared one as it arrives, and either over
// the bound is a *http.MaxBytesError — a declared one before any read.
func TestReadBody(t *testing.T) {
	const limit = 64
	body := strings.Repeat("x", limit)
	hide := func(s string) io.Reader { return struct{ io.Reader }{strings.NewReader(s)} }
	for _, tc := range []struct {
		name     string
		r        io.Reader
		declared int64
		want     string
		tooLarge bool
	}{
		{name: "declared at bound", r: strings.NewReader(body), declared: limit, want: body},
		{name: "declared empty", r: strings.NewReader(""), declared: 0, want: ""},
		{name: "undeclared at bound", r: hide(body), declared: -1, want: body},
		{name: "undeclared over bound", r: hide(body + "y"), declared: -1, tooLarge: true},
		{name: "declared over bound", r: unreadable{t}, declared: limit + 1, tooLarge: true},
	} {
		got, err := ReadBody(tc.r, tc.declared, limit)
		var mbe *http.MaxBytesError
		switch {
		case tc.tooLarge:
			if !errors.As(err, &mbe) || mbe.Limit != limit {
				t.Errorf("%s: error %v, want a MaxBytesError at %d", tc.name, err, limit)
			}
		case err != nil || string(got) != tc.want:
			t.Errorf("%s: %q, %v; want %q", tc.name, got, err, tc.want)
		case tc.declared >= 0 && cap(got) != len(got):
			t.Errorf("%s: buffer cap %d for a %d-byte body", tc.name, cap(got), len(got))
		}
	}
	if _, err := ReadBody(strings.NewReader("short"), 10, limit); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("body shorter than declared: error %v, want io.ErrUnexpectedEOF", err)
	}
}

// TestReadBodyGrowsWithArrivalsBar: memory for a declared body follows
// the bytes that arrive. A body declared at 64 MiB (the router's
// default bound) of which a few bytes come allocates at most the first
// chunk, and one that ends exactly at
// a chunk boundary is still short; a body over several chunks is read
// whole into a buffer of exactly its size.
func TestReadBodyGrowsWithArrivalsBar(t *testing.T) {
	const huge = 1 << 30
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadBody(strings.NewReader("a few bytes"), 64<<20, huge)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("stalled body: error %v, want io.ErrUnexpectedEOF", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > firstBodyChunk+64<<10 {
		t.Errorf("a 64 MiB declared body that sent 11 bytes allocated %d bytes, want <= %d + 64 KiB", got, firstBodyChunk)
	}

	chunk := bytes.Repeat([]byte{'x'}, firstBodyChunk)
	if _, err := ReadBody(bytes.NewReader(chunk), 2*firstBodyChunk, huge); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("body ending at a chunk boundary: error %v, want io.ErrUnexpectedEOF", err)
	}

	body := bytes.Repeat([]byte("0123456789"), (3*firstBodyChunk+7)/10)
	got, err := ReadBody(iotest.HalfReader(bytes.NewReader(body)), int64(len(body)), huge)
	if err != nil || !bytes.Equal(got, body) {
		t.Fatalf("multi-chunk body: %d bytes, %v; want %d bytes", len(got), err, len(body))
	}
	if cap(got) != len(got) {
		t.Errorf("multi-chunk body: buffer cap %d for %d bytes", cap(got), len(got))
	}
}

// TestPutSnapshotBodyLengths: a snapshot PUT loads whether the client
// declares its length or streams it chunked, and a declared length
// over the snapshot bound is refused with a 400 before the body is
// read.
func TestPutSnapshotBodyLengths(t *testing.T) {
	ts, _, m := serving(t)
	var buf bytes.Buffer
	if err := core.WriteSnapshot(&buf, m, core.SaveOptions{}); err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string]io.Reader{
		"declared": bytes.NewReader(buf.Bytes()),
		"chunked":  struct{ io.Reader }{bytes.NewReader(buf.Bytes())},
	} {
		req, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/models/"+name, body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s PUT: code %d", name, resp.StatusCode)
		}
	}

	h := New(registry.New(registry.Options{})).Handler()
	req := httptest.NewRequest(http.MethodPut, "/v1/models/huge", io.NopCloser(unreadable{t}))
	req.ContentLength = maxSnapshotBytes + 1
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "too large") {
		t.Errorf("PUT declaring %d bytes: code %d %q, want 400 too large", req.ContentLength, rec.Code, rec.Body)
	}
}
