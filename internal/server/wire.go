// The server's wire plumbing: request bodies in and JSON answers out
// through pooled buffers, and the headers every model-scoped answer
// carries. Decoding and encoding stay stdlib encoding/json; the pools
// only remove the per-request allocations around it.
package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"

	"hypermine/internal/engine"
	"hypermine/internal/registry"
	"hypermine/internal/telemetry"
)

// maxPooledBytes bounds what the pools keep: a rare large body or
// answer is left to the garbage collector instead of pinning its
// buffer in a pool.
const maxPooledBytes = 64 << 10

// jsonContentType is the one Content-Type value every JSON answer
// shares, so setting it allocates nothing.
var jsonContentType = []string{"application/json"}

// wirePools are a server's pooled request and response state.
type wirePools struct {
	bodies     sync.Pool // *bytes.Buffer: request bodies
	encoders   sync.Pool // *encoder: JSON answers
	classifies sync.Pool // *classifyBody
	appends    sync.Pool // *appendRequest
}

func (p *wirePools) init() {
	p.bodies.New = func() any { return new(bytes.Buffer) }
	p.encoders.New = func() any {
		e := new(encoder)
		e.enc = json.NewEncoder(&e.buf)
		return e
	}
	p.classifies.New = func() any { return &classifyBody{values: map[string]int{}} }
	p.appends.New = func() any { return new(appendRequest) }
}

// encoder is a pooled response buffer with its encoder bound to it.
type encoder struct {
	buf bytes.Buffer
	enc *json.Encoder
}

// writeJSON encodes v as the response body with status code. A warm
// call allocates nothing: the buffer and encoder are pooled, and
// nothing is written if v does not encode.
//
//hyper:noalloc
func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	e := s.pools.encoders.Get().(*encoder)
	e.buf.Reset()
	err := e.enc.Encode(v)
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(code)
	if err == nil {
		_, _ = w.Write(e.buf.Bytes())
	}
	if e.buf.Cap() <= maxPooledBytes {
		s.pools.encoders.Put(e)
	}
}

// readJSON decodes exactly one JSON value from r's body, capped at
// limit, into v. Anything but whitespace after the value is an error:
// a client that sent two values must not be told the second one
// landed. strict bodies (:query, :append) reject unknown fields and
// stream through the decoder, so a large :append is held once; the
// small classify bodies are read into a pooled buffer for
// json.Unmarshal, which allocates no decoder. It returns the bytes the
// body's value took, so a pooled v can tell a request too large to
// keep. The caller writes the error response.
func (s *Server) readJSON(w http.ResponseWriter, r *http.Request, limit int64, v any, strict bool) (int, error) {
	body := http.MaxBytesReader(w, r.Body, limit)
	if strict {
		dec := json.NewDecoder(body)
		dec.DisallowUnknownFields()
		err := dec.Decode(v)
		n := int(dec.InputOffset())
		if err != nil {
			return n, err
		}
		switch _, err := dec.Token(); err {
		case io.EOF:
			return n, nil
		case nil:
			return n, fmt.Errorf("invalid data after the JSON value at offset %d", n)
		default:
			return n, err
		}
	}
	buf := s.pools.bodies.Get().(*bytes.Buffer)
	buf.Reset()
	defer func() {
		if buf.Cap() <= maxPooledBytes {
			s.pools.bodies.Put(buf)
		}
	}()
	if _, err := buf.ReadFrom(body); err != nil {
		return buf.Len(), err
	}
	// Unmarshal itself checks that the body is one value.
	return buf.Len(), json.Unmarshal(buf.Bytes(), v)
}

// classifyBody is a pooled classify request: decoding reuses its
// Values map and its Rows backing arrays across requests.
type classifyBody struct {
	req    engine.ClassifyRequest
	values map[string]int
	rows   [][]int
	size   int // the body's length
}

// readClassify decodes a /classify (batch false) or /classify:batch
// body into a pooled request; release it with putClassify once the
// answer is encoded. Each endpoint keeps only its own shape: Rows for
// a batch, Values otherwise (absent values mean an empty map).
func (s *Server) readClassify(w http.ResponseWriter, r *http.Request, batch bool) (*classifyBody, error) {
	cb := s.pools.classifies.Get().(*classifyBody)
	clear(cb.values)
	cb.req = engine.ClassifyRequest{Values: cb.values}
	if batch {
		cb.req = engine.ClassifyRequest{Rows: cb.rows[:0]}
	}
	var err error
	cb.size, err = s.readJSON(w, r, maxQueryBytes, &cb.req, false)
	if !batch {
		cb.req.Rows = nil
		if cb.req.Values == nil {
			cb.req.Values = cb.values
		}
		return cb, err
	}
	cb.req.Values = nil
	switch rows := cb.req.Rows; {
	case len(rows) == 0 && cap(rows) > 0:
		// "rows" was absent: the decoder replaces an empty array with
		// a fresh zero-capacity slice, so only an untouched seed has
		// room left.
		cb.req.Rows = nil
	case cap(rows) > cap(cb.rows):
		cb.rows = rows[:0]
	}
	return cb, err
}

// putClassify returns a request to the pool unless its body was large
// (its map and rows would pin that much memory).
//
//hyper:noalloc
func (s *Server) putClassify(cb *classifyBody) {
	if cb.size <= maxPooledBytes {
		s.pools.classifies.Put(cb)
	}
}

// stamp sets the headers of a model-scoped answer: X-Trace-Id for a
// traced request and X-Model-Generation when a published model (sv)
// answers it. The two values share one string and one backing array.
func stamp(h http.Header, act *telemetry.Active, sv *registry.Served) {
	var raw [20 + 32]byte
	b := raw[:0]
	if sv != nil {
		b = strconv.AppendInt(b, sv.Generation(), 10)
	}
	gen := len(b)
	if act != nil {
		b = act.TraceID().AppendHex(b)
	}
	if len(b) == 0 {
		return
	}
	str := string(b)
	vals := make([]string, 0, 2)
	if sv != nil {
		vals = append(vals, str[:gen])
		h["X-Model-Generation"] = vals[0:1:1]
	}
	if act != nil {
		vals = append(vals, str[gen:])
		h["X-Trace-Id"] = vals[len(vals)-1 : len(vals) : len(vals)]
	}
}
