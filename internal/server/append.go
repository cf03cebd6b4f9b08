// POST /v1/models/{name}:append — the HTTP face of the incremental
// mining pipeline (internal/delta via registry.AppendRowsContext). An
// append is a write that republishes: it extends the model's live
// dataset, delta-updates the mined model, and swaps in a new
// generation, so it is admission-classed expensive (it competes with
// mining-shaped work, not with warm reads), traced as kind "append",
// and timed in hypermined_append_seconds. Every body shape (JSON rows,
// JSON columns, text/csv) becomes rows in decodeAppendBody, and an
// append makes that one registry call.
package server

import (
	"errors"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"time"

	"hypermine/internal/admit"
	"hypermine/internal/registry"
	"hypermine/internal/schema"
	"hypermine/internal/table"
)

// maxAppendBytes bounds an :append body. Appends are incremental by
// design; a batch approaching this bound should be a snapshot re-mine
// instead.
const maxAppendBytes = 256 << 20

// appendRequest is the JSON body of :append. Exactly one of Rows
// (row-major: each inner slice is one observation across all
// attributes, in schema order) or Columns (column-major: columns[j]
// holds the appended values of attribute j) may be set; an empty body
// of either shape is a valid no-op append. A text/csv body is the
// third shape (see readAppendCSV); decodeAppendBody turns each into
// the same rows.
type appendRequest struct {
	Rows    [][]int `json:"rows,omitempty"`
	Columns [][]int `json:"columns,omitempty"`
}

// appendResponse reports a published (or no-op) append.
type appendResponse struct {
	Name       string `json:"name"`
	Generation int64  `json:"generation"`
	Appended   int    `json:"appended"`
	Rows       int    `json:"rows"`
	Edges      int    `json:"edges"`
	// Swapped is false for a no-op append (zero rows): the serving
	// generation already answers for the identical table.
	Swapped bool `json:"swapped"`
	// SharedEdges counts hyperedges structurally shared with the
	// previous generation; FullRebuild reports the count-table fallback.
	SharedEdges int      `json:"shared_edges"`
	FullRebuild bool     `json:"full_rebuild"`
	Evicted     []string `json:"evicted,omitempty"`
}

// handleAppend serves POST /v1/models/{name}:append, dispatched from
// the handleQuery catch-all. The body is JSON rows/columns or text/csv
// (header must match the model's attribute schema).
func (s *Server) handleAppend(w http.ResponseWriter, r *http.Request, name string) {
	ob := s.open(r, name, "append", s.appendHist)
	defer ob.finish()
	stamp(w.Header(), ob.act.TraceID(), nil)
	// Appends compete for the expensive cost class: they run mining
	// kernels and engine rebuilds, so under overload they queue and shed
	// like mining-shaped queries instead of starving cheap reads.
	if !ob.admit(w, admit.Expensive) {
		return
	}

	rows, err := ob.decodeAppendBody(w, r)
	if err != nil {
		// decodeAppendBody already wrote and recorded the answer. A
		// malformed or aborted body is not a model fault, whatever its
		// status.
		ob.tk.Done(admit.OutcomeOK)
		return
	}

	info, err := s.reg.AppendRowsContext(ob, name, rows)
	if err != nil {
		if !ob.failCtx(w, err) {
			ob.fail(w, appendStatus(err), "append: %v", err)
		}
		return
	}

	s.logger.LogAttrs(r.Context(), slog.LevelInfo, "append published",
		slog.String("trace_id", ob.act.TraceID().String()),
		slog.String("kind", "append"),
		slog.String("model", name),
		slog.Int64("generation", info.Generation),
		slog.Int("appended", info.Appended),
		slog.Int("rows", info.Rows),
		slog.Int("edges", info.Edges),
		slog.Bool("swapped", info.Swapped),
		slog.Bool("full_rebuild", info.FullRebuild),
		slog.Duration("duration", time.Since(ob.start).Round(time.Microsecond)))
	w.Header().Set("X-Model-Generation", strconv.FormatInt(info.Generation, 10))
	writeJSON(w, http.StatusOK, appendResponse{
		Name:        name,
		Generation:  info.Generation,
		Appended:    info.Appended,
		Rows:        info.Rows,
		Edges:       info.Edges,
		Swapped:     info.Swapped,
		SharedEdges: info.SharedEdges,
		FullRebuild: info.FullRebuild,
		Evicted:     info.Evicted,
	})
}

// decodeAppendBody parses the :append body, whatever its shape, into
// row-major values carved from one slab: the one place where the shape
// matters. No rows is an explicit empty no-op. On error the response
// has already been written and recorded.
func (ob *reqObs) decodeAppendBody(w http.ResponseWriter, r *http.Request) ([][]table.Value, error) {
	s := ob.s
	ct, _, _ := strings.Cut(r.Header.Get("Content-Type"), ";")
	if strings.TrimSpace(ct) == "text/csv" {
		return ob.readAppendCSV(w, r, http.MaxBytesReader(w, r.Body, maxAppendBytes))
	}
	// A pooled body: decoding reuses its row and column backing arrays,
	// and every value is copied out below, so the append does not
	// retain them.
	req := s.pools.appends.Get().(*appendRequest)
	req.Rows, req.Columns = req.Rows[:0], req.Columns[:0]
	n, err := s.readJSON(w, r, maxAppendBytes, req, true)
	defer func() {
		if n <= maxPooledBytes {
			s.pools.appends.Put(req)
		}
	}()
	if err != nil {
		if !ob.failCtx(w, r.Context().Err()) {
			ob.fail(w, http.StatusBadRequest, "body: %v", err)
		}
		return nil, err
	}
	if len(req.Rows) > 0 && len(req.Columns) > 0 {
		err := errors.New("body sets both rows and columns")
		ob.fail(w, http.StatusBadRequest, "%v", err)
		return nil, err
	}
	if len(req.Columns) > 0 {
		return ob.transposeColumns(w, req.Columns)
	}
	cells := 0
	for _, row := range req.Rows {
		cells += len(row)
	}
	slab := make([]table.Value, cells)
	rows := make([][]table.Value, len(req.Rows))
	for i, row := range req.Rows {
		rows[i], slab = slab[:len(row):len(row)], slab[len(row):]
		for j, v := range row {
			if v < 1 || v > table.MaxK {
				return nil, ob.badValue(w, "rows", i, j, v)
			}
			rows[i][j] = table.Value(v)
		}
	}
	return rows, nil
}

// transposeColumns turns a column-major body into rows. As in the rows
// shape, a value outside 1..255 is refused before the model is looked
// up; then there must be one column per attribute of the serving
// model, all of one length, which holds for zero rows too.
func (ob *reqObs) transposeColumns(w http.ResponseWriter, cols [][]int) ([][]table.Value, error) {
	for j, col := range cols {
		for i, v := range col {
			if v < 1 || v > table.MaxK {
				return nil, ob.badValue(w, "columns", j, i, v)
			}
		}
	}
	schm, _, err := ob.servingSchema(w)
	if err != nil {
		return nil, err
	}
	if len(cols) != schm.Len() {
		err := errors.New("wrong column count")
		ob.fail(w, http.StatusBadRequest, "columns: %d columns, want %d", len(cols), schm.Len())
		return nil, err
	}
	width, n := len(cols), len(cols[0])
	for j, col := range cols {
		if len(col) != n {
			err := errors.New("ragged columns")
			ob.fail(w, http.StatusBadRequest, "columns[%d]: %d values, want %d", j, len(col), n)
			return nil, err
		}
	}
	slab := make([]table.Value, width*n)
	rows := make([][]table.Value, n)
	for i := range rows {
		rows[i], slab = slab[:width:width], slab[width:]
		for j, col := range cols {
			rows[i][j] = table.Value(col[i])
		}
	}
	return rows, nil
}

// badValue refuses the value v at shape[i][j], outside 1..255, with a
// 400.
func (ob *reqObs) badValue(w http.ResponseWriter, shape string, i, j, v int) error {
	ob.fail(w, http.StatusBadRequest, "%s[%d][%d]: value %d outside 1..%d", shape, i, j, v, table.MaxK)
	return errors.New(shape + " value outside 1..255")
}

// servingSchema returns the serving model's attribute schema and
// cardinality, which a body that is not one row per observation is
// checked against: an unknown model is a 404.
func (ob *reqObs) servingSchema(w http.ResponseWriter) (*schema.Names, int, error) {
	sv := ob.s.reg.Peek(ob.name)
	if sv == nil {
		ob.fail(w, http.StatusNotFound, "unknown model %q", ob.name)
		return nil, 0, errors.New("unknown model")
	}
	defer sv.Release()
	return sv.Model().Table.Schema(), sv.Model().Table.K(), nil
}

// readAppendCSV parses a text/csv :append body with
// table.ReadRowsCSV against the serving model's schema: a header or
// row mismatch is a 400.
func (ob *reqObs) readAppendCSV(w http.ResponseWriter, r *http.Request, body io.Reader) ([][]table.Value, error) {
	schm, k, err := ob.servingSchema(w)
	if err != nil {
		return nil, err
	}
	rows, err := table.ReadRowsCSV(body, schm, k)
	if err != nil && !ob.failCtx(w, r.Context().Err()) {
		ob.fail(w, http.StatusBadRequest, "csv: %v", err)
	}
	return rows, err
}

// appendStatus maps an append error that is not context-shaped to its
// HTTP status: unknown model is 404, a lost admin race is 409, and
// anything else (malformed rows, width/value mismatches) is 400 —
// appends never half-apply, so a failed append left the serving model
// untouched.
func appendStatus(err error) int {
	switch {
	case errors.Is(err, registry.ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, registry.ErrConflict):
		return http.StatusConflict
	}
	return http.StatusBadRequest
}
