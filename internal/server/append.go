// POST /v1/models/{name}:append — the HTTP face of the incremental
// mining pipeline (internal/delta via registry.AppendRowsContext). An
// append is a write that republishes: it extends the model's live
// dataset, delta-updates the mined model, and swaps in a new
// generation, so it is admission-classed expensive (it competes with
// mining-shaped work, not with warm reads), traced as kind "append",
// and timed in hypermined_append_seconds.
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
	"hypermine/internal/table"
	"hypermine/internal/telemetry"
)

// maxAppendBytes bounds an :append body. Appends are incremental by
// design; a batch approaching this bound should be a snapshot re-mine
// instead.
const maxAppendBytes = 256 << 20

// appendRequest is the JSON body of :append. Exactly one of Rows
// (row-major: each inner slice is one observation across all
// attributes, in schema order) or Columns (column-major: columns[j]
// holds the appended values of attribute j) may be set; an empty body
// of either shape is a valid no-op append. text/csv bodies bypass this
// struct entirely (see readAppendCSV).
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
	var act *telemetry.Active
	start := time.Now()
	if s.tracer != nil {
		id, _ := telemetry.ParseTraceparent(r.Header.Get("Traceparent"))
		act = s.tracer.Start(id, "append", name, r.Header.Get("X-Tenant"))
		w.Header().Set("X-Trace-Id", act.TraceID().String())
	}
	finish := func(status int, errMsg string) {
		if s.tracer != nil {
			s.tracer.Finish(act, time.Since(start), status, errMsg)
		}
	}

	// Appends compete for the expensive cost class: they run mining
	// kernels and engine rebuilds, so under overload they queue and shed
	// like mining-shaped queries instead of starving cheap reads.
	var tk admit.Ticket
	if s.admission != nil {
		_, rej, err := s.admission.AdmitInto(r.Context(), &tk, r.Header.Get("X-Tenant"), name, admit.Expensive)
		if err != nil {
			if s.failCtx(w, err) {
				finish(ctxStatus(err), err.Error())
				return
			}
			finish(http.StatusInternalServerError, err.Error())
			s.fail(w, http.StatusInternalServerError, "admission: %v", err)
			return
		}
		if rej != nil {
			finish(rej.Status, "overloaded: "+string(rej.Reason))
			s.reject(w, rej)
			return
		}
	}

	rows, cols, err := s.decodeAppendBody(w, r, name)
	if err != nil {
		tk.Done(admit.OutcomeOK) // a malformed body is not a model fault
		// decodeAppendBody already wrote the response; an aborted upload
		// surfaces as a body read error and reports as its context
		// outcome there too.
		finish(appendStatus(err), err.Error())
		return
	}

	var info *registry.AppendInfo
	if cols != nil {
		info, err = s.reg.AppendRawContext(r.Context(), name, cols)
	} else {
		info, err = s.reg.AppendRowsContext(r.Context(), name, rows)
	}
	tk.Done(appendOutcome(err))
	if err != nil {
		status := appendStatus(err)
		finish(status, err.Error())
		if s.failCtx(w, err) {
			return
		}
		s.fail(w, status, "append: %v", err)
		return
	}

	elapsed := time.Since(start)
	s.appendHist.Observe(elapsed)
	s.logger.LogAttrs(r.Context(), slog.LevelInfo, "append published",
		slog.String("trace_id", act.TraceID().String()),
		slog.String("kind", "append"),
		slog.String("model", name),
		slog.Int64("generation", info.Generation),
		slog.Int("appended", info.Appended),
		slog.Int("rows", info.Rows),
		slog.Int("edges", info.Edges),
		slog.Bool("swapped", info.Swapped),
		slog.Bool("full_rebuild", info.FullRebuild),
		slog.Duration("duration", elapsed.Round(time.Microsecond)))
	finish(http.StatusOK, "")
	w.Header().Set("X-Model-Generation", strconv.FormatInt(info.Generation, 10))
	s.writeJSON(w, http.StatusOK, appendResponse{
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

// decodeAppendBody parses the :append body into row-major values or
// column-major raw bytes (exactly one is non-nil on success; both nil
// means an explicit empty no-op). On error the response has already
// been written.
func (s *Server) decodeAppendBody(w http.ResponseWriter, r *http.Request, name string) ([][]table.Value, [][]byte, error) {
	ct, _, _ := strings.Cut(r.Header.Get("Content-Type"), ";")
	if strings.TrimSpace(ct) == "text/csv" {
		rows, err := s.readAppendCSV(w, r, http.MaxBytesReader(w, r.Body, maxAppendBytes), name)
		return rows, nil, err
	}
	// A pooled body: decoding reuses its row and column backing arrays,
	// and every value is copied out below.
	req := s.pools.appends.Get().(*appendRequest)
	req.Rows, req.Columns = req.Rows[:0], req.Columns[:0]
	n, err := s.readJSON(w, r, maxAppendBytes, req, true)
	defer func() {
		if n <= maxPooledBytes {
			s.pools.appends.Put(req)
		}
	}()
	if err != nil {
		if ctxErr := r.Context().Err(); ctxErr != nil && s.failCtx(w, ctxErr) {
			return nil, nil, ctxErr
		}
		s.fail(w, http.StatusBadRequest, "body: %v", err)
		return nil, nil, err
	}
	if len(req.Rows) > 0 && len(req.Columns) > 0 {
		err := errors.New("body sets both rows and columns")
		s.fail(w, http.StatusBadRequest, "%v", err)
		return nil, nil, err
	}
	if len(req.Columns) > 0 {
		cols := make([][]byte, len(req.Columns))
		for j, col := range req.Columns {
			cols[j] = make([]byte, len(col))
			for i, v := range col {
				if v < 1 || v > table.MaxK {
					err := errors.New("column value outside 1..255")
					s.fail(w, http.StatusBadRequest, "columns[%d][%d]: value %d outside 1..%d", j, i, v, table.MaxK)
					return nil, nil, err
				}
				cols[j][i] = byte(v)
			}
		}
		return nil, cols, nil
	}
	// The rows are carved from one slab: the pooled ints are reused by
	// the next request, and the append does not retain its rows.
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
				err := errors.New("row value outside 1..255")
				s.fail(w, http.StatusBadRequest, "rows[%d][%d]: value %d outside 1..%d", i, j, v, table.MaxK)
				return nil, nil, err
			}
			rows[i][j] = table.Value(v)
		}
	}
	return rows, nil, nil
}

// readAppendCSV parses a text/csv :append body: a header row naming
// the model's attributes in schema order, then one record per appended
// observation. The header is checked against the serving model so a
// column-order mistake is a 400, not silently transposed data.
func (s *Server) readAppendCSV(w http.ResponseWriter, r *http.Request, body io.Reader, name string) ([][]table.Value, error) {
	sv := s.reg.Peek(name)
	if sv == nil {
		err := errors.New("unknown model")
		s.fail(w, http.StatusNotFound, "unknown model %q", name)
		return nil, err
	}
	attrs := sv.Model().Table.Attrs()
	k := sv.Model().Table.K()
	sv.Release()

	tb, err := table.ReadCSV(body, k)
	if err != nil {
		if ctxErr := r.Context().Err(); ctxErr != nil && s.failCtx(w, ctxErr) {
			return nil, ctxErr
		}
		s.fail(w, http.StatusBadRequest, "csv: %v", err)
		return nil, err
	}
	got := tb.Attrs()
	if len(got) != len(attrs) {
		err := errors.New("csv header width mismatch")
		s.fail(w, http.StatusBadRequest, "csv: header has %d columns, model has %d attributes", len(got), len(attrs))
		return nil, err
	}
	for j := range got {
		if got[j] != attrs[j] {
			err := errors.New("csv header mismatch")
			s.fail(w, http.StatusBadRequest, "csv: header column %d is %q, model attribute is %q", j, got[j], attrs[j])
			return nil, err
		}
	}
	rows := make([][]table.Value, tb.NumRows())
	for i := range rows {
		rows[i] = tb.Row(i, nil)
	}
	return rows, nil
}

// appendStatus maps an append error to its HTTP status: context
// outcomes keep 504/499, unknown model is 404, a lost admin race is
// 409, and anything else (malformed rows, width/value mismatches) is
// 400 — appends never half-apply, so a failed append left the serving
// model untouched.
func appendStatus(err error) int {
	if code := ctxStatus(err); code != 0 {
		return code
	}
	switch {
	case errors.Is(err, registry.ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, registry.ErrConflict):
		return http.StatusConflict
	}
	return http.StatusBadRequest
}

// appendOutcome classifies an append error for the model's circuit
// breaker, mirroring outcomeOf: client-shaped rejections (bad rows,
// unknown model, lost race) mean the pipeline worked; a deadline expiry
// mid-delta is a model failure; a client hangup is neutral.
func appendOutcome(err error) admit.Outcome {
	if err == nil {
		return admit.OutcomeOK
	}
	switch appendStatus(err) {
	case StatusClientClosedRequest:
		return admit.OutcomeCanceled
	case http.StatusGatewayTimeout:
		return admit.OutcomeFailure
	}
	return admit.OutcomeOK
}
