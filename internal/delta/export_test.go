package delta

import (
	"hypermine/internal/core"
	"hypermine/internal/table"
)

// Rewind undoes the appends of rows on top of prev, the model d held
// before them, so a timed append can be repeated from the same state.
// It needs the count tables, not the full-re-mine fallback.
func (d *Dataset) Rewind(prev *core.Model, rows [][]table.Value) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.counts.sub(rows)
	d.counts.rows -= len(rows)
	d.model = prev
}
