package storage

import (
	"fmt"

	"indexmerge/internal/catalog"
	"indexmerge/internal/faults"
	"indexmerge/internal/value"
)

// Heap is a table's base storage: rows appended in arrival order,
// addressed by RowID. Page accounting mirrors a slotted-page heap file.
type Heap struct {
	table       *catalog.Table
	rows        []value.Row // nil slot = deleted (tombstone)
	deleted     int64
	rowsPerPage int
}

// NewHeap creates an empty heap for the table.
func NewHeap(t *catalog.Table) *Heap {
	rpp := usablePageBytes() / maxInt(t.RowWidth(), 1)
	if rpp < 1 {
		rpp = 1
	}
	return &Heap{table: t, rowsPerPage: rpp}
}

// Table returns the schema the heap stores.
func (h *Heap) Table() *catalog.Table { return h.table }

// Insert appends a row and returns its RowID. The row must match the
// table's column count and types (Null is allowed anywhere).
func (h *Heap) Insert(r value.Row) (RowID, error) {
	if err := h.check(r); err != nil {
		return 0, err
	}
	h.rows = append(h.rows, r.Clone())
	return RowID(len(h.rows) - 1), nil
}

// check is the row shape Insert and Load admit.
func (h *Heap) check(r value.Row) error {
	if len(r) != len(h.table.Columns) {
		return fmt.Errorf("storage: table %q expects %d columns, row has %d", h.table.Name, len(h.table.Columns), len(r))
	}
	for i, v := range r {
		if v.IsNull() {
			continue
		}
		want := h.table.Columns[i].Type
		if v.Kind() != want {
			return fmt.Errorf("storage: table %q column %q expects %v, got %v", h.table.Name, h.table.Columns[i].Name, want, v.Kind())
		}
	}
	return nil
}

// Load fills an empty heap with n rows in one pass: fill writes row i
// into a zeroed row carved from one slab, the row is checked as Insert
// checks it, and visit sees it. The heap keeps the rows without
// cloning them, and keeps none if any row fails its check.
func (h *Heap) Load(n int, fill func(row value.Row, i int), visit func(row value.Row)) error {
	if len(h.rows) != 0 {
		return fmt.Errorf("storage: table %q is not empty", h.table.Name)
	}
	width := len(h.table.Columns)
	slab := make([]value.Value, n*width)
	rows := make([]value.Row, n)
	for i := range rows {
		// A full slice expression: a row never grows into its neighbour.
		row := value.Row(slab[i*width : (i+1)*width : (i+1)*width])
		fill(row, i)
		if err := h.check(row); err != nil {
			return err
		}
		visit(row)
		rows[i] = row
	}
	h.rows = rows
	return nil
}

// Get fetches a row by id; deleted rows return an error.
func (h *Heap) Get(id RowID) (value.Row, error) {
	if err := faults.Inject(faults.StorageHeapGet); err != nil {
		return nil, err
	}
	if id < 0 || int64(id) >= int64(len(h.rows)) {
		return nil, fmt.Errorf("storage: table %q has no row %d", h.table.Name, id)
	}
	if h.rows[id] == nil {
		return nil, fmt.Errorf("storage: table %q row %d is deleted", h.table.Name, id)
	}
	return h.rows[id], nil
}

// Delete tombstones a row (slot stays allocated, like a ghost record).
// Deleting a missing or already-deleted row is an error.
func (h *Heap) Delete(id RowID) error {
	if id < 0 || int64(id) >= int64(len(h.rows)) {
		return fmt.Errorf("storage: table %q has no row %d", h.table.Name, id)
	}
	if h.rows[id] == nil {
		return fmt.Errorf("storage: table %q row %d already deleted", h.table.Name, id)
	}
	h.rows[id] = nil
	h.deleted++
	return nil
}

// NthLive returns the RowID of the k-th live row, counting from 0 in
// RowID order. On a heap without tombstones that is RowID k.
func (h *Heap) NthLive(k int64) (RowID, error) {
	if k < 0 || k >= h.RowCount() {
		return 0, fmt.Errorf("storage: table %q has no live row %d", h.table.Name, k)
	}
	if h.deleted == 0 {
		return RowID(k), nil
	}
	for i, r := range h.rows {
		if r == nil {
			continue
		}
		if k == 0 {
			return RowID(i), nil
		}
		k--
	}
	panic("storage: live row count out of step with the rows")
}

// RowCount returns the number of live rows.
func (h *Heap) RowCount() int64 { return int64(len(h.rows)) - h.deleted }

// Pages returns the heap's page count.
func (h *Heap) Pages() int64 {
	if len(h.rows) == 0 {
		return 1
	}
	return Ceil64(int64(len(h.rows)), int64(h.rowsPerPage))
}

// Bytes returns the heap's size in bytes.
func (h *Heap) Bytes() int64 { return h.Pages() * PageSize }

// TruncateTo discards rows with RowID >= n, restoring the heap to an
// earlier state. Experiments use this to roll back batch inserts;
// indexes built before the truncation must be rebuilt by the caller.
func (h *Heap) TruncateTo(n int64) {
	if n < 0 {
		n = 0
	}
	if n < int64(len(h.rows)) {
		for _, r := range h.rows[n:] {
			if r == nil {
				h.deleted--
			}
		}
		h.rows = h.rows[:n]
	}
}

// Scan calls fn for every live row in RowID order; fn returning false
// stops the scan early. Tombstoned slots are skipped.
func (h *Heap) Scan(fn func(id RowID, r value.Row) bool) {
	faults.Hit(faults.StorageHeapScan)
	for i, r := range h.rows {
		if r == nil {
			continue
		}
		if !fn(RowID(i), r) {
			return
		}
	}
}
