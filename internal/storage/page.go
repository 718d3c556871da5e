// Package storage implements the on-disk-shaped substrate the paper's
// experiments run against: page-based heap files and B+-tree indexes
// with page-level accounting. The paper measured index storage and
// batch-insert maintenance cost on SQL Server 7.0; here both are
// derived from the same quantity — 8 KiB pages — so that estimated and
// measured sizes can be cross-checked in tests.
package storage

import "math"

const (
	// PageSize is the page size in bytes (SQL Server 7.0 used 8 KiB pages).
	PageSize = 8192

	// FillFactor is the assumed page fullness for B+-tree leaves after
	// bulk load / steady state. 0.69 is the classical random-insert
	// B+-tree occupancy (ln 2 ≈ 0.693).
	FillFactor = 0.69

	// RIDWidth is the width of a row identifier (the "row pointer"
	// appended to every secondary-index entry).
	RIDWidth = 8

	// pageHeader is the per-page overhead in bytes.
	pageHeader = 96
)

// usablePageBytes is the per-page payload capacity.
func usablePageBytes() int { return PageSize - pageHeader }

// EntriesPerLeaf returns how many index entries of the given key width
// fit in one leaf page at the steady-state fill factor.
func EntriesPerLeaf(keyWidth int) int {
	entry := keyWidth + RIDWidth
	if entry <= 0 {
		entry = 1
	}
	n := int(float64(usablePageBytes()) * FillFactor / float64(entry))
	if n < 2 {
		n = 2
	}
	return n
}

// EstimateIndexPages predicts the total page count of a B+-tree index
// holding rowCount entries of the given key width. This is the size
// estimator from paper §3.3 ("the size of an index can be accurately
// predicted if we know the on-disk structure used to store the index");
// the MergePair module and what-if costing both use it, and tests check
// it against pages actually allocated by the B+-tree.
func EstimateIndexPages(rowCount int64, keyWidth int) int64 {
	if rowCount <= 0 {
		return 1
	}
	epl := int64(EntriesPerLeaf(keyWidth))
	leaves := (rowCount + epl - 1) / epl
	// Internal levels: separators are key-width entries with child
	// pointers; fanout is close to the leaf entry count.
	total := leaves
	level := leaves
	for level > 1 {
		level = (level + epl - 1) / epl
		total += level
	}
	return total
}

// EstimateIndexBytes is EstimateIndexPages scaled to bytes.
func EstimateIndexBytes(rowCount int64, keyWidth int) int64 {
	return EstimateIndexPages(rowCount, keyWidth) * PageSize
}

// EstimateHeapPages predicts the page count of a heap file of rowCount
// rows of the given row width (heaps pack to full pages).
func EstimateHeapPages(rowCount int64, rowWidth int) int64 {
	if rowCount <= 0 {
		return 1
	}
	rpp := int64(usablePageBytes() / maxInt(rowWidth, 1))
	if rpp < 1 {
		rpp = 1
	}
	return (rowCount + rpp - 1) / rpp
}

// EstimateIndexHeight predicts the number of B+-tree levels, used by
// the optimizer to cost a root-to-leaf traversal per seek.
func EstimateIndexHeight(rowCount int64, keyWidth int) int {
	if rowCount <= 0 {
		return 1
	}
	epl := int64(EntriesPerLeaf(keyWidth))
	h := 1
	level := (rowCount + epl - 1) / epl
	for level > 1 {
		level = (level + epl - 1) / epl
		h++
	}
	return h
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// BytesToMB converts bytes to megabytes for reporting.
func BytesToMB(b int64) float64 { return float64(b) / (1 << 20) }

// Ceil64 is ceiling division for positive operands.
func Ceil64(a, b int64) int64 {
	if b <= 0 {
		return a
	}
	return int64(math.Ceil(float64(a) / float64(b)))
}
