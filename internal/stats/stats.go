// Package stats provides small statistics helpers: the geometric and
// arithmetic means the paper uses to aggregate per-benchmark results, a
// fixed-bucket histogram and the text table the experiment harness prints.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// GeoMean returns the geometric mean of the values, ignoring non-positive
// entries (matching how the paper reports "GMEANS" across benchmarks).
func GeoMean(values []float64) float64 {
	logSum := 0.0
	n := 0
	for _, v := range values {
		if v <= 0 {
			continue
		}
		logSum += math.Log(v)
		n++
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logSum / float64(n))
}

// Mean returns the arithmetic mean of values (0 if empty).
func Mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range values {
		s += v
	}
	return s / float64(len(values))
}

// Histogram is a fixed-bucket histogram over [0, buckets*width).
type Histogram struct {
	width    float64
	buckets  []uint64
	overflow uint64
	count    uint64
}

// NewHistogram creates a histogram with the given number of buckets each of
// the given width. Samples beyond the last bucket land in an overflow bin.
func NewHistogram(buckets int, width float64) *Histogram {
	if buckets <= 0 {
		buckets = 1
	}
	if width <= 0 {
		width = 1
	}
	return &Histogram{width: width, buckets: make([]uint64, buckets)}
}

// Observe adds one sample.
func (h *Histogram) Observe(v float64) {
	h.count++
	if v < 0 {
		v = 0
	}
	idx := int(v / h.width)
	if idx >= len(h.buckets) {
		h.overflow++
		return
	}
	h.buckets[idx]++
}

// Count returns the total number of samples.
func (h *Histogram) Count() uint64 { return h.count }

// Bucket returns the count in bucket i.
func (h *Histogram) Bucket(i int) uint64 {
	if i < 0 || i >= len(h.buckets) {
		return 0
	}
	return h.buckets[i]
}

// Overflow returns the number of samples beyond the last bucket.
func (h *Histogram) Overflow() uint64 { return h.overflow }

// Percentile returns an approximate p-quantile (0 <= p <= 1) assuming samples
// are uniformly distributed within buckets. Overflow samples are reported as
// the upper edge of the histogram.
func (h *Histogram) Percentile(p float64) float64 {
	if h.count == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	target := p * float64(h.count)
	cum := 0.0
	for i, b := range h.buckets {
		next := cum + float64(b)
		if next >= target && b > 0 {
			frac := 0.0
			if b > 0 {
				frac = (target - cum) / float64(b)
			}
			return (float64(i) + frac) * h.width
		}
		cum = next
	}
	return float64(len(h.buckets)) * h.width
}

// Table is a lightweight text table used by the experiment harness to print
// the rows of a reproduced paper table or figure.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row of cells. Extra cells are dropped and missing ones are
// padded with empty strings so the table stays rectangular.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.Columns))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.Rows = append(t.Rows, row)
}

// AddRowValues appends a row with a leading label and formatted float cells.
func (t *Table) AddRowValues(label string, values ...float64) {
	cells := make([]string, 0, len(values)+1)
	cells = append(cells, label)
	for _, v := range values {
		cells = append(cells, FormatFloat(v))
	}
	t.AddRow(cells...)
}

// FormatFloat renders a float compactly: integers without a decimal point,
// others with three significant decimals.
func FormatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e9 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.3f", v)
}

// String renders the table as aligned text.
func (t *Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteString("\n")
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteString("\n")
	}
	writeRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// SortRowsByFirstColumn orders rows lexicographically by their first cell;
// useful for deterministic output when rows were accumulated from a map.
func (t *Table) SortRowsByFirstColumn() {
	sort.Slice(t.Rows, func(i, j int) bool { return t.Rows[i][0] < t.Rows[j][0] })
}
