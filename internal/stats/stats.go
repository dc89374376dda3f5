// Package stats provides small, allocation-light statistics primitives used
// across the simulator: named counters, rates, distributions and the
// geometric-mean helpers the paper uses to aggregate per-benchmark results.
package stats

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
)

// Counter is a simple monotonically increasing event counter.
type Counter struct {
	n uint64
}

// Add increments the counter by delta.
func (c *Counter) Add(delta uint64) { c.n += delta }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.n++ }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n }

// Reset sets the counter back to zero.
func (c *Counter) Reset() { c.n = 0 }

// MarshalJSON implements json.Marshaler: a counter serialises as its bare
// value, so results carrying counters survive the store's JSON round-trip.
func (c Counter) MarshalJSON() ([]byte, error) { return json.Marshal(c.n) }

// UnmarshalJSON implements json.Unmarshaler.
func (c *Counter) UnmarshalJSON(b []byte) error { return json.Unmarshal(b, &c.n) }

// Ratio returns c / other as a float, or 0 if other is zero.
func (c *Counter) Ratio(other *Counter) float64 {
	if other.n == 0 {
		return 0
	}
	return float64(c.n) / float64(other.n)
}

// Rate tracks hits out of a number of trials (e.g. cache hits vs. accesses,
// predictor correct vs. predictions).
type Rate struct {
	Hits   uint64
	Trials uint64
}

// Observe records one trial with the given outcome.
func (r *Rate) Observe(hit bool) {
	r.Trials++
	if hit {
		r.Hits++
	}
}

// AddHits records n successful trials.
func (r *Rate) AddHits(n uint64) { r.Hits += n; r.Trials += n }

// AddMisses records n unsuccessful trials.
func (r *Rate) AddMisses(n uint64) { r.Trials += n }

// Value returns hits/trials, or 0 when no trials were observed.
func (r *Rate) Value() float64 {
	if r.Trials == 0 {
		return 0
	}
	return float64(r.Hits) / float64(r.Trials)
}

// Miss returns 1 - Value() when trials were observed, else 0.
func (r *Rate) Miss() float64 {
	if r.Trials == 0 {
		return 0
	}
	return 1 - r.Value()
}

// Distribution accumulates scalar samples and reports summary statistics.
type Distribution struct {
	count uint64
	sum   float64
	sumSq float64
	min   float64
	max   float64
}

// Observe adds one sample.
func (d *Distribution) Observe(v float64) {
	if d.count == 0 || v < d.min {
		d.min = v
	}
	if d.count == 0 || v > d.max {
		d.max = v
	}
	d.count++
	d.sum += v
	d.sumSq += v * v
}

// Count returns the number of samples observed.
func (d *Distribution) Count() uint64 { return d.count }

// Sum returns the total of all samples.
func (d *Distribution) Sum() float64 { return d.sum }

// Mean returns the arithmetic mean of the samples (0 if empty).
func (d *Distribution) Mean() float64 {
	if d.count == 0 {
		return 0
	}
	return d.sum / float64(d.count)
}

// Min returns the smallest observed sample (0 if empty).
func (d *Distribution) Min() float64 { return d.min }

// Max returns the largest observed sample (0 if empty).
func (d *Distribution) Max() float64 { return d.max }

// StdDev returns the population standard deviation of the samples.
func (d *Distribution) StdDev() float64 {
	if d.count == 0 {
		return 0
	}
	m := d.Mean()
	v := d.sumSq/float64(d.count) - m*m
	if v < 0 {
		v = 0
	}
	return math.Sqrt(v)
}

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
