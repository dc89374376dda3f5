package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestGeoMean(t *testing.T) {
	if got := GeoMean([]float64{2, 8}); math.Abs(got-4) > 1e-9 {
		t.Errorf("GeoMean(2,8) = %v, want 4", got)
	}
	if got := GeoMean([]float64{1, 1, 1}); math.Abs(got-1) > 1e-9 {
		t.Errorf("GeoMean(1,1,1) = %v, want 1", got)
	}
	// Non-positive entries are skipped.
	if got := GeoMean([]float64{0, -3, 2, 8}); math.Abs(got-4) > 1e-9 {
		t.Errorf("GeoMean with non-positive entries = %v, want 4", got)
	}
	if got := GeoMean(nil); got != 0 {
		t.Errorf("GeoMean(nil) = %v, want 0", got)
	}
}

func TestMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("Mean = %v, want 2", got)
	}
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %v, want 0", got)
	}
}

func TestGeoMeanBetweenMinAndMax(t *testing.T) {
	prop := func(raw []float64) bool {
		vals := make([]float64, 0, len(raw))
		for _, v := range raw {
			v = math.Abs(v)
			if v > 0 && !math.IsInf(v, 0) && !math.IsNaN(v) && v < 1e100 {
				vals = append(vals, v)
			}
		}
		if len(vals) == 0 {
			return true
		}
		g := GeoMean(vals)
		min, max := vals[0], vals[0]
		for _, v := range vals {
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
		}
		const eps = 1e-9
		return g >= min*(1-eps) && g <= max*(1+eps)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(10, 10)
	for i := 0; i < 100; i++ {
		h.Observe(float64(i))
	}
	h.Observe(1000) // overflow
	h.Observe(-5)   // clamps to first bucket
	if h.Count() != 102 {
		t.Errorf("Count = %d, want 102", h.Count())
	}
	if h.Bucket(0) != 11 { // 0..9 plus the clamped -5
		t.Errorf("Bucket(0) = %d, want 11", h.Bucket(0))
	}
	if h.Bucket(5) != 10 {
		t.Errorf("Bucket(5) = %d, want 10", h.Bucket(5))
	}
	if h.Overflow() != 1 {
		t.Errorf("Overflow = %d, want 1", h.Overflow())
	}
	if h.Bucket(-1) != 0 || h.Bucket(99) != 0 {
		t.Errorf("out-of-range Bucket should be 0")
	}
	p50 := h.Percentile(0.5)
	if p50 < 30 || p50 > 70 {
		t.Errorf("Percentile(0.5) = %v, expected around 50", p50)
	}
	if got := h.Percentile(-1); got < 0 {
		t.Errorf("Percentile(-1) should clamp, got %v", got)
	}
	var empty = NewHistogram(4, 1)
	if empty.Percentile(0.5) != 0 {
		t.Errorf("empty percentile should be 0")
	}
	if bad := NewHistogram(0, 0); bad == nil || len(bad.buckets) != 1 {
		t.Errorf("NewHistogram should clamp invalid arguments")
	}
}

func TestTable(t *testing.T) {
	tab := NewTable("Demo", "name", "value")
	tab.AddRow("b", "2")
	tab.AddRow("a") // short row padded
	tab.AddRowValues("c", 3.14159, 4)
	tab.SortRowsByFirstColumn()
	out := tab.String()
	if !strings.Contains(out, "Demo") {
		t.Errorf("missing title in output:\n%s", out)
	}
	if !strings.Contains(out, "3.142") {
		t.Errorf("missing formatted float in output:\n%s", out)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("expected 3 rows, got %d", len(tab.Rows))
	}
	if tab.Rows[0][0] != "a" || tab.Rows[2][0] != "c" {
		t.Errorf("rows not sorted: %v", tab.Rows)
	}
	if tab.Rows[1][1] != "2" {
		t.Errorf("unexpected cell: %v", tab.Rows[1])
	}
}

func TestFormatFloat(t *testing.T) {
	if got := FormatFloat(3); got != "3" {
		t.Errorf("FormatFloat(3) = %q", got)
	}
	if got := FormatFloat(0.123456); got != "0.123" {
		t.Errorf("FormatFloat(0.123456) = %q", got)
	}
}
