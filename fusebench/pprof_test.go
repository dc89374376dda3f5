package main

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime/pprof"
	"testing"
	"time"
)

// pb is a minimal protobuf encoder for building test profiles.
type pb struct{ b []byte }

func (p *pb) varint(field int, v uint64) *pb {
	p.b = binary.AppendUvarint(p.b, uint64(field)<<3)
	p.b = binary.AppendUvarint(p.b, v)
	return p
}

func (p *pb) bytes(field int, data []byte) *pb {
	p.b = binary.AppendUvarint(p.b, uint64(field)<<3|2)
	p.b = binary.AppendUvarint(p.b, uint64(len(data)))
	p.b = append(p.b, data...)
	return p
}

func (p *pb) msg(field int, m *pb) *pb { return p.bytes(field, m.b) }

func packed(vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

func TestReduceProfileHandBuilt(t *testing.T) {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"fuse/internal/cache.(*TagStore).Lookup", "fuse/internal/core.(*HybridL1D).Access", "runtime.mallocgc"}
	p := &pb{}
	p.msg(pfSampleType, (&pb{}).varint(vtType, 1).varint(2, 2))
	p.msg(pfSampleType, (&pb{}).varint(vtType, 3).varint(2, 4))
	// Sample 1: Lookup inlined into Access (one location, two lines), with
	// packed fields; 30ns.
	p.msg(pfSample, (&pb{}).bytes(sfLocationID, packed(1)).bytes(sfValue, packed(1, 30)))
	// Sample 2: mallocgc called from Access, unpacked fields; 10ns.
	p.msg(pfSample, (&pb{}).varint(sfLocationID, 3).varint(sfLocationID, 2).varint(sfValue, 1).varint(sfValue, 10))
	// Sample 3: Access itself; 60ns.
	p.msg(pfSample, (&pb{}).bytes(sfLocationID, packed(2)).bytes(sfValue, packed(1, 60)))
	p.msg(pfLocation, (&pb{}).varint(lfID, 1).msg(lfLine, (&pb{}).varint(lnFunctionID, 1)).msg(lfLine, (&pb{}).varint(lnFunctionID, 2)))
	p.msg(pfLocation, (&pb{}).varint(lfID, 2).msg(lfLine, (&pb{}).varint(lnFunctionID, 2)))
	p.msg(pfLocation, (&pb{}).varint(lfID, 3).msg(lfLine, (&pb{}).varint(lnFunctionID, 3)))
	for i := uint64(1); i <= 3; i++ {
		p.msg(pfFunction, (&pb{}).varint(ffID, i).varint(ffName, 4+i))
	}
	for _, s := range strs {
		p.bytes(pfStringTable, []byte(s))
	}

	got, err := reduceProfile(p.b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Total != 100 {
		t.Fatalf("total = %d, want 100", got.Total)
	}
	self := map[string]float64{"cache": 0.3, "runtime": 0.1, "core": 0.6, "dram": 0}
	for layer, want := range self {
		if s := got.selfShare(layer); math.Abs(s-want) > 1e-12 {
			t.Errorf("self %s = %v, want %v", layer, s, want)
		}
	}
	cum := map[string]float64{"cache.TagStore.Lookup": 0.3, "core.HybridL1D.Access": 1, "runtime.mallocgc": 0.1}
	for fn, want := range cum {
		if s := got.cumShare(fn); math.Abs(s-want) > 1e-12 {
			t.Errorf("cum %s = %v, want %v", fn, s, want)
		}
	}

	var merged cpuTimes
	merged.add(got)
	merged.add(got)
	if merged.Total != 200 || merged.selfShare("core") != 0.6 {
		t.Errorf("merged = %+v", merged)
	}
}

//go:noinline
func spin(d time.Duration) (x uint64) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

var spinSink uint64

func TestReduceProfileRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiler unavailable: %v", err)
	}
	spinSink = spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	got, err := reduceProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got.Total == 0 {
		t.Skip("no CPU samples collected")
	}
	// A test binary names the package under test by its import path.
	if s := got.cumShare("main.spin") + got.cumShare("fusebench.spin"); s < 0.5 {
		t.Errorf("cum spin = %v, want most of the profile (%v)", s, got.Cum)
	}
	if s := got.selfShare("other"); s < 0.5 {
		t.Errorf("self other (the benchmark's own package) = %v", s)
	}
}

func TestNames(t *testing.T) {
	cases := []struct{ fn, pkg, layer, short string }{
		{"fuse/internal/cache.(*TagStore).Lookup", "fuse/internal/cache", "cache", "cache.TagStore.Lookup"},
		{"fuse/internal/dram.(*DRAM).NextEventAt", "fuse/internal/dram", "dram", "dram.DRAM.NextEventAt"},
		{"runtime.mallocgc", "runtime", "runtime", "runtime.mallocgc"},
		{"internal/runtime/maps.(*Map).getWithKey", "internal/runtime/maps", "runtime", "maps.Map.getWithKey"},
		{"encoding/json.Marshal", "encoding/json", "other", "json.Marshal"},
		{"main.main", "main", "other", "main.main"},
	}
	for _, c := range cases {
		if got := pkgOf(c.fn); got != c.pkg {
			t.Errorf("pkgOf(%q) = %q, want %q", c.fn, got, c.pkg)
		}
		if got := layerOf(c.fn); got != c.layer {
			t.Errorf("layerOf(%q) = %q, want %q", c.fn, got, c.layer)
		}
		if got := shortName(c.fn); got != c.short {
			t.Errorf("shortName(%q) = %q, want %q", c.fn, got, c.short)
		}
	}
}
