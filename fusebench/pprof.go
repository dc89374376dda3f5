package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file reduces a runtime/pprof CPU profile to per-layer shares with the
// standard library alone: the profile is a gzipped protocol buffer
// (github.com/google/pprof/proto/profile.proto), and the few messages the
// reduction needs are decoded by hand below.

// Field numbers of profile.proto used here.
const (
	pfSampleType  = 1 // Profile.sample_type: ValueType
	pfSample      = 2 // Profile.sample: Sample
	pfLocation    = 4 // Profile.location: Location
	pfFunction    = 5 // Profile.function: Function
	pfStringTable = 6 // Profile.string_table: string

	sfLocationID = 1 // Sample.location_id: repeated uint64
	sfValue      = 2 // Sample.value: repeated int64

	lfID   = 1 // Location.id
	lfLine = 4 // Location.line: Line

	lnFunctionID = 1 // Line.function_id

	ffID   = 1 // Function.id
	ffName = 2 // Function.name: string table index

	vtType = 1 // ValueType.type: string table index
)

// profSample is one decoded sample: its stack (location IDs, leaf first) and
// its values (one per sample type).
type profSample struct {
	locs   []uint64
	values []int64
}

// cpuTimes is a CPU profile reduced to sampled CPU nanoseconds: Self by
// layer (the package of the leaf frame) and Cum by function (every sample
// whose stack contains the function, counted once per sample).
type cpuTimes struct {
	Self  map[string]int64
	Cum   map[string]int64
	Total int64
}

// add merges another profile's times into t.
func (t *cpuTimes) add(o cpuTimes) {
	if t.Self == nil {
		t.Self, t.Cum = map[string]int64{}, map[string]int64{}
	}
	for k, v := range o.Self {
		t.Self[k] += v
	}
	for k, v := range o.Cum {
		t.Cum[k] += v
	}
	t.Total += o.Total
}

// selfShare and cumShare are the shares of the total sampled CPU time.
func (t cpuTimes) selfShare(layer string) float64 {
	return ratio(float64(t.Self[layer]), float64(t.Total))
}

func (t cpuTimes) cumShare(fn string) float64 {
	return ratio(float64(t.Cum[fn]), float64(t.Total))
}

// reduceProfile decodes a (gzipped) runtime/pprof CPU profile and reduces it
// to CPU time per layer (self) and per function (cumulative).
func reduceProfile(data []byte) (cpuTimes, error) {
	if bytes.HasPrefix(data, []byte{0x1f, 0x8b}) {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return cpuTimes{}, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return cpuTimes{}, fmt.Errorf("profile: %w", err)
		}
	}
	var (
		strs       []string
		typeIdx    []uint64
		samples    []profSample
		locFuncs   = map[uint64][]uint64{} // location → function IDs, innermost first
		funcNameIx = map[uint64]uint64{}   // function → string index
	)
	err := eachField(data, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case pfStringTable:
			strs = append(strs, string(b))
		case pfSampleType:
			return eachField(b, func(n, w int, v uint64, _ []byte) error {
				if n == vtType {
					typeIdx = append(typeIdx, v)
				}
				return nil
			})
		case pfSample:
			var s profSample
			err := eachField(b, func(n, w int, v uint64, p []byte) error {
				switch n {
				case sfLocationID:
					return appendUints(&s.locs, w, v, p)
				case sfValue:
					var u []uint64
					if err := appendUints(&u, w, v, p); err != nil {
						return err
					}
					for _, x := range u {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case pfLocation:
			var id uint64
			var fns []uint64
			err := eachField(b, func(n, w int, v uint64, p []byte) error {
				switch n {
				case lfID:
					id = v
				case lfLine:
					return eachField(p, func(n, w int, v uint64, _ []byte) error {
						if n == lnFunctionID {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case pfFunction:
			var id, name uint64
			err := eachField(b, func(n, w int, v uint64, _ []byte) error {
				switch n {
				case ffID:
					id = v
				case ffName:
					name = v
				}
				return nil
			})
			funcNameIx[id] = name
			return err
		}
		return nil
	})
	if err != nil {
		return cpuTimes{}, fmt.Errorf("profile: %w", err)
	}

	// The CPU time is the value whose type is "cpu"; a profile without one
	// falls back to its last value (runtime/pprof writes samples, then cpu).
	vi := len(typeIdx) - 1
	for i, ix := range typeIdx {
		if ix < uint64(len(strs)) && strs[ix] == "cpu" {
			vi = i
		}
	}
	funcName := func(fn uint64) string {
		if ix, ok := funcNameIx[fn]; ok && ix < uint64(len(strs)) {
			return strs[ix]
		}
		return "?"
	}

	out := cpuTimes{Self: map[string]int64{}, Cum: map[string]int64{}}
	for _, s := range samples {
		if vi < 0 || vi >= len(s.values) || len(s.locs) == 0 {
			continue
		}
		v := s.values[vi]
		out.Total += v
		if leaf := locFuncs[s.locs[0]]; len(leaf) > 0 {
			out.Self[layerOf(funcName(leaf[0]))] += v
		} else {
			out.Self["other"] += v
		}
		seen := map[string]bool{}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				name := shortName(funcName(fn))
				if !seen[name] {
					seen[name] = true
					out.Cum[name] += v
				}
			}
		}
	}
	return out, nil
}

// pkgOf returns the import path of a symbol name such as
// "fuse/internal/cache.(*TagStore).Lookup" or "runtime.mallocgc".
func pkgOf(fn string) string {
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// layerOf maps a symbol to its layer: the package name for the repository's
// own packages ("cache", "dram", ...), "runtime" for the Go runtime, and
// "other" for everything else (standard library, the benchmark itself).
func layerOf(fn string) string {
	pkg := pkgOf(fn)
	switch {
	case strings.HasPrefix(pkg, "fuse/internal/"):
		return strings.TrimPrefix(pkg, "fuse/internal/")
	case pkg == "runtime", strings.HasPrefix(pkg, "runtime/internal/"), strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	}
	return "other"
}

// shortName drops the import path's directories and the receiver's pointer
// decoration: "fuse/internal/cache.(*TagStore).Lookup" → "cache.TagStore.Lookup".
func shortName(fn string) string {
	fn = fn[strings.LastIndex(fn, "/")+1:]
	return strings.NewReplacer("(*", "", ")", "").Replace(fn)
}

// eachField walks the fields of one protobuf message, calling fn with the
// field number, wire type, and the varint value (wire type 0) or payload
// bytes (wire type 2). Fixed-width fields are skipped.
func eachField(b []byte, fn func(num int, wire int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		tag, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field tag")
		}
		b = b[n:]
		num, wire := int(tag>>3), int(tag&7)
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length-delimited field")
			}
			payload = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// appendUints appends a repeated varint field in either encoding: one value
// (wire type 0) or a packed run (wire type 2).
func appendUints(dst *[]uint64, wire int, v uint64, packed []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		packed = packed[n:]
	}
	return nil
}
