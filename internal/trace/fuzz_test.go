package trace

import (
	"encoding/json"
	"os"
	"testing"
)

// FuzzParseWorkloads feeds arbitrary bytes to the workload-file decoder, the
// package's one reader of outside bytes (-workloads files and the inline
// "workloads" block of POST /v1/batch). Each input must fail to parse, or
// every profile and phased entry must fail Validate or build per-SM sources
// that generate instructions without panicking, the same stream each time a
// source is built for the same SM and seed. Phased entries resolve the
// way Register resolves them, but nothing is registered, so the registry
// keeps only what the package's tests put there. The seed corpus
// (testdata/fuzz/FuzzParseWorkloads) holds a working set past the
// generator's limit, a mix with a negative fraction and a valid document
// followed by a second one and garbage, which must not parse.
func FuzzParseWorkloads(f *testing.F) {
	example, err := os.ReadFile("../../examples/customworkload/workloads.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(example)
	f.Fuzz(func(t *testing.T, data []byte) {
		file, err := ParseWorkloads(data)
		if err != nil {
			return
		}
		if !json.Valid(data) {
			t.Fatalf("accepted input that is not exactly one JSON value: %q", data)
		}
		local := make(map[string]Profile, len(file.Profiles))
		var ws []Workload
		for _, fp := range file.Profiles {
			p := fp.Profile()
			local[p.Name] = p
			ws = append(ws, Synthetic(p))
		}
		for _, fp := range file.Phased {
			if w, err := fp.workload(local); err == nil {
				ws = append(ws, w)
			}
		}
		for _, w := range ws {
			if w.Validate() != nil {
				continue
			}
			for _, sm := range []int{0, 7} {
				const n = 3000
				var streams [2][]Instruction
				for i := range streams {
					src, err := w.NewSource(sm, 42)
					if err != nil {
						t.Fatalf("%s: valid workload without a source for SM %d: %v", w.Name(), sm, err)
					}
					streams[i] = drive(src, n)
				}
				if !instructionsEqual(streams[0], streams[1]) {
					t.Fatalf("%s: SM %d: two sources for the same seed generated different streams", w.Name(), sm)
				}
			}
		}
	})
}
