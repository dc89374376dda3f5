package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"fuse/internal/config"
	"fuse/internal/sim"
)

// golden holds the pinned digests of the default seed (42): every sim-full
// sim.Result and every fig 13-17 table, so a change that moves a simulated
// number is caught even when it is self-consistent.
//
//go:embed golden.json
var goldenJSON []byte

type goldenDigests struct {
	Seed    uint64            `json:"seed"`
	SimFull map[string]string `json:"sim-full"`
	Figures map[string]string `json:"fig-matrix"`
}

func loadGolden() (goldenDigests, error) {
	var g goldenDigests
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return g, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

// digest is the SHA-256 of v's JSON encoding (sim.Result and table text
// encode deterministically).
func digest(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return "unencodable: " + err.Error()
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// checkPinned compares digests against the pinned set for the default seed;
// other seeds have no pins. It returns the mismatches.
func checkPinned(pinned, got map[string]string) []string {
	var bad []string
	for name, want := range pinned {
		if got[name] != want {
			bad = append(bad, fmt.Sprintf("%s: digest %s, pinned %s", name, got[name], want))
		}
	}
	return bad
}

// checkInvariants returns the first conservation law one result breaks:
// every warp retires its full instruction budget, every outgoing L1D request
// crosses the NoC, no response arrives without a read request (write-backs
// need none), and the run finished before MaxCycles. A run stops when its
// last warp retires, which can leave a few reads in flight, so responses
// may fall short of read requests but never exceed them.
func checkInvariants(res sim.Result, gpu config.GPUConfig, opts sim.Options) error {
	opts = opts.WithDefaults()
	sms := gpu.SMs
	if opts.SMOverride > 0 && opts.SMOverride < sms {
		sms = opts.SMOverride
	}
	want := uint64(sms) * uint64(gpu.WarpsPerSM) * opts.InstructionsPerWarp
	switch {
	case res.Instructions != want:
		return fmt.Errorf("%s/%s: %d instructions, budget %d", res.L1DKind, res.Workload, res.Instructions, want)
	case res.NoCRequests != res.L1D.OutgoingRequests:
		return fmt.Errorf("%s/%s: %d NoC requests for %d outgoing L1D requests", res.L1DKind, res.Workload, res.NoCRequests, res.L1D.OutgoingRequests)
	case res.NoCResponses > res.NoCRequests-res.L1D.Writebacks:
		return fmt.Errorf("%s/%s: %d NoC responses for %d requests and %d write-backs",
			res.L1DKind, res.Workload, res.NoCResponses, res.NoCRequests, res.L1D.Writebacks)
	case res.Cycles >= opts.MaxCycles:
		return fmt.Errorf("%s/%s: truncated at MaxCycles (%d)", res.L1DKind, res.Workload, opts.MaxCycles)
	}
	return nil
}
