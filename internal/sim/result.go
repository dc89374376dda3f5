package sim

import (
	"context"
	"fmt"
	"strings"

	"fuse/internal/config"
	"fuse/internal/core"
	"fuse/internal/predictor"
	"fuse/internal/trace"
)

// Result is the aggregate outcome of one simulation run. It contains every
// quantity the paper's figures are built from.
type Result struct {
	// Config identification.
	GPUName string
	L1DKind config.L1DKind
	// Workload is the benchmark name.
	Workload string

	// Cycles is the number of cycles the longest-running SM needed.
	Cycles int64
	// Instructions is the total number of instructions issued across SMs.
	Instructions uint64
	// IPC is instructions per cycle aggregated over all simulated SMs.
	IPC float64

	// L1D aggregate statistics (summed over SMs).
	L1D core.Stats
	// L1DMissRate is (misses+bypasses)/accesses.
	L1DMissRate float64
	// OutgoingPerSM is the mean number of outgoing memory references (misses
	// plus write-backs) each SM pushed onto the interconnect.
	OutgoingPerSM float64

	// Stall breakdown (Figure 15), in cycles summed over SMs.
	STTWriteStalls  uint64
	TagSearchStalls uint64

	// Predictor accuracy fractions (Figure 16).
	PredTrue    float64
	PredNeutral float64
	PredFalse   float64

	// Off-chip decomposition (Figure 1): the fraction of SM cycles spent
	// unable to issue while waiting for off-chip data, split into network
	// and DRAM/L2 shares.
	OffChipFraction float64
	NetworkFraction float64
	DRAMFraction    float64

	// Memory-side statistics.
	L2MissRate    float64
	L2Accesses    uint64
	L2MergedFills uint64
	L2MSHRStalls  uint64
	DRAMAccesses  uint64
	NoCRequests   uint64
	NoCResponses  uint64
	AvgFillNoC    float64
	AvgFillMemory float64

	// Memory-controller statistics (backend sweeps).
	MemBackend      string
	DRAMRowHitRate  float64
	DRAMQueueStalls uint64
	DRAMEnergyNJ    float64

	// Bank traffic for the energy model.
	SRAMReads, SRAMWrites uint64
	STTReads, STTWrites   uint64
	SimulatedSMs          int
}

// collect aggregates the per-component statistics into a Result.
func (s *Simulator) collect() Result {
	r := Result{
		GPUName:      s.gpuCfg.Name,
		L1DKind:      s.gpuCfg.L1D.Kind,
		Workload:     s.workload.Name(),
		Cycles:       s.now,
		SimulatedSMs: len(s.sms),
	}

	var acc predictor.AccuracyTracker
	var memWait, totalCycles uint64
	for _, sm := range s.sms {
		st := sm.Stats()
		r.Instructions += st.Issued
		totalCycles += st.Cycles
		memWait += st.MemWaitCycles

		ls := sm.L1D().Stats()
		r.L1D.Accesses += ls.Accesses
		r.L1D.Reads += ls.Reads
		r.L1D.Writes += ls.Writes
		r.L1D.Hits += ls.Hits
		r.L1D.SRAMHits += ls.SRAMHits
		r.L1D.STTHits += ls.STTHits
		r.L1D.SwapHits += ls.SwapHits
		r.L1D.QueueHits += ls.QueueHits
		r.L1D.Misses += ls.Misses
		r.L1D.MergedMiss += ls.MergedMiss
		r.L1D.Bypasses += ls.Bypasses
		r.L1D.STTWriteStallCycles += ls.STTWriteStallCycles
		r.L1D.TagSearchStallCycles += ls.TagSearchStallCycles
		r.L1D.MSHRStallEvents += ls.MSHRStallEvents
		r.L1D.StructuralStalls += ls.StructuralStalls
		r.L1D.SRAMReads += ls.SRAMReads
		r.L1D.SRAMWrites += ls.SRAMWrites
		r.L1D.STTReads += ls.STTReads
		r.L1D.STTWrites += ls.STTWrites
		r.L1D.MigrationsToSTT += ls.MigrationsToSTT
		r.L1D.MigrationsToSRAM += ls.MigrationsToSRAM
		r.L1D.EvictionsToL2 += ls.EvictionsToL2
		r.L1D.Writebacks += ls.Writebacks
		r.L1D.TagQueueFlushes += ls.TagQueueFlushes
		r.L1D.OutgoingRequests += ls.OutgoingRequests

		acc.True += ls.Accuracy.True
		acc.False += ls.Accuracy.False
		acc.Neutral += ls.Accuracy.Neutral
	}
	r.L1D.Accuracy = acc
	r.L1DMissRate = r.L1D.MissRate()
	if n := len(s.sms); n > 0 {
		r.OutgoingPerSM = float64(r.L1D.OutgoingRequests) / float64(n)
	}
	r.STTWriteStalls = r.L1D.STTWriteStallCycles
	r.TagSearchStalls = r.L1D.TagSearchStallCycles
	r.PredTrue, r.PredNeutral, r.PredFalse = acc.Fractions()

	if totalCycles > 0 {
		r.IPC = float64(r.Instructions) / float64(r.Cycles)
		r.OffChipFraction = float64(memWait) / float64(totalCycles)
	}
	// The NoC share can go slightly negative when a run aborts at MaxCycles
	// with back-pressure waits moved to the memory share but their fills
	// still in flight; clamp rather than report a negative fraction.
	noc := max(s.nocCycles, 0)
	lat := noc + s.memCycles
	if lat > 0 {
		r.NetworkFraction = r.OffChipFraction * float64(noc) / float64(lat)
		r.DRAMFraction = r.OffChipFraction * float64(s.memCycles) / float64(lat)
	}
	if s.fills > 0 {
		r.AvgFillNoC = float64(noc) / float64(s.fills)
		r.AvgFillMemory = float64(s.memCycles) / float64(s.fills)
	}

	r.L2MissRate = s.l2.MissRate()
	r.L2Accesses = s.l2.Accesses()
	r.L2MergedFills = s.l2.MergedInFlight()
	r.L2MSHRStalls = s.l2.MSHRStalls()
	r.DRAMAccesses = s.dram.Accesses()
	r.NoCRequests, r.NoCResponses = s.net.Packets()
	r.MemBackend = s.dram.BackendName()
	r.DRAMRowHitRate = s.dram.RowHitRate()
	r.DRAMQueueStalls = s.dram.QueueStalls()
	r.DRAMEnergyNJ = s.dram.EnergyNJ()

	r.SRAMReads, r.SRAMWrites = r.L1D.SRAMReads, r.L1D.SRAMWrites
	r.STTReads, r.STTWrites = r.L1D.STTReads, r.L1D.STTWrites
	return r
}

// SpeedupOver returns this result's IPC relative to a baseline result.
func (r Result) SpeedupOver(base Result) float64 {
	if base.IPC == 0 {
		return 0
	}
	return r.IPC / base.IPC
}

// String renders a compact human-readable report.
func (r Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s / %s on %s\n", r.GPUName, r.L1DKind, r.Workload)
	fmt.Fprintf(&b, "  cycles=%d instructions=%d IPC=%.3f\n", r.Cycles, r.Instructions, r.IPC)
	fmt.Fprintf(&b, "  L1D: accesses=%d missRate=%.3f bypasses=%d outgoing/SM=%.1f\n",
		r.L1D.Accesses, r.L1DMissRate, r.L1D.Bypasses, r.OutgoingPerSM)
	fmt.Fprintf(&b, "  stalls: sttWrite=%d tagSearch=%d mshr=%d\n",
		r.STTWriteStalls, r.TagSearchStalls, r.L1D.MSHRStallEvents)
	fmt.Fprintf(&b, "  off-chip fraction=%.2f (network %.2f, memory %.2f)\n",
		r.OffChipFraction, r.NetworkFraction, r.DRAMFraction)
	fmt.Fprintf(&b, "  L2 missRate=%.3f merged=%d mshrStalls=%d\n", r.L2MissRate, r.L2MergedFills, r.L2MSHRStalls)
	fmt.Fprintf(&b, "  DRAM[%s]: accesses=%d rowHit=%.2f queueStalls=%d energy=%.1fuJ\n",
		r.MemBackend, r.DRAMAccesses, r.DRAMRowHitRate, r.DRAMQueueStalls, r.DRAMEnergyNJ/1000)
	if r.PredTrue+r.PredFalse+r.PredNeutral > 0 {
		fmt.Fprintf(&b, "  predictor: true=%.2f neutral=%.2f false=%.2f\n", r.PredTrue, r.PredNeutral, r.PredFalse)
	}
	return b.String()
}

// RunWorkload is a convenience wrapper: build a simulator for the given L1D
// kind and workload name using the Fermi-class GPU and run it.
func RunWorkload(kind config.L1DKind, workload string, opts Options) (Result, error) {
	return RunWorkloadContext(context.Background(), kind, workload, opts)
}

// RunWorkloadContext is RunWorkload with cancellation (see RunContext). The
// name is resolved through the trace registry — builtin Table-II benchmarks
// and user-registered workloads (workload files, phased composites) alike.
func RunWorkloadContext(ctx context.Context, kind config.L1DKind, workload string, opts Options) (Result, error) {
	w, err := trace.LookupWorkload(workload)
	if err != nil {
		return Result{}, fmt.Errorf("sim: %w", err)
	}
	gpuCfg := config.FermiGPU(config.NewL1DConfig(kind))
	s, err := New(gpuCfg, w, opts)
	if err != nil {
		return Result{}, err
	}
	return s.RunContext(ctx)
}
