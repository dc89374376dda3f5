// Package config holds the simulation configuration presets of the paper's
// Table I: the baseline (Fermi/GTX480-class) GPU, the Volta-class GPU used in
// the sensitivity study, and the seven L1D cache organisations that the
// evaluation compares (L1-SRAM, FA-SRAM, By-NVM, Hybrid, Base-FUSE, FA-FUSE
// and Dy-FUSE).
package config

import (
	"errors"
	"fmt"

	"fuse/internal/dram"
	"fuse/internal/memtech"
)

// L1DKind enumerates the seven L1D cache organisations of the paper.
type L1DKind uint8

const (
	// L1SRAM is the conventional 32 KB 4-way set-associative SRAM cache.
	L1SRAM L1DKind = iota
	// FASRAM is the same SRAM capacity reorganised as a fully-associative
	// cache (unrealistically expensive; used as a reference point).
	FASRAM
	// ByNVM is a pure 128 KB STT-MRAM cache with DASCA-style dead-write
	// bypassing.
	ByNVM
	// Hybrid is a 16 KB SRAM bank plus 64 KB STT-MRAM bank without any of
	// the FUSE optimisations: STT-MRAM writes block the whole cache.
	Hybrid
	// BaseFUSE adds the swap buffer and tag queue to Hybrid so the
	// STT-MRAM bank becomes non-blocking.
	BaseFUSE
	// FAFUSE additionally organises the STT-MRAM bank as an approximately
	// fully-associative cache using counting Bloom filters.
	FAFUSE
	// DyFUSE additionally steers blocks with the read-level predictor
	// (WORM to STT-MRAM, WM to SRAM). This is the paper's full proposal.
	DyFUSE
)

// AllL1DKinds lists the seven configurations in the order the paper's figures
// present them.
var AllL1DKinds = []L1DKind{L1SRAM, ByNVM, FASRAM, Hybrid, BaseFUSE, FAFUSE, DyFUSE}

// String implements fmt.Stringer using the paper's names.
func (k L1DKind) String() string {
	switch k {
	case L1SRAM:
		return "L1-SRAM"
	case FASRAM:
		return "FA-SRAM"
	case ByNVM:
		return "By-NVM"
	case Hybrid:
		return "Hybrid"
	case BaseFUSE:
		return "Base-FUSE"
	case FAFUSE:
		return "FA-FUSE"
	case DyFUSE:
		return "Dy-FUSE"
	default:
		return fmt.Sprintf("L1DKind(%d)", uint8(k))
	}
}

// ParseL1DKind converts a paper-style configuration name into an L1DKind.
func ParseL1DKind(name string) (L1DKind, error) {
	for _, k := range AllL1DKinds {
		if k.String() == name {
			return k, nil
		}
	}
	return 0, fmt.Errorf("config: unknown L1D configuration %q", name)
}

// L1DConfig describes one L1D cache organisation.
type L1DConfig struct {
	Kind L1DKind
	// SRAMKB and STTMRAMKB are the capacities of the two banks in KB.
	// Pure-SRAM configurations have STTMRAMKB == 0 and vice versa.
	SRAMKB    int
	STTMRAMKB int
	// SRAMSets/SRAMWays describe the SRAM bank organisation.
	SRAMSets int
	SRAMWays int
	// STTSets/STTWays describe the STT-MRAM bank organisation. A
	// fully-associative (or approximately fully-associative) bank has
	// STTSets == 1 and STTWays equal to the number of blocks.
	STTSets int
	STTWays int
	// SRAMTech and STTTech are the technology parameter sets for the two
	// banks.
	SRAMTech memtech.Params
	STTTech  memtech.Params
	// SwapBufferEntries is the number of 128-byte registers in the swap
	// buffer (0 disables it, as in Hybrid).
	SwapBufferEntries int
	// TagQueueEntries is the depth of the STT-MRAM tag queue (0 disables
	// it).
	TagQueueEntries int
	// ApproxFullyAssociative enables the associativity-approximation logic
	// on the STT-MRAM bank (FA-FUSE and Dy-FUSE).
	ApproxFullyAssociative bool
	// Comparators is the number of parallel tag comparators available to
	// the approximation logic.
	Comparators int
	// CBFCount, CBFHashes and CBFSlots configure the counting Bloom
	// filters used by the approximation logic.
	CBFCount  int
	CBFHashes int
	CBFSlots  int
	// UseReadLevelPredictor enables the PC-based read-level predictor
	// (Dy-FUSE only).
	UseReadLevelPredictor bool
	// UseDeadWriteBypass enables DASCA-style dead-write bypassing (By-NVM
	// only).
	UseDeadWriteBypass bool
	// MSHREntries is the number of primary-miss entries in the MSHR.
	MSHREntries int
	// MSHRMergeWidth is the maximum number of merged (secondary) misses
	// per entry.
	MSHRMergeWidth int
	// FullyAssociativeSRAM marks FA-SRAM, which replaces the set-associative
	// SRAM lookup with a true fully-associative one.
	FullyAssociativeSRAM bool
}

// BlockBytes is the cache line size in bytes.
const BlockBytes = 128

// TotalKB returns the total L1D capacity in KB.
func (c *L1DConfig) TotalKB() int { return c.SRAMKB + c.STTMRAMKB }

// SRAMBlocks returns the number of 128-byte blocks in the SRAM bank.
func (c *L1DConfig) SRAMBlocks() int { return c.SRAMKB * 1024 / BlockBytes }

// STTBlocks returns the number of 128-byte blocks in the STT-MRAM bank.
func (c *L1DConfig) STTBlocks() int { return c.STTMRAMKB * 1024 / BlockBytes }

// Validate checks that the set/way organisation matches the bank capacities.
func (c *L1DConfig) Validate() error {
	if c.SRAMKB < 0 || c.STTMRAMKB < 0 {
		return errors.New("config: negative bank capacity")
	}
	if c.SRAMKB > 0 {
		if c.SRAMSets*c.SRAMWays != c.SRAMBlocks() {
			return fmt.Errorf("config: SRAM organisation %dx%d does not cover %d blocks",
				c.SRAMSets, c.SRAMWays, c.SRAMBlocks())
		}
	}
	if c.STTMRAMKB > 0 {
		if c.STTSets*c.STTWays != c.STTBlocks() {
			return fmt.Errorf("config: STT-MRAM organisation %dx%d does not cover %d blocks",
				c.STTSets, c.STTWays, c.STTBlocks())
		}
	}
	if c.TotalKB() == 0 {
		return errors.New("config: cache has zero capacity")
	}
	if c.MSHREntries <= 0 {
		return errors.New("config: MSHR must have at least one entry")
	}
	if c.ApproxFullyAssociative {
		if c.Comparators <= 0 || c.CBFCount <= 0 || c.CBFHashes <= 0 || c.CBFSlots <= 0 {
			return errors.New("config: approximation logic requires comparators and CBF parameters")
		}
	}
	return nil
}

// Default MSHR dimensions (GPGPU-Sim GTX480-style).
const (
	DefaultMSHREntries    = 32
	DefaultMSHRMergeWidth = 8
)

// baseHybridConfig returns the parameters shared by Hybrid, Base-FUSE,
// FA-FUSE and Dy-FUSE: a 16 KB 2-way SRAM bank plus a 64 KB STT-MRAM bank.
func baseHybridConfig(kind L1DKind) L1DConfig {
	cfg := L1DConfig{
		Kind:           kind,
		SRAMKB:         16,
		STTMRAMKB:      64,
		SRAMSets:       64,
		SRAMWays:       2,
		STTSets:        256,
		STTWays:        2,
		SRAMTech:       memtech.SmallSRAMParams(16),
		STTTech:        memtech.STTMRAMParams(64),
		MSHREntries:    DefaultMSHREntries,
		MSHRMergeWidth: DefaultMSHRMergeWidth,
	}
	return cfg
}

// NewL1DConfig builds the Table I configuration for the requested kind.
func NewL1DConfig(kind L1DKind) L1DConfig {
	switch kind {
	case L1SRAM:
		return L1DConfig{
			Kind:           L1SRAM,
			SRAMKB:         32,
			SRAMSets:       64,
			SRAMWays:       4,
			SRAMTech:       memtech.SRAMParams(32),
			MSHREntries:    DefaultMSHREntries,
			MSHRMergeWidth: DefaultMSHRMergeWidth,
		}
	case FASRAM:
		return L1DConfig{
			Kind:                 FASRAM,
			SRAMKB:               32,
			SRAMSets:             1,
			SRAMWays:             256,
			SRAMTech:             memtech.SRAMParams(32),
			FullyAssociativeSRAM: true,
			MSHREntries:          DefaultMSHREntries,
			MSHRMergeWidth:       DefaultMSHRMergeWidth,
		}
	case ByNVM:
		return L1DConfig{
			Kind:               ByNVM,
			STTMRAMKB:          128,
			STTSets:            256,
			STTWays:            4,
			STTTech:            memtech.PureSTTMRAMParams(128),
			UseDeadWriteBypass: true,
			MSHREntries:        DefaultMSHREntries,
			MSHRMergeWidth:     DefaultMSHRMergeWidth,
		}
	case Hybrid:
		return baseHybridConfig(Hybrid)
	case BaseFUSE:
		cfg := baseHybridConfig(BaseFUSE)
		cfg.SwapBufferEntries = 3
		cfg.TagQueueEntries = 16
		return cfg
	case FAFUSE:
		cfg := baseHybridConfig(FAFUSE)
		cfg.SwapBufferEntries = 3
		cfg.TagQueueEntries = 16
		cfg.STTSets = 1
		cfg.STTWays = cfg.STTBlocks()
		cfg.ApproxFullyAssociative = true
		cfg.Comparators = 4
		cfg.CBFCount = 128
		cfg.CBFHashes = 3
		cfg.CBFSlots = 128
		return cfg
	case DyFUSE:
		cfg := NewL1DConfig(FAFUSE)
		cfg.Kind = DyFUSE
		cfg.UseReadLevelPredictor = true
		return cfg
	default:
		panic(fmt.Sprintf("config: unknown L1D kind %d", kind))
	}
}

// WithRatio reconfigures a FUSE-style hybrid cache so that `sramFraction` of
// the total L1D capacity is SRAM and the rest is STT-MRAM, mirroring the
// Figure 18 sensitivity sweep. The total area budget (that of the 32 KB SRAM
// L1D) is preserved: SRAM costs ~4x the area of STT-MRAM per byte, so
// sramKB + sttKB/4 == 32.
func WithRatio(kind L1DKind, sramFraction float64) (L1DConfig, error) {
	if sramFraction <= 0 || sramFraction >= 1 {
		return L1DConfig{}, fmt.Errorf("config: SRAM fraction %v out of (0,1)", sramFraction)
	}
	if kind != Hybrid && kind != BaseFUSE && kind != FAFUSE && kind != DyFUSE {
		return L1DConfig{}, fmt.Errorf("config: ratio sweep only applies to hybrid kinds, got %v", kind)
	}
	// Solve sramKB + sttKB/4 = 32 with sramKB = f*(sramKB+sttKB).
	// Let total = sramKB + sttKB. Then f*total + (1-f)*total/4 = 32.
	total := 32.0 / (sramFraction + (1-sramFraction)/4)
	sramKB := int(total*sramFraction + 0.5)
	sttKB := int(total*(1-sramFraction) + 0.5)
	// Round to block multiples of at least 1 KB and powers-of-two sets.
	if sramKB < 1 {
		sramKB = 1
	}
	if sttKB < 1 {
		sttKB = 1
	}
	cfg := NewL1DConfig(kind)
	cfg.SRAMKB = sramKB
	cfg.STTMRAMKB = sttKB
	cfg.SRAMWays = 2
	cfg.SRAMSets = cfg.SRAMBlocks() / cfg.SRAMWays
	if cfg.SRAMSets == 0 {
		cfg.SRAMSets = 1
		cfg.SRAMWays = cfg.SRAMBlocks()
	}
	if cfg.ApproxFullyAssociative {
		cfg.STTSets = 1
		cfg.STTWays = cfg.STTBlocks()
	} else {
		cfg.STTWays = 2
		cfg.STTSets = cfg.STTBlocks() / cfg.STTWays
	}
	cfg.SRAMTech = memtech.SmallSRAMParams(sramKB)
	cfg.STTTech = memtech.STTMRAMParams(sttKB)
	return cfg, nil
}

// GPUConfig describes the whole simulated GPU.
//
// It is serialised verbatim into the content-addressed result-store key
// (store.Key), with its memory fields resolved by WithMemDefaults, so every
// field must change the key. TestKeyDeterministicAndSensitive (internal/store)
// perturbs each field in turn and fails if one does not.
type GPUConfig struct {
	// Name labels the configuration ("Fermi-like", "Volta-like").
	Name string
	// SMs is the number of streaming multiprocessors.
	SMs int
	// WarpsPerSM is the number of resident warps per SM.
	WarpsPerSM int
	// ThreadsPerWarp is the SIMT width.
	ThreadsPerWarp int
	// CoreClockMHz is the SM clock.
	CoreClockMHz float64
	// L1D is the L1D cache configuration used by every SM.
	L1D L1DConfig
	// L2Banks is the number of shared L2 cache banks (NoC endpoints).
	L2Banks int
	// L2KBTotal is the total L2 capacity in KB.
	L2KBTotal int
	// L2Ways is the L2 associativity.
	L2Ways int
	// L2LatencyCycles is the L2 bank access latency.
	L2LatencyCycles int
	// DRAMChannels is the number of off-chip memory channels.
	DRAMChannels int
	// DRAMBanksPerChannel is the number of DRAM banks per channel.
	DRAMBanksPerChannel int
	// DRAMRowBytes is the row-buffer size per bank in bytes.
	DRAMRowBytes int
	// DRAM timing parameters in DRAM-clock cycles (honoured by the GDDR5
	// baseline backend; other backends own their timing).
	TCL, TRCD, TRAS, TRP int
	// DRAMBurstCycles is the data transfer time of one 128-byte block.
	DRAMBurstCycles int
	// DRAMQueueDepth is the per-channel request queue depth.
	DRAMQueueDepth int
	// MemBackend selects the off-chip memory technology behind the
	// controller (see dram.Backends); empty means the GDDR5 baseline.
	MemBackend string
	// NoCLatencyPerHop is the router traversal latency in cycles.
	NoCLatencyPerHop int
	// NoCFlitBytes is the link width in bytes per cycle.
	NoCFlitBytes int
	// MaxCTAsPerSM bounds concurrent thread blocks per SM.
	MaxCTAsPerSM int
}

// Validate performs basic sanity checks.
func (g *GPUConfig) Validate() error {
	if g.SMs <= 0 || g.WarpsPerSM <= 0 || g.ThreadsPerWarp <= 0 {
		return errors.New("config: SM/warp/thread counts must be positive")
	}
	if g.L2Banks <= 0 || g.DRAMChannels <= 0 {
		return errors.New("config: L2 banks and DRAM channels must be positive")
	}
	if g.L2Banks%g.DRAMChannels != 0 {
		return fmt.Errorf("config: %d L2 banks must divide evenly across %d DRAM channels", g.L2Banks, g.DRAMChannels)
	}
	if g.DRAMBanksPerChannel < 0 || g.DRAMRowBytes < 0 || g.DRAMBurstCycles < 0 || g.DRAMQueueDepth < 0 {
		return errors.New("config: DRAM geometry must be non-negative")
	}
	if _, err := dram.BackendByName(g.MemBackend); err != nil {
		return fmt.Errorf("config: %w", err)
	}
	return g.L1D.Validate()
}

// WithMemDefaults returns a copy with the off-chip memory fields resolved
// exactly as the memory controller would resolve them (backend name
// normalised, zero geometry defaulted, timing taken from the backend). Two
// configs describing the same controller then encode identically — the
// result store canonicalises its keys with this, so e.g. MemBackend "" and
// "GDDR5" address the same stored result. A config whose backend name is
// invalid is returned unchanged (its key is unreachable anyway: Validate
// rejects it before simulation).
func (g GPUConfig) WithMemDefaults() GPUConfig {
	resolved, err := dram.Config{
		Channels:        g.DRAMChannels,
		BanksPerChannel: g.DRAMBanksPerChannel,
		RowBytes:        g.DRAMRowBytes,
		TCL:             g.TCL,
		TRCD:            g.TRCD,
		TRP:             g.TRP,
		TRAS:            g.TRAS,
		BurstCycles:     g.DRAMBurstCycles,
		QueueDepth:      g.DRAMQueueDepth,
		Backend:         g.MemBackend,
	}.Resolve()
	if err != nil {
		return g
	}
	g.DRAMChannels = resolved.Channels
	g.DRAMBanksPerChannel = resolved.BanksPerChannel
	g.DRAMRowBytes = resolved.RowBytes
	g.TCL, g.TRCD, g.TRP, g.TRAS = resolved.TCL, resolved.TRCD, resolved.TRP, resolved.TRAS
	g.DRAMBurstCycles = resolved.BurstCycles
	g.DRAMQueueDepth = resolved.QueueDepth
	g.MemBackend = resolved.Backend
	return g
}

// FermiGPU returns the paper's baseline GPU model (Table I): 15 SMs, 48
// warps/SM, butterfly NoC with 27 nodes (15 SMs + 12 L2 banks), 786 KB L2 and
// 6 GDDR5 channels.
func FermiGPU(l1d L1DConfig) GPUConfig {
	return GPUConfig{
		Name:                "Fermi-like",
		SMs:                 15,
		WarpsPerSM:          48,
		ThreadsPerWarp:      32,
		CoreClockMHz:        1400,
		L1D:                 l1d,
		L2Banks:             12,
		L2KBTotal:           786,
		L2Ways:              8,
		L2LatencyCycles:     30,
		DRAMChannels:        6,
		DRAMBanksPerChannel: 8,
		DRAMRowBytes:        2048,
		TCL:                 12,
		TRCD:                12,
		TRAS:                28,
		TRP:                 12,
		DRAMBurstCycles:     4,
		DRAMQueueDepth:      16,
		MemBackend:          dram.DefaultBackend,
		NoCLatencyPerHop:    4,
		NoCFlitBytes:        32,
		MaxCTAsPerSM:        8,
	}
}

// VoltaGPU returns the Volta-class configuration used by the paper's
// sensitivity study: 84 SMs, 6 MB L2 and a 128 KB L1 budget per SM.
func VoltaGPU(l1d L1DConfig) GPUConfig {
	g := FermiGPU(l1d)
	g.Name = "Volta-like"
	g.SMs = 84
	g.L2Banks = 24
	g.L2KBTotal = 6144
	g.DRAMChannels = 8
	// 900 GB/s HBM2-class memory: the HBM2 backend, more channels with more
	// banks each and 1 KB rows. Timing (including the 2-cycle burst on the
	// very wide interface) comes from the backend itself — the inherited
	// Fermi TCL/TRCD/TRP/TRAS fields are ignored for non-GDDR5 backends.
	g.MemBackend = "HBM2"
	g.DRAMBanksPerChannel = 16
	g.DRAMRowBytes = 1024
	g.NoCFlitBytes = 64
	return g
}

// ScaleL1D scales an L1D configuration's capacity by the given factor,
// preserving associativity. Used to build the Volta 128 KB L1 variants and
// the "Oracle" cache of the motivation study.
func ScaleL1D(cfg L1DConfig, factor int) L1DConfig {
	if factor <= 1 {
		return cfg
	}
	out := cfg
	out.SRAMKB *= factor
	out.STTMRAMKB *= factor
	if out.SRAMKB > 0 {
		if out.FullyAssociativeSRAM {
			out.SRAMSets = 1
			out.SRAMWays = out.SRAMBlocks()
		} else {
			out.SRAMSets *= factor
		}
		out.SRAMTech = memtech.SRAMParams(out.SRAMKB)
	}
	if out.STTMRAMKB > 0 {
		if out.ApproxFullyAssociative {
			out.STTSets = 1
			out.STTWays = out.STTBlocks()
		} else {
			out.STTSets *= factor
		}
	}
	return out
}

// OracleL1D returns an idealised SRAM cache large enough to avoid thrashing
// for the motivation study (Figure 3's "Oracle GPU").
func OracleL1D() L1DConfig {
	cfg := NewL1DConfig(L1SRAM)
	return ScaleL1D(cfg, 64) // 2 MB per SM: effectively infinite for our footprints
}
