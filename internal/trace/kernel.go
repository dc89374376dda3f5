package trace

import (
	"slices"

	"fuse/internal/mem"
)

// Instruction is one dynamic instruction of the synthetic kernel. Non-memory
// instructions model the compute work between loads and stores; memory
// instructions carry the (already coalesced, 128-byte) address and the PC of
// the static load/store that issued them.
type Instruction struct {
	PC    uint64
	IsMem bool
	Kind  mem.AccessKind
	Addr  uint64
}

// rngState is a splitmix64 pseudo-random generator: tiny, fast and
// deterministic, which keeps every experiment reproducible without touching
// math/rand's global state.
type rngState uint64

func newRNG(seed uint64) *rngState {
	s := rngState(seed*0x9E3779B97F4A7C15 + 0x5851F42D4C957F2D)
	return &s
}

func (s *rngState) next() uint64 {
	*s += 0x9E3779B97F4A7C15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// float returns a uniform float64 in [0,1).
func (s *rngState) float() float64 {
	return float64(s.next()>>11) / float64(1<<53)
}

// intn returns a uniform integer in [0,n).
func (s *rngState) intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(s.next() % uint64(n))
}

// scatter is a 64-bit mixing permutation used to turn sequential block
// indices into scattered addresses for irregular workloads.
func scatter(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 29
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 32
	return x
}

// Per-category static parameters.
const (
	// threadsPerWarp converts the paper's per-thread-instruction APKI into a
	// per-warp-instruction memory fraction: one coalesced 128-byte access
	// serves the loads of all 32 threads of a warp, so a workload with APKI
	// a issues roughly a*32/1000 memory operations per warp instruction.
	threadsPerWarp = 32
	// maxMemFraction caps the warp-level memory fraction: even the most
	// memory-bound kernels interleave address arithmetic and control
	// instructions between loads.
	maxMemFraction = 0.6
	// referenceWarps is the warp count the per-warp working sets are sized
	// for (the paper's 48 resident warps per SM): the aggregate per-SM
	// working set is WorkingSetBlocks regardless of how many warps the
	// caller actually drives.
	referenceWarps = 48

	wmHotBlocks       = 24 // instantaneous size of the shared write-multiple hot set
	wmWriteProb       = 0.75
	wmReplaceProb     = 1.0 / 16 // expected ~16 accesses per WM block before it rotates out
	riWriteProb       = 0.10
	riReplaceProb     = 0.125 // expected ~8 accesses per read-intensive block
	categoryCount     = 4
	pcsPerCategory    = 4
	aluPCCount        = 8
	addressSpacePerSM = 1 << 40
)

// wormSlot is one entry of a warp's WORM working-set window.
type wormSlot struct {
	block   uint64
	written bool
	reads   int
}

// warpRegions is the per-warp private working state: real GPU kernels assign
// each warp its own tile/rows, so a warp re-references the blocks it touched
// recently (short per-warp reuse distance) while the union over all resident
// warps is the large per-SM working set that thrashes small caches.
type warpRegions struct {
	riWindow   []uint64
	riNext     uint64
	wormWindow []wormSlot
	wormNext   uint64
	woroNext   uint64
}

// Kernel generates the memory-reference stream of one benchmark on one SM.
// The write-multiple hot set is shared by all warps (accumulation buffers,
// histogram bins); the WORM / read-intensive / streaming regions are private
// per warp.
type Kernel struct {
	prof Profile
	sm   int
	rng  *rngState

	// Cumulative access-probability thresholds per category
	// (WM, read-intensive, WORM, WORO).
	accessCum [categoryCount]float64
	memProb   float64

	// Static PCs: one small set per category plus ALU PCs.
	memPCs [categoryCount][pcsPerCategory]uint64
	aluPCs [aluPCCount]uint64
	aluIdx int

	base uint64

	// Shared write-multiple hot set.
	wmBlocks []uint64
	wmNext   uint64

	// Per-warp private regions indexed by warp, created lazily (nil until
	// the warp's first memory reference).
	warps []*warpRegions

	// Per-warp window sizes derived from the profile.
	riWindowSize   int
	wormWindowSize int

	generated uint64
	memCount  uint64
}

// NewKernel instantiates the benchmark on one SM with a deterministic seed.
func NewKernel(prof Profile, sm int, seed uint64) *Kernel {
	k := &Kernel{
		prof: prof,
		sm:   sm,
		rng:  newRNG(seed ^ uint64(sm)*0x9E3779B97F4A7C15 ^ hashName(prof.Name)),
		base: uint64(sm) * addressSpacePerSM,
	}
	k.memProb = prof.APKI * threadsPerWarp / 1000.0
	if k.memProb > maxMemFraction {
		k.memProb = maxMemFraction
	}

	// Convert the block mix into per-access probabilities by weighting each
	// category with its expected accesses per block.
	perBlock := [categoryCount]float64{
		16,                          // WM blocks are written over and over
		8,                           // read-intensive
		float64(1 + prof.WORMReuse), // WORM: one write + reuse reads
		1,                           // WORO
	}
	weights := [categoryCount]float64{
		prof.Mix.WM * perBlock[0],
		prof.Mix.ReadIntensive * perBlock[1],
		prof.Mix.WORM * perBlock[2],
		prof.Mix.WORO * perBlock[3],
	}
	total := 0.0
	for _, w := range weights {
		total += w
	}
	cum := 0.0
	for i, w := range weights {
		if total > 0 {
			cum += w / total
		}
		k.accessCum[i] = cum
	}
	k.accessCum[categoryCount-1] = 1

	// Static PCs: deterministic per benchmark so the PC-indexed predictors
	// see stable signatures.
	pcBase := (hashName(prof.Name) & 0xffff) << 8
	for c := 0; c < categoryCount; c++ {
		for i := 0; i < pcsPerCategory; i++ {
			k.memPCs[c][i] = pcBase + uint64(c*pcsPerCategory+i)*4
		}
	}
	for i := range k.aluPCs {
		k.aluPCs[i] = pcBase + 0x1000 + uint64(i)*4
	}

	// Shared WM hot set.
	k.wmBlocks = make([]uint64, wmHotBlocks)
	for i := range k.wmBlocks {
		k.wmBlocks[i] = k.blockAddr(1, uint64(i))
	}
	k.wmNext = uint64(wmHotBlocks)

	// Per-warp window sizes: the union over the reference warp count equals
	// the profile's per-SM working set.
	k.wormWindowSize = prof.WorkingSetBlocks / referenceWarps
	if k.wormWindowSize < 2 {
		k.wormWindowSize = 2
	}
	k.riWindowSize = prof.WorkingSetBlocks / 4 / referenceWarps
	if k.riWindowSize < 2 {
		k.riWindowSize = 2
	}
	return k
}

// hashName derives a stable 64-bit hash from the benchmark name.
func hashName(name string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return h
}

// blockAddr computes the byte address of logical block `idx` in category
// region `region`, scattering it when the profile is irregular.
func (k *Kernel) blockAddr(region int, idx uint64) uint64 {
	logical := idx
	if k.prof.Irregular > 0 && k.rng.float() < k.prof.Irregular {
		logical = scatter(idx^uint64(region)<<40) % (1 << 24)
	}
	regionBase := k.base + uint64(region)<<32
	return regionBase + logical*mem.BlockSize
}

// warpState returns (creating on first use) the private regions of a warp.
func (k *Kernel) warpState(warp int) *warpRegions {
	if warp < len(k.warps) && k.warps[warp] != nil {
		return k.warps[warp]
	}
	if warp >= len(k.warps) {
		k.warps = slices.Grow(k.warps, warp+1-len(k.warps))[:warp+1]
	}
	w := &warpRegions{}
	// Each warp owns a disjoint slice of the index space.
	warpBase := uint64(warp) << 26
	w.riWindow = make([]uint64, k.riWindowSize)
	for i := range w.riWindow {
		w.riWindow[i] = k.blockAddr(2, warpBase+uint64(i))
	}
	w.riNext = warpBase + uint64(k.riWindowSize)
	w.wormWindow = make([]wormSlot, k.wormWindowSize)
	for i := range w.wormWindow {
		w.wormWindow[i] = wormSlot{block: k.blockAddr(3, warpBase+uint64(i))}
	}
	w.wormNext = warpBase + uint64(k.wormWindowSize)
	w.woroNext = warpBase
	k.warps[warp] = w
	return w
}

// MeasuredAPKI returns the accesses-per-kilo-thread-instruction of the
// generated stream so far (the Table II metric): warp-level memory fraction
// divided by the threads-per-warp scaling.
func (k *Kernel) MeasuredAPKI() float64 {
	if k.generated == 0 {
		return 0
	}
	return float64(k.memCount) / float64(k.generated) * 1000 / threadsPerWarp
}

// Next produces the next dynamic instruction for the given warp.
func (k *Kernel) Next(warp int) Instruction {
	k.generated++
	if k.rng.float() >= k.memProb {
		k.aluIdx = (k.aluIdx + 1 + warp) % aluPCCount
		return Instruction{PC: k.aluPCs[k.aluIdx], IsMem: false}
	}
	k.memCount++
	r := k.rng.float()
	switch {
	case r < k.accessCum[0]:
		return k.nextWM()
	case r < k.accessCum[1]:
		return k.nextRI(warp)
	case r < k.accessCum[2]:
		return k.nextWORM(warp)
	default:
		return k.nextWORO(warp)
	}
}

// nextWM produces an access to the shared write-multiple hot set. The hot set
// stays small at any instant but slowly rotates (fresh output tiles replacing
// finished ones), so the number of distinct WM blocks over a run tracks the
// profile's WM mix fraction.
func (k *Kernel) nextWM() Instruction {
	i := k.rng.intn(len(k.wmBlocks))
	if k.rng.float() < wmReplaceProb {
		k.wmBlocks[i] = k.blockAddr(1, k.wmNext)
		k.wmNext++
	}
	addr := k.wmBlocks[i]
	kind := mem.Read
	if k.rng.float() < wmWriteProb {
		kind = mem.Write
	}
	return Instruction{PC: k.pcFor(0), IsMem: true, Kind: kind, Addr: addr}
}

// nextRI produces an access to the warp's read-intensive window, slowly
// streaming new blocks through it.
func (k *Kernel) nextRI(warp int) Instruction {
	w := k.warpState(warp)
	i := k.rng.intn(len(w.riWindow))
	if k.rng.float() < riReplaceProb {
		w.riWindow[i] = k.blockAddr(2, w.riNext)
		w.riNext++
	}
	addr := w.riWindow[i]
	kind := mem.Read
	if k.rng.float() < riWriteProb {
		kind = mem.Write
	}
	return Instruction{PC: k.pcFor(1), IsMem: true, Kind: kind, Addr: addr}
}

// nextWORM produces an access to the warp's WORM window: the first touch of a
// block is its single write, subsequent touches are reads, and a block is
// retired from the window once it has been read enough times.
func (k *Kernel) nextWORM(warp int) Instruction {
	w := k.warpState(warp)
	i := k.rng.intn(len(w.wormWindow))
	slot := &w.wormWindow[i]
	if !slot.written {
		slot.written = true
		return Instruction{PC: k.pcFor(2), IsMem: true, Kind: mem.Write, Addr: slot.block}
	}
	addr := slot.block
	slot.reads++
	if slot.reads >= k.prof.WORMReuse {
		*slot = wormSlot{block: k.blockAddr(3, w.wormNext)}
		w.wormNext++
	}
	return Instruction{PC: k.pcFor(2), IsMem: true, Kind: mem.Read, Addr: addr}
}

// nextWORO produces a streaming access that will never be re-referenced.
func (k *Kernel) nextWORO(warp int) Instruction {
	w := k.warpState(warp)
	idx := w.woroNext
	w.woroNext++
	addr := k.blockAddr(4, idx)
	kind := mem.Read
	if k.rng.float() < 0.5 {
		kind = mem.Write
	}
	return Instruction{PC: k.pcFor(3), IsMem: true, Kind: kind, Addr: addr}
}

// pcFor picks one of the category's static PCs.
func (k *Kernel) pcFor(category int) uint64 {
	return k.memPCs[category][k.rng.intn(pcsPerCategory)]
}

// BlockProfile summarises the per-block behaviour of a generated stream: it
// is the measurement behind the Figure 6 read-level analysis.
type BlockProfile struct {
	// Fractions of blocks per category, in the order WM, read-intensive,
	// WORM, WORO.
	Fractions [mem.ReadLevelCount]float64
	// Blocks is the number of distinct blocks observed.
	Blocks int
	// WriteFraction is the fraction of accesses that were writes.
	WriteFraction float64
	// MeasuredAPKI is the accesses-per-kilo-thread-instruction of the stream.
	MeasuredAPKI float64
}

// AnalyzeProfile generates `instructions` dynamic instructions from the
// benchmark (on a single SM, interleaving the reference warp count) and
// classifies every touched block, reproducing the read-level analysis of
// Figure 6.
func AnalyzeProfile(prof Profile, instructions int, seed uint64) BlockProfile {
	k := NewKernel(prof, 0, seed)
	type counts struct{ reads, writes uint64 }
	blocks := make(map[uint64]*counts)
	var writes, accesses uint64
	for i := 0; i < instructions; i++ {
		ins := k.Next(i % referenceWarps)
		if !ins.IsMem {
			continue
		}
		accesses++
		b := mem.BlockAlign(ins.Addr)
		c := blocks[b]
		if c == nil {
			c = &counts{}
			blocks[b] = c
		}
		if ins.Kind == mem.Write {
			c.writes++
			writes++
		} else {
			c.reads++
		}
	}
	var out BlockProfile
	out.Blocks = len(blocks)
	if out.Blocks == 0 {
		return out
	}
	// Map order cannot reach the output: +1 increments into category slots
	// are exact float adds, order-insensitive.
	for _, c := range blocks {
		out.Fractions[Classify(c.writes, c.reads)] += 1
	}
	for i := range out.Fractions {
		out.Fractions[i] /= float64(out.Blocks)
	}
	if accesses > 0 {
		out.WriteFraction = float64(writes) / float64(accesses)
	}
	out.MeasuredAPKI = k.MeasuredAPKI()
	return out
}
