package trace

import (
	"testing"
	"testing/quick"

	"fuse/internal/mem"
)

func TestProfilesValidate(t *testing.T) {
	ps := Profiles()
	if len(ps) != 21 {
		t.Fatalf("paper evaluates 21 workloads, got %d", len(ps))
	}
	for _, p := range ps {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
}

func TestProfileByName(t *testing.T) {
	for _, name := range Names() {
		p, ok := ProfileByName(name)
		if !ok || p.Name != name {
			t.Errorf("ProfileByName(%q) failed", name)
		}
	}
	if _, ok := ProfileByName("does-not-exist"); ok {
		t.Errorf("unknown name should not resolve")
	}
	if len(Names()) != 21 {
		t.Errorf("Names() should list 21 workloads")
	}
}

func TestWorkloadSubsets(t *testing.T) {
	check := func(names []string, want int, label string) {
		if len(names) != want {
			t.Errorf("%s should have %d workloads, got %d", label, want, len(names))
		}
		for _, n := range names {
			if _, ok := ProfileByName(n); !ok {
				t.Errorf("%s references unknown workload %q", label, n)
			}
		}
	}
	check(MotivationWorkloads(), 7, "Figure 3 motivation set")
	check(RatioSweepWorkloads(), 9, "Figure 18 ratio sweep set")
	check(CBFStudyWorkloads(), 9, "Figure 20 CBF study set")
}

func TestSuites(t *testing.T) {
	suites := Suites()
	if len(suites) != 4 {
		t.Fatalf("expected 4 suites (PolyBench, Rodinia, Parboil, Mars), got %v", suites)
	}
	total := 0
	for _, s := range suites {
		names := BySuite(s)
		if len(names) == 0 {
			t.Errorf("suite %s has no workloads", s)
		}
		total += len(names)
	}
	if total != 21 {
		t.Errorf("suites should partition the 21 workloads, got %d", total)
	}
}

func TestValidateRejectsBadProfiles(t *testing.T) {
	good, _ := ProfileByName("ATAX")
	cases := []func(p *Profile){
		func(p *Profile) { p.Name = "" },
		func(p *Profile) { p.APKI = 0 },
		func(p *Profile) { p.Mix.WORM += 0.5 },
		func(p *Profile) { p.WorkingSetBlocks = 0 },
		func(p *Profile) { p.Irregular = 1.5 },
		func(p *Profile) { p.WORMReuse = 0 },
		// Working sets the generator cannot hold: one past the cap, and a
		// size whose per-warp window overflows makeslice.
		func(p *Profile) { p.WorkingSetBlocks = maxWorkingSetBlocks + 1 },
		func(p *Profile) { p.WorkingSetBlocks = 1 << 62 },
		// A negative fraction, although the mix still sums to 1.
		func(p *Profile) { p.Mix = ReadLevelMix{WM: 2, WORM: -1} },
		func(p *Profile) { p.Mix.WORM += p.Mix.WORO + 0.1; p.Mix.WORO = -0.1 },
	}
	for i, mutate := range cases {
		p := good
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
	atCap := good
	atCap.WorkingSetBlocks = maxWorkingSetBlocks
	if err := atCap.Validate(); err != nil {
		t.Errorf("a working set at the cap must stay valid: %v", err)
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		writes, reads uint64
		want          mem.ReadLevel
	}{
		{0, 1, mem.WORO},
		{1, 0, mem.WORO},
		{0, 0, mem.WORO},
		{1, 4, mem.WORM},
		{0, 3, mem.WORM},
		{3, 1, mem.WriteMultiple},
		{2, 2, mem.WriteMultiple},
		{2, 8, mem.ReadIntensive},
	}
	for _, c := range cases {
		if got := Classify(c.writes, c.reads); got != c.want {
			t.Errorf("Classify(%d writes, %d reads) = %v, want %v", c.writes, c.reads, got, c.want)
		}
	}
}

func TestKernelDeterminism(t *testing.T) {
	prof, _ := ProfileByName("ATAX")
	k1 := NewKernel(prof, 3, 42)
	k2 := NewKernel(prof, 3, 42)
	for i := 0; i < 5000; i++ {
		a := k1.Next(i % 48)
		b := k2.Next(i % 48)
		if a != b {
			t.Fatalf("kernel generation must be deterministic, diverged at %d: %+v vs %+v", i, a, b)
		}
	}
	// Different SMs see different addresses.
	k3 := NewKernel(prof, 4, 42)
	same := 0
	for i := 0; i < 2000; i++ {
		a := k1.Next(0)
		b := k3.Next(0)
		if a.IsMem && b.IsMem && a.Addr == b.Addr {
			same++
		}
	}
	if same > 100 {
		t.Errorf("different SMs should mostly touch different data, %d collisions", same)
	}
}

func TestKernelAPKIMatchesProfile(t *testing.T) {
	// The measured per-thread APKI should track the Table II value up to the
	// warp-level memory-fraction cap (very memory-intensive kernels saturate
	// the single load/store port).
	const capAPKI = maxMemFraction * 1000 / threadsPerWarp
	for _, name := range []string{"2DCONV", "ATAX", "GEMM", "pathf", "SM"} {
		prof, _ := ProfileByName(name)
		k := NewKernel(prof, 0, 7)
		const n = 200000
		for i := 0; i < n; i++ {
			k.Next(i % 48)
		}
		got := k.MeasuredAPKI()
		want := prof.APKI
		if want > capAPKI {
			want = capAPKI
		}
		if got < want*0.8 || got > want*1.2 {
			t.Errorf("%s: measured APKI %.1f far from expected %.1f", name, got, want)
		}
		if k.generated != n {
			t.Errorf("%s: generated %d instructions, want %d", name, k.generated, n)
		}
		if k.memCount == 0 {
			t.Errorf("%s: no memory accesses generated", name)
		}
		if frac := float64(k.memCount) / float64(k.generated); frac <= 0 || frac > maxMemFraction+0.05 {
			t.Errorf("%s: memory fraction %.2f out of range", name, frac)
		}
	}
	// Relative ordering survives the cap: pathf is far less memory-intensive
	// than ATAX.
	light, _ := ProfileByName("pathf")
	heavy, _ := ProfileByName("ATAX")
	kl := NewKernel(light, 0, 7)
	kh := NewKernel(heavy, 0, 7)
	for i := 0; i < 100000; i++ {
		kl.Next(i % 48)
		kh.Next(i % 48)
	}
	if kl.memCount >= kh.memCount {
		t.Errorf("pathf should be less memory-intensive than ATAX: %d vs %d memory instructions in %d",
			kl.memCount, kh.memCount, kl.generated)
	}
}

func TestKernelAddressesAreBlockRepresentable(t *testing.T) {
	prof, _ := ProfileByName("GEMM")
	k := NewKernel(prof, 2, 1)
	for i := 0; i < 20000; i++ {
		ins := k.Next(i % 48)
		if !ins.IsMem {
			if ins.PC == 0 {
				t.Fatalf("ALU instructions should carry a PC")
			}
			continue
		}
		if ins.PC == 0 {
			t.Fatalf("memory instructions should carry a PC")
		}
		if ins.Addr%mem.BlockSize != 0 {
			t.Fatalf("generated addresses should be block-aligned, got %#x", ins.Addr)
		}
	}
}

func TestAnalyzeProfileWORMDominates(t *testing.T) {
	// The paper's central observation (Figure 6): the overwhelming majority
	// of blocks are WORM/WORO, i.e. written at most once.
	for _, name := range []string{"ATAX", "GESUM", "2DCONV", "GEMM"} {
		prof, _ := ProfileByName(name)
		bp := AnalyzeProfile(prof, 400000, 11)
		if bp.Blocks == 0 {
			t.Fatalf("%s: no blocks analysed", name)
		}
		worm := bp.Fractions[mem.WORM] + bp.Fractions[mem.WORO]
		if worm < 0.6 {
			t.Errorf("%s: WORM+WORO fraction = %.2f, expected the paper's write-once-dominated mix", name, worm)
		}
		sum := 0.0
		for _, f := range bp.Fractions {
			sum += f
		}
		if sum < 0.999 || sum > 1.001 {
			t.Errorf("%s: fractions should sum to 1, got %v", name, sum)
		}
	}
}

func TestAnalyzeProfileWriteHeavyWorkloads(t *testing.T) {
	// 2MM/3MM and the MapReduce workloads carry a much larger WM fraction
	// than the irregular PolyBench kernels.
	wmOf := func(name string) float64 {
		prof, _ := ProfileByName(name)
		return AnalyzeProfile(prof, 400000, 13).Fractions[mem.WriteMultiple]
	}
	if wmOf("2MM") <= wmOf("ATAX") {
		t.Errorf("2MM should have more write-multiple blocks than ATAX: %v vs %v", wmOf("2MM"), wmOf("ATAX"))
	}
	if wmOf("PVC") <= wmOf("GESUM") {
		t.Errorf("PVC should have more write-multiple blocks than GESUM: %v vs %v", wmOf("PVC"), wmOf("GESUM"))
	}
}

func TestAnalyzeProfileEmptyStream(t *testing.T) {
	prof, _ := ProfileByName("pathf")
	bp := AnalyzeProfile(prof, 0, 1)
	if bp.Blocks != 0 {
		t.Errorf("zero instructions should touch zero blocks")
	}
}

func TestScatterIsPermutationLike(t *testing.T) {
	// scatter must be deterministic and spread nearby indices far apart.
	prop := func(x uint32) bool {
		a := scatter(uint64(x))
		b := scatter(uint64(x))
		return a == b
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
	collisions := 0
	seen := map[uint64]bool{}
	for i := uint64(0); i < 10000; i++ {
		v := scatter(i) % (1 << 22)
		if seen[v] {
			collisions++
		}
		seen[v] = true
	}
	if collisions > 100 {
		t.Errorf("scatter produced %d collisions in 10000 samples", collisions)
	}
}

func TestRNGDeterminismAndRange(t *testing.T) {
	r1 := newRNG(99)
	r2 := newRNG(99)
	for i := 0; i < 1000; i++ {
		if r1.next() != r2.next() {
			t.Fatalf("rng must be deterministic")
		}
	}
	r := newRNG(5)
	for i := 0; i < 1000; i++ {
		f := r.float()
		if f < 0 || f >= 1 {
			t.Fatalf("float out of range: %v", f)
		}
		n := r.intn(10)
		if n < 0 || n >= 10 {
			t.Fatalf("intn out of range: %d", n)
		}
	}
	if r.intn(0) != 0 || r.intn(-5) != 0 {
		t.Errorf("intn of non-positive bound should be 0")
	}
}

func TestMixSum(t *testing.T) {
	m := ReadLevelMix{0.1, 0.2, 0.3, 0.4}
	if m.Sum() != 1.0 {
		t.Errorf("Sum = %v", m.Sum())
	}
}
