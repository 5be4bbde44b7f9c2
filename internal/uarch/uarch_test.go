package uarch

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"elfie/internal/asm"
	"elfie/internal/isa"
	"elfie/internal/kernel"
	"elfie/internal/vm"
	"elfie/internal/workloads"
)

func TestCacheBasics(t *testing.T) {
	c := NewCache(CacheCfg{SizeBytes: 4096, Ways: 4, LatCycles: 1})
	if c.Access(0x1000) {
		t.Error("cold access hit")
	}
	if !c.Access(0x1000) || !c.Access(0x1030) {
		t.Error("warm access missed (same line?)")
	}
	if c.Access(0x2000) {
		t.Error("different line hit")
	}
	if c.MissRate() != 0.5 {
		t.Errorf("miss rate = %v", c.MissRate())
	}
	c.Invalidate(0x1000)
	if c.Lookup(0x1000) {
		t.Error("line survived invalidation")
	}
}

func TestCacheLRU(t *testing.T) {
	// 2-way, 2 sets of 64B lines: lines 0,2,4 map to set 0.
	c := NewCache(CacheCfg{SizeBytes: 256, Ways: 2, LatCycles: 1})
	c.Access(0 * 64)
	c.Access(2 * 64)
	c.Access(0 * 64) // 0 is MRU
	c.Access(4 * 64) // evicts 2 (LRU)
	if !c.Lookup(0) {
		t.Error("MRU line evicted")
	}
	if c.Lookup(2 * 64) {
		t.Error("LRU line not evicted")
	}
}

func TestCacheWorkingSetProperty(t *testing.T) {
	// Any working set that fits in the cache has a 100% hit rate after the
	// first pass.
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := NewCache(CacheCfg{SizeBytes: 32 << 10, Ways: 8, LatCycles: 1})
		nlines := 1 + rng.Intn(256) // <= 16KB working set
		addrs := make([]uint64, nlines)
		base := uint64(rng.Intn(1024)) * 4096
		for i := range addrs {
			addrs[i] = base + uint64(i)*64
		}
		for _, a := range addrs {
			c.Access(a)
		}
		for pass := 0; pass < 3; pass++ {
			for _, a := range addrs {
				if !c.Access(a) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestHierarchyCoherence(t *testing.T) {
	h := NewHierarchy(DesktopHierarchy(2), 2)
	// Core 0 reads, core 1 writes the same line: core 0's copy invalidated.
	h.AccessData(0, 0x1000, false)
	h.AccessData(1, 0x1000, true)
	if h.Invalidations != 1 {
		t.Errorf("invalidations = %d", h.Invalidations)
	}
	// Core 0's next access misses L1 again.
	if h.L1DFor(0).Lookup(0x1000) {
		t.Error("core 0 copy not invalidated")
	}
	if h.FootprintBytes() != 64 {
		t.Errorf("footprint = %d", h.FootprintBytes())
	}
}

func TestHierarchyLatencyOrdering(t *testing.T) {
	h := NewHierarchy(DesktopHierarchy(1), 1)
	lat1 := h.AccessData(0, 0x5000, false) // cold: memory
	lat2 := h.AccessData(0, 0x5000, false) // warm: L1
	if lat1 != 200 || lat2 != 4 {
		t.Errorf("latencies %d, %d", lat1, lat2)
	}
}

func TestBranchPredictorLearnsLoop(t *testing.T) {
	bp := NewBranchPredictor(12)
	// A loop branch taken 99 times then not taken: predictor should be
	// nearly perfect after warm-up.
	for i := 0; i < 1000; i++ {
		bp.Predict(0x400100, i%100 != 99)
	}
	if r := bp.MispredictRate(); r > 0.06 {
		t.Errorf("loop mispredict rate = %v", r)
	}
	// Random branches: rate should be high.
	bp2 := NewBranchPredictor(12)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 10000; i++ {
		bp2.Predict(0x400200, rng.Intn(2) == 0)
	}
	if r := bp2.MispredictRate(); r < 0.3 {
		t.Errorf("random mispredict rate = %v", r)
	}
}

func TestTLB(t *testing.T) {
	tlb := NewTLB(4, 30)
	if tlb.Access(0x1000) != 30 {
		t.Error("cold access has no walk")
	}
	if tlb.Access(0x1500) != 0 {
		t.Error("same page walked twice")
	}
	// Fill beyond capacity: LRU eviction.
	for p := uint64(2); p < 7; p++ {
		tlb.Access(p << 12)
	}
	if tlb.Access(0x1000) == 0 {
		t.Error("evicted page still hit")
	}
}

// runWithCore executes a program and feeds it to the given consumer.
func runWithCore(t *testing.T, src string, sink Consumer) *vm.Machine {
	t.Helper()
	exe, err := asm.Program(src)
	if err != nil {
		t.Fatal(err)
	}
	k := kernel.New(kernel.NewFS(), 1)
	m, err := vm.NewLoaded(k, exe, []string{"p"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	m.MaxInstructions = 5_000_000
	f := NewFeeder(m, sink)
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	f.Flush()
	return m
}

const streamProg = `
	.text
	.global _start
_start:
	limm r1, buf
	movi r2, 0
loop:
	ld.q r3, [r1]
	add  r4, r4, r3
	addi r1, r1, 64
	addi r2, r2, 1
	cmpi r2, 20000
	jnz  loop
	movi r0, 231
	syscall
	.bss
buf:	.space 2097152
`

const chaseLat = `
	.text
	.global _start
_start:
	movi r2, 0
	movi r1, 7
	movi r6, 1
loop:
	muli r1, r1, 1103515245
	addi r1, r1, 12345
	udiv r1, r1, r6     # serialize through the 20-cycle divider
	ori  r1, r1, 1
	addi r2, r2, 1
	cmpi r2, 20000
	jnz  loop
	movi r0, 231
	syscall
`

func TestIntervalCoreCPI(t *testing.T) {
	h := NewHierarchy(DesktopHierarchy(1), 1)
	core := NewIntervalCore(GainestownCore(), h, 0)
	m := runWithCore(t, streamProg, core)
	if core.Stats.Instructions != m.GlobalRetired {
		t.Errorf("instr %d != %d", core.Stats.Instructions, m.GlobalRetired)
	}
	cpi := core.Stats.CPI()
	// Streaming misses every line: CPI must be well above the 0.25 ideal.
	if cpi < 0.4 || cpi > 100 {
		t.Errorf("stream CPI = %v", cpi)
	}
	if h.L1DFor(0).MissRate() < 0.5 {
		t.Errorf("stream L1D miss rate = %v", h.L1DFor(0).MissRate())
	}
}

func TestOOOCoreDependencyChain(t *testing.T) {
	// chaseLat is a serial dependency chain with divisions: the OOO core
	// must be bound by latency, not width.
	h := NewHierarchy(DesktopHierarchy(1), 1)
	core := NewOOOCore(GainestownCore(), h, 0)
	runWithCore(t, chaseLat, core)
	core.Finish()
	cpi := core.Stats.CPI()
	if cpi < 1.0 {
		t.Errorf("dependent-chain CPI = %v, expected latency-bound > 1", cpi)
	}

	// An independent-add stream must get CPI well under 1.
	h2 := NewHierarchy(DesktopHierarchy(1), 1)
	core2 := NewOOOCore(GainestownCore(), h2, 0)
	runWithCore(t, `
	.text
	.global _start
_start:
	movi r9, 0
loop:
	addi r1, r9, 1
	addi r2, r9, 2
	addi r3, r9, 3
	addi r4, r9, 4
	addi r5, r9, 5
	addi r6, r9, 6
	addi r9, r9, 1
	cmpi r9, 20000
	jnz  loop
	movi r0, 231
	syscall
	`, core2)
	core2.Finish()
	if ipc := core2.Stats.IPC(); ipc < 1.5 {
		t.Errorf("independent stream IPC = %v, expected superscalar > 1.5", ipc)
	}
	if core2.Stats.CPI() >= cpi {
		t.Errorf("independent CPI %v not better than dependent %v", core2.Stats.CPI(), cpi)
	}
}

func TestHaswellBeatsNehalem(t *testing.T) {
	// The bigger configuration must be at least as fast on an ILP-rich
	// workload (Table V direction).
	prog := `
	.text
	.global _start
_start:
	movi r9, 0
	limm r10, data
loop:
	ld.q r1, [r10]
	ld.q r2, [r10+8]
	ld.q r3, [r10+16]
	add  r4, r1, r2
	add  r5, r2, r3
	mul  r6, r1, r3
	add  r7, r4, r5
	addi r10, r10, 24
	andi r10, r10, 4095
	limm r11, data
	add  r10, r10, r11
	andi r10, r10, -8
	addi r9, r9, 1
	cmpi r9, 30000
	jnz  loop
	movi r0, 231
	syscall
	.data
	.align 4096
data:	.space 8192
	`
	run := func(cfg CoreCfg) float64 {
		h := NewHierarchy(DesktopHierarchy(1), 1)
		core := NewOOOCore(cfg, h, 0)
		runWithCore(t, prog, core)
		core.Finish()
		return core.Stats.IPC()
	}
	nhm := run(NehalemCore())
	hsw := run(HaswellCore())
	if hsw < nhm {
		t.Errorf("haswell IPC %v < nehalem %v", hsw, nhm)
	}
}

func TestFeederAssemblesRecords(t *testing.T) {
	var got []DynInst
	sink := ConsumerFunc(func(d *DynInst) { got = append(got, *d) })
	runWithCore(t, `
	.text
	.global _start
_start:
	limm r1, v
	ld.q r2, [r1]
	st.q r2, [r1+8]
	cmpi r2, 0
	jz   skip
	nop
skip:
	movi r0, 231
	syscall
	.data
v:	.quad 0, 0
	`, sink)
	if len(got) < 6 {
		t.Fatalf("records: %d", len(got))
	}
	if got[1].Ins.Op != isa.LDQ || !got[1].MemR || got[1].MemAddr == 0 {
		t.Errorf("load record: %+v", got[1])
	}
	if got[2].Ins.Op != isa.STQ || !got[2].MemW {
		t.Errorf("store record: %+v", got[2])
	}
	if got[4].Ins.Op != isa.JZ || !got[4].Branch || !got[4].Taken {
		t.Errorf("branch record: %+v", got[4])
	}
	// Machine-retired count matches the record count.
}

// ---------------------------------------------------------------------
// Reference models. refCache, refTLB and refHierarchy are the original
// linear-scan implementations, kept verbatim as the executable
// specification of the timing-model state: the production models (flat
// way arrays, MRU fast paths, the footprint folded into the owner map)
// must agree with them access for access.
// ---------------------------------------------------------------------

type refCacheSet struct {
	tags []uint64 // tag values; index 0 = MRU
	vals []bool
}

type refCache struct {
	sets     []refCacheSet
	setMask  uint64
	shift    uint
	Accesses uint64
	Misses   uint64
}

func newRefCache(cfg CacheCfg) *refCache {
	if cfg.LineBytes == 0 {
		cfg.LineBytes = LineBytes
	}
	nsets := cfg.SizeBytes / (cfg.LineBytes * cfg.Ways)
	if nsets < 1 {
		nsets = 1
	}
	c := &refCache{sets: make([]refCacheSet, nsets), setMask: uint64(nsets - 1)}
	for i := range c.sets {
		c.sets[i] = refCacheSet{tags: make([]uint64, cfg.Ways), vals: make([]bool, cfg.Ways)}
	}
	for s := uint(0); 1<<s < cfg.LineBytes; s++ {
		c.shift = s + 1
	}
	return c
}

func (c *refCache) Lookup(addr uint64) bool {
	ln := addr >> c.shift
	set := &c.sets[ln&c.setMask]
	for w := range set.tags {
		if set.vals[w] && set.tags[w] == ln {
			return true
		}
	}
	return false
}

func (c *refCache) Access(addr uint64) bool {
	c.Accesses++
	ln := addr >> c.shift
	set := &c.sets[ln&c.setMask]
	for w := range set.tags {
		if set.vals[w] && set.tags[w] == ln {
			copy(set.tags[1:w+1], set.tags[:w])
			copy(set.vals[1:w+1], set.vals[:w])
			set.tags[0], set.vals[0] = ln, true
			return true
		}
	}
	c.Misses++
	copy(set.tags[1:], set.tags[:len(set.tags)-1])
	copy(set.vals[1:], set.vals[:len(set.vals)-1])
	set.tags[0], set.vals[0] = ln, true
	return false
}

func (c *refCache) Invalidate(addr uint64) {
	ln := addr >> c.shift
	set := &c.sets[ln&c.setMask]
	for w := range set.tags {
		if set.vals[w] && set.tags[w] == ln {
			set.vals[w] = false
			return
		}
	}
}

type refTLB struct {
	entries    []uint64
	valid      []bool
	WalkCycles int
	Accesses   uint64
	Misses     uint64
}

func newRefTLB(entries, walkCycles int) *refTLB {
	return &refTLB{entries: make([]uint64, entries), valid: make([]bool, entries), WalkCycles: walkCycles}
}

func (t *refTLB) Access(addr uint64) int {
	t.Accesses++
	page := addr >> 12
	for i := range t.entries {
		if t.valid[i] && t.entries[i] == page {
			copy(t.entries[1:i+1], t.entries[:i])
			copy(t.valid[1:i+1], t.valid[:i])
			t.entries[0], t.valid[0] = page, true
			return 0
		}
	}
	t.Misses++
	copy(t.entries[1:], t.entries[:len(t.entries)-1])
	copy(t.valid[1:], t.valid[:len(t.valid)-1])
	t.entries[0], t.valid[0] = page, true
	return t.WalkCycles
}

type refHierarchy struct {
	cfg            HierarchyCfg
	cores          int
	l1i, l1d, l2   []*refCache
	L3             *refCache
	owners         map[uint64]uint32
	Invalidations  uint64
	PrefetchIssued uint64
	footprint      map[uint64]struct{}
}

func newRefHierarchy(cfg HierarchyCfg, cores int) *refHierarchy {
	h := &refHierarchy{cfg: cfg, cores: cores, L3: newRefCache(cfg.L3),
		owners: make(map[uint64]uint32), footprint: make(map[uint64]struct{})}
	for i := 0; i < cores; i++ {
		h.l1i = append(h.l1i, newRefCache(cfg.L1I))
		h.l1d = append(h.l1d, newRefCache(cfg.L1D))
		h.l2 = append(h.l2, newRefCache(cfg.L2))
	}
	return h
}

func (h *refHierarchy) AccessData(core int, addr uint64, write bool) int {
	h.footprint[addr>>6] = struct{}{}
	if write {
		ln := addr >> 6
		if mask := h.owners[ln]; mask != 0 {
			for c := 0; c < h.cores; c++ {
				if c != core && mask&(1<<uint(c)) != 0 {
					h.l1d[c].Invalidate(addr)
					h.l2[c].Invalidate(addr)
					h.Invalidations++
				}
			}
		}
		h.owners[ln] = 1 << uint(core)
	} else {
		h.owners[addr>>6] |= 1 << uint(core)
	}
	if h.l1d[core].Access(addr) {
		return h.cfg.L1D.LatCycles
	}
	if h.l2[core].Access(addr) {
		return h.cfg.L2.LatCycles
	}
	if h.cfg.Prefetch {
		h.PrefetchIssued++
		h.l2[core].Access(addr + LineBytes)
		h.L3.Access(addr + LineBytes)
	}
	if h.L3.Access(addr) {
		return h.cfg.L3.LatCycles
	}
	return h.cfg.MemLatency
}

func (h *refHierarchy) AccessCode(core int, addr uint64) int {
	if h.l1i[core].Access(addr) {
		return h.cfg.L1I.LatCycles
	}
	if h.l2[core].Access(addr) {
		return h.cfg.L2.LatCycles
	}
	if h.L3.Access(addr) {
		return h.cfg.L3.LatCycles
	}
	return h.cfg.MemLatency
}

// modelAccess is one step of a memory-model stream: an instruction fetch
// at pc and, for memory instructions, one data access.
type modelAccess struct {
	core       int
	pc, addr   uint64
	mem, write bool
}

// modelPair drives the production models and their references in
// lockstep and fails on the first disagreement.
type modelPair struct {
	t          *testing.T
	h          *Hierarchy
	ref        *refHierarchy
	dtlb, itlb []*TLB
	rdtlb      []*refTLB
	ritlb      []*refTLB
}

func newModelPair(t *testing.T, cfg HierarchyCfg, cores int) *modelPair {
	p := &modelPair{t: t, h: NewHierarchy(cfg, cores), ref: newRefHierarchy(cfg, cores)}
	for i := 0; i < cores; i++ {
		// A small DTLB so the stream exercises replacement, not only hits.
		p.dtlb = append(p.dtlb, NewTLB(16, 30))
		p.rdtlb = append(p.rdtlb, newRefTLB(16, 30))
		p.itlb = append(p.itlb, NewTLB(9, 30))
		p.ritlb = append(p.ritlb, newRefTLB(9, 30))
	}
	return p
}

func (p *modelPair) step(i int, a modelAccess) {
	t := p.t
	if got, want := p.h.AccessCode(a.core, a.pc), p.ref.AccessCode(a.core, a.pc); got != want {
		t.Fatalf("access %d: AccessCode(%d, %#x) = %d, reference %d", i, a.core, a.pc, got, want)
	}
	if got, want := p.itlb[a.core].Access(a.pc), p.ritlb[a.core].Access(a.pc); got != want {
		t.Fatalf("access %d: ITLB(%#x) = %d, reference %d", i, a.pc, got, want)
	}
	if !a.mem {
		return
	}
	if got, want := p.h.AccessData(a.core, a.addr, a.write), p.ref.AccessData(a.core, a.addr, a.write); got != want {
		t.Fatalf("access %d: AccessData(%d, %#x, %v) = %d, reference %d", i, a.core, a.addr, a.write, got, want)
	}
	if got, want := p.dtlb[a.core].Access(a.addr), p.rdtlb[a.core].Access(a.addr); got != want {
		t.Fatalf("access %d: DTLB(%#x) = %d, reference %d", i, a.addr, got, want)
	}
}

// check compares every counter and a probe of each cache's contents.
func (p *modelPair) check(probe []uint64) {
	t := p.t
	same := func(what string, c *Cache, r *refCache) {
		t.Helper()
		if c.Accesses != r.Accesses || c.Misses != r.Misses {
			t.Errorf("%s: accesses/misses %d/%d, reference %d/%d", what, c.Accesses, c.Misses, r.Accesses, r.Misses)
		}
		for _, a := range probe {
			if c.Lookup(a) != r.Lookup(a) {
				t.Errorf("%s: Lookup(%#x) = %v, reference %v", what, a, c.Lookup(a), r.Lookup(a))
				return
			}
		}
	}
	for i := range p.h.l1d {
		same("L1I", p.h.l1i[i], p.ref.l1i[i])
		same("L1D", p.h.l1d[i], p.ref.l1d[i])
		same("L2", p.h.l2[i], p.ref.l2[i])
		for _, tl := range []struct {
			c *TLB
			r *refTLB
		}{{p.dtlb[i], p.rdtlb[i]}, {p.itlb[i], p.ritlb[i]}} {
			if c, r := tl.c, tl.r; c.Accesses != r.Accesses || c.Misses != r.Misses {
				t.Errorf("TLB: accesses/misses %d/%d, reference %d/%d", c.Accesses, c.Misses, r.Accesses, r.Misses)
			}
		}
	}
	same("L3", p.h.L3, p.ref.L3)
	if p.h.Invalidations != p.ref.Invalidations || p.h.PrefetchIssued != p.ref.PrefetchIssued {
		t.Errorf("invalidations/prefetches %d/%d, reference %d/%d",
			p.h.Invalidations, p.h.PrefetchIssued, p.ref.Invalidations, p.ref.PrefetchIssued)
	}
	if p.h.FootprintLines() != len(p.ref.footprint) {
		t.Errorf("FootprintLines = %d, reference %d", p.h.FootprintLines(), len(p.ref.footprint))
	}
	if p.ref.Invalidations == 0 && len(p.h.l1d) > 1 {
		t.Error("stream produced no coherence invalidations")
	}
}

// randomStream mixes a hot working set (MRU and near-MRU hits), a shared
// region written by every core (coherence invalidations), and a wide cold
// region (conflict misses and evictions).
func randomStream(seed int64, cores, n int) []modelAccess {
	rng := rand.New(rand.NewSource(seed))
	out := make([]modelAccess, n)
	pc := uint64(0x400000)
	for i := range out {
		a := modelAccess{core: rng.Intn(cores)}
		if rng.Intn(8) == 0 {
			pc = 0x400000 + uint64(rng.Intn(64<<10))&^7
		} else {
			pc += 8
		}
		a.pc = pc
		if rng.Intn(3) != 0 {
			a.mem = true
			a.write = rng.Intn(4) == 0
			switch r := rng.Intn(10); {
			case r < 5:
				a.addr = 0x10000000 + uint64(rng.Intn(8<<10))
			case r < 7:
				a.addr = 0x20000000 + uint64(rng.Intn(1<<10))
			default:
				a.addr = 0x30000000 + uint64(rng.Int63n(64<<20))
			}
		}
		out[i] = a
	}
	return out
}

// workloadStream records the fetch and data addresses of a generated
// workload's first n instructions; cores take turns in runs of 512 so
// writes from one core invalidate lines others hold.
func workloadStream(t *testing.T, cores, n int) []modelAccess {
	t.Helper()
	r := workloads.TrainIntRate()[4]
	exe, err := workloads.Build(r)
	if err != nil {
		t.Fatal(err)
	}
	fs := kernel.NewFS()
	if r.FileInput {
		fs.WriteFile("/input.dat", workloads.InputFile())
	}
	m, err := vm.NewLoaded(kernel.New(fs, 1), exe, []string{r.Name}, nil)
	if err != nil {
		t.Fatal(err)
	}
	m.MaxInstructions = uint64(n)
	var out []modelAccess
	f := NewFeeder(m, ConsumerFunc(func(d *DynInst) {
		out = append(out, modelAccess{core: len(out) / 512 % cores, pc: d.PC,
			addr: d.MemAddr, mem: d.MemR || d.MemW, write: d.MemW})
	}))
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	f.Flush()
	return out
}

// TestModelsMatchReference drives seeded random and workload-derived
// access streams through the production caches, TLBs and hierarchy and
// through the reference models, at 1 and 4 cores, with and without the
// prefetcher: every returned latency, every counter, the coherence
// invalidations and the data footprint must be identical.
func TestModelsMatchReference(t *testing.T) {
	for _, cores := range []int{1, 4} {
		streams := []struct {
			name string
			s    []modelAccess
		}{
			{"random", randomStream(int64(cores), cores, 200_000)},
			{"workload", workloadStream(t, cores, 300_000)},
		}
		for _, cfg := range []HierarchyCfg{DesktopHierarchy(cores), SmallHierarchy(cores)} {
			// Shrink the shared levels so the streams reach L3 and memory.
			cfg.L2.SizeBytes = 16 << 10
			cfg.L3.SizeBytes = 64 << 10
			for _, st := range streams {
				s := st.s
				t.Run(fmt.Sprintf("%s/%dcore/prefetch=%v", st.name, cores, cfg.Prefetch), func(t *testing.T) {
					p := newModelPair(t, cfg, cores)
					var probe []uint64
					for i, a := range s {
						p.step(i, a)
						if i%997 == 0 {
							probe = append(probe, a.pc, a.addr)
						}
					}
					p.check(probe)
				})
			}
		}
	}
}

// refROB is the original slice FIFO of OOOCore's reorder buffer.
type refROB struct {
	rob          []uint64
	clock        uint64
	retireBudget int
	width        int
}

func (r *refROB) drainTo(occupancy int) {
	for len(r.rob) > occupancy {
		head := r.rob[0]
		if head > r.clock {
			r.clock = head
			r.retireBudget = r.width
		}
		if r.retireBudget == 0 {
			r.clock++
			r.retireBudget = r.width
		}
		r.rob = r.rob[1:]
		r.retireBudget--
	}
}

// TestROBRingMatchesSliceFIFO drives OOOCore's ring-buffer ROB and the
// slice FIFO it replaced with the same random pushes and drains,
// including occupancies past ROBSize that force the ring to grow.
func TestROBRingMatchesSliceFIFO(t *testing.T) {
	c := &OOOCore{Cfg: CoreCfg{ROBSize: 8, DispatchWidth: 3}}
	ref := &refROB{width: 3}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200_000; i++ {
		if rng.Intn(3) > 0 {
			done := c.clock + uint64(rng.Intn(50))
			c.robPush(done)
			ref.rob = append(ref.rob, done)
		} else {
			occ := rng.Intn(12)
			c.drainTo(occ)
			ref.drainTo(occ)
		}
		refCycles := ref.clock
		if n := len(ref.rob); n > 0 && ref.rob[n-1] > refCycles {
			refCycles = ref.rob[n-1]
		}
		if c.clock != ref.clock || c.retireBudget != ref.retireBudget ||
			c.robLen != len(ref.rob) || c.currentCycles() != refCycles {
			t.Fatalf("step %d: ring clock=%d budget=%d len=%d cycles=%d, reference %d/%d/%d/%d",
				i, c.clock, c.retireBudget, c.robLen, c.currentCycles(),
				ref.clock, ref.retireBudget, len(ref.rob), refCycles)
		}
	}
}
