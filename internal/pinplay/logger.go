// Package pinplay implements the record/replay layer of the tool-chain:
// the region logger that captures pinballs from a program execution, and
// the constrained replayer that re-executes them with system-call
// side-effect injection and thread-order enforcement.
package pinplay

import (
	"fmt"
	"sort"

	"elfie/internal/harness"
	"elfie/internal/isa"
	"elfie/internal/kernel"
	"elfie/internal/mem"
	"elfie/internal/pinball"
	"elfie/internal/vm"
)

// LogOptions selects the region to capture and the logging mode.
type LogOptions struct {
	// Name is the pinball name (file prefix).
	Name string
	// RegionStart is the global instruction count at which capture begins.
	RegionStart uint64
	// RegionLength is the aggregate instruction count to capture.
	RegionLength uint64
	// WarmupLength is recorded in the metadata: the leading part of the
	// region meant for microarchitectural warm-up (PinPoints-style).
	WarmupLength uint64
	// WholeImage records all loaded program-image pages (-log:whole_image).
	WholeImage bool
	// PagesEarly eagerly records every page mapped at region start
	// (-log:pages_early).
	PagesEarly bool
}

// Fat returns options with both fat-pinball switches set (-log:fat).
func (o LogOptions) Fat() LogOptions {
	o.WholeImage = true
	o.PagesEarly = true
	return o
}

// IsFat reports whether both fat switches are on.
func (o LogOptions) IsFat() bool { return o.WholeImage && o.PagesEarly }

// Log fast-forwards the machine to the region start, captures the region as
// a pinball, and leaves the machine stopped at region end. The machine must
// be freshly loaded and use a deterministic scheduler.
func Log(m *vm.Machine, opts LogOptions) (*pinball.Pinball, error) {
	if opts.RegionLength == 0 {
		return nil, fmt.Errorf("pinplay: zero region length")
	}
	if opts.Name == "" {
		opts.Name = "pinball"
	}

	// Phase 1: fast-forward to the region start.
	if opts.RegionStart > 0 {
		m.MaxInstructions = opts.RegionStart
		if err := harness.WrapRun(harness.ModeLog, m.Run()); err != nil {
			return nil, err
		}
		if m.Halted || m.AliveCount() == 0 {
			return nil, fmt.Errorf("pinplay: program ended at %d instructions, before region start %d",
				m.GlobalRetired, opts.RegionStart)
		}
	}

	pb := &pinball.Pinball{Name: opts.Name}
	pb.Meta = pinball.Meta{
		Version:           pinball.FormatVersion,
		NumThreads:        len(m.Threads),
		RegionLength:      make([]uint64, len(m.Threads)),
		WarmupLength:      opts.WarmupLength,
		Fat:               opts.IsFat(),
		RegionStartIcount: m.GlobalRetired,
		BrkStart:          m.Proc.BrkStart,
		Brk:               m.Proc.Brk,
	}
	for _, t := range m.Threads {
		if !t.Alive {
			return nil, fmt.Errorf("pinplay: thread %d dead at region start", t.TID)
		}
		pb.Regs = append(pb.Regs, t.Regs)
		// Identify the thread's stack extent for the stack-collision fix:
		// a window around rsp, clipped to the containing mapped region.
		// (Thread stacks may live inside larger data mappings; treating
		// the whole mapping as stack would balloon the ELFie's startup
		// remap.)
		if lo, hi, ok := stackWindow(m.Proc.AS, t.Regs.GPR[isa.RSP]); ok {
			pb.Meta.StackRegions = append(pb.Meta.StackRegions, [2]uint64{lo, hi})
		}
	}
	pb.Meta.StackRegions = mergeRanges(pb.Meta.StackRegions)

	lg := newLoggerTool(m, opts, pb)

	// Eager page capture.
	if opts.PagesEarly {
		for _, r := range m.Proc.AS.Regions() {
			lg.captureRange(r.Addr, r.Size)
		}
	} else if opts.WholeImage {
		for _, r := range m.Proc.ImageRegions {
			lg.captureRange(r.Addr, r.Size)
		}
	}

	// Phase 2: run the region under instrumentation. The logger composes
	// with the caller's hooks, which are back in place on return.
	saved := m.Hooks
	lg.attach()
	m.MaxInstructions = pb.Meta.RegionStartIcount + opts.RegionLength
	err := harness.WrapRun(harness.ModeLog, m.Run())
	m.Hooks = saved
	if err != nil {
		return nil, err
	}

	for i, t := range m.Threads {
		if i < len(lg.startRetired) {
			pb.Meta.RegionLength[i] = t.Retired - lg.startRetired[i]
		} else {
			// Thread created inside the region: its whole life is in-region.
			pb.Meta.RegionLength = append(pb.Meta.RegionLength, t.Retired)
		}
		pb.Meta.TotalInstructions += pb.Meta.RegionLength[i]
	}
	// End condition for multi-threaded simulation (paper §IV.B): prefer
	// the last atomic instruction — barrier arrivals execute a fixed,
	// schedule-independent number of times per region, unlike spin-loop
	// bodies. Fall back to the last executed instruction.
	if lg.lastAtomicPC != 0 {
		pb.Meta.EndPC = lg.lastAtomicPC
		pb.Meta.EndCount = lg.pcCounts.get(lg.lastAtomicPC)
	} else {
		pb.Meta.EndPC = lg.lastPC
		pb.Meta.EndCount = lg.pcCounts.get(lg.lastPC)
	}
	pb.Sched = lg.sched
	pb.Syscalls = lg.syscalls
	pb.SortPages()
	return pb, nil
}

// Stack window captured around each thread's stack pointer: the live
// frames sit at and above rsp; a slack below covers frames pushed later in
// the region.
const (
	stackWindowBelow = 64 << 10
	stackWindowAbove = 192 << 10
)

func stackWindow(as *mem.AddrSpace, rsp uint64) (lo, hi uint64, ok bool) {
	for _, r := range as.Regions() {
		if rsp < r.Addr || rsp >= r.Addr+r.Size {
			continue
		}
		lo = r.Addr
		if rsp-stackWindowBelow > lo {
			lo = (rsp - stackWindowBelow) &^ (mem.PageSize - 1)
		}
		hi = r.Addr + r.Size
		if rsp+stackWindowAbove < hi {
			hi = (rsp + stackWindowAbove + mem.PageSize - 1) &^ (mem.PageSize - 1)
		}
		return lo, hi, true
	}
	return 0, 0, false
}

// mergeRanges sorts and coalesces overlapping [lo, hi) ranges.
func mergeRanges(rs [][2]uint64) [][2]uint64 {
	if len(rs) <= 1 {
		return rs
	}
	sort.Slice(rs, func(i, j int) bool { return rs[i][0] < rs[j][0] })
	out := rs[:1]
	for _, r := range rs[1:] {
		last := &out[len(out)-1]
		if r[0] <= last[1] {
			if r[1] > last[1] {
				last[1] = r[1]
			}
			continue
		}
		out = append(out, r)
	}
	return out
}

// pcCounter counts executions per instruction address: one array of
// counters per code page for instruction-aligned PCs, a map for the rest.
type pcCounter struct {
	pages  map[uint64]*[mem.PageSize / isa.InstLen]uint64
	lastPN uint64
	last   *[mem.PageSize / isa.InstLen]uint64
	odd    map[uint64]uint64
}

func (c *pcCounter) inc(pc uint64) {
	if pc%isa.InstLen != 0 {
		if c.odd == nil {
			c.odd = make(map[uint64]uint64)
		}
		c.odd[pc]++
		return
	}
	if pn := mem.PageNum(pc); c.last == nil || c.lastPN != pn {
		if c.pages == nil {
			c.pages = make(map[uint64]*[mem.PageSize / isa.InstLen]uint64)
		}
		if c.last = c.pages[pn]; c.last == nil {
			c.last = new([mem.PageSize / isa.InstLen]uint64)
			c.pages[pn] = c.last
		}
		c.lastPN = pn
	}
	c.last[pc%mem.PageSize/isa.InstLen]++
}

func (c *pcCounter) get(pc uint64) uint64 {
	if pc%isa.InstLen != 0 {
		return c.odd[pc]
	}
	if p := c.pages[mem.PageNum(pc)]; p != nil {
		return p[pc%mem.PageSize/isa.InstLen]
	}
	return 0
}

// loggerTool performs region capture through the machine's hooks.
type loggerTool struct {
	m    *vm.Machine
	opts LogOptions
	pb   *pinball.Pinball

	captured map[uint64]bool // page number -> captured
	// seen is a small direct-mapped memo of captured pages (page number
	// + 1; 0 is empty) that spares the captured map on the per-instruction
	// and per-access path.
	seen         [8]uint64
	sched        []vm.SchedRecord
	syscalls     []pinball.SyscallEffect
	startRetired []uint64
	pcCounts     pcCounter
	lastPC       uint64
	lastAtomicPC uint64
	preFS, preGS map[int]uint64
	preArgs      map[int][5]uint64
}

func newLoggerTool(m *vm.Machine, opts LogOptions, pb *pinball.Pinball) *loggerTool {
	lg := &loggerTool{
		m: m, opts: opts, pb: pb,
		captured: make(map[uint64]bool),
		preFS:    make(map[int]uint64),
		preGS:    make(map[int]uint64),
		preArgs:  make(map[int][5]uint64),
	}
	lg.startRetired = make([]uint64, len(m.Threads))
	for i, t := range m.Threads {
		lg.startRetired[i] = t.Retired
	}
	return lg
}

// attach installs the logger's hooks, each calling the hook it replaces
// first, as every tool on vm.Hooks does.
func (lg *loggerTool) attach() {
	m := lg.m
	prev := m.Hooks
	m.Hooks.OnIns = func(t *vm.Thread, pc uint64, ins isa.Inst) {
		if prev.OnIns != nil {
			prev.OnIns(t, pc, ins)
		}
		lg.onIns(t, pc, ins)
	}
	m.Hooks.OnMemRead = func(t *vm.Thread, addr uint64, size int) {
		if prev.OnMemRead != nil {
			prev.OnMemRead(t, addr, size)
		}
		lg.onMem(addr, size)
	}
	m.Hooks.OnMemWrite = func(t *vm.Thread, addr uint64, size int) {
		if prev.OnMemWrite != nil {
			prev.OnMemWrite(t, addr, size)
		}
		lg.onMem(addr, size)
	}
	m.Hooks.OnSyscall = func(t *vm.Thread, num uint64, res kernel.Result) {
		if prev.OnSyscall != nil {
			prev.OnSyscall(t, num, res)
		}
		lg.onSyscall(t, num, res)
	}
}

// capturePage records a page's current content once. Because instruction
// and memory hooks fire before the access takes effect, first-touch capture
// observes the page as it was at region start.
func (lg *loggerTool) capturePage(addr uint64) {
	pn := mem.PageNum(addr)
	if lg.seen[pn%uint64(len(lg.seen))] == pn+1 {
		return
	}
	lg.seen[pn%uint64(len(lg.seen))] = pn + 1
	if lg.captured[pn] {
		return
	}
	lg.captured[pn] = true
	base := pn << mem.PageShift
	data := lg.m.Proc.AS.PageData(base)
	if data == nil {
		return // unmapped: the access is about to fault; nothing to record
	}
	lg.pb.Pages = append(lg.pb.Pages, pinball.Page{
		Addr: base, Prot: lg.m.Proc.AS.Prot(base), Data: data,
	})
}

func (lg *loggerTool) captureRange(addr, size uint64) {
	if size == 0 {
		return
	}
	for p := mem.PageBase(addr); p < addr+size; p += mem.PageSize {
		lg.capturePage(p)
	}
}

func (lg *loggerTool) onIns(t *vm.Thread, pc uint64, ins isa.Inst) {
	// Schedule trace.
	if n := len(lg.sched); n > 0 && lg.sched[n-1].TID == t.TID {
		lg.sched[n-1].N++
	} else {
		lg.sched = append(lg.sched, vm.SchedRecord{TID: t.TID, N: 1})
	}
	// Code pages.
	lg.captureRange(pc, ins.Len())
	// End-condition profiling.
	lg.pcCounts.inc(pc)
	lg.lastPC = pc
	switch ins.Op {
	case isa.XADD, isa.XCHG, isa.CMPXCHG:
		lg.lastAtomicPC = pc
	}
	// Pre-syscall state for side-effect detection.
	if ins.Op == isa.SYSCALL {
		lg.preFS[t.TID] = t.Regs.FSBase
		lg.preGS[t.TID] = t.Regs.GSBase
		lg.preArgs[t.TID] = [5]uint64{
			t.Regs.GPR[isa.R1], t.Regs.GPR[isa.R2], t.Regs.GPR[isa.R3],
			t.Regs.GPR[isa.R4], t.Regs.GPR[isa.R5],
		}
	}
}

func (lg *loggerTool) onMem(addr uint64, size int) {
	lg.captureRange(addr, uint64(size))
}

func (lg *loggerTool) onSyscall(t *vm.Thread, num uint64, res kernel.Result) {
	eff := pinball.SyscallEffect{
		TID:  t.TID,
		Num:  num,
		Ret:  res.Ret,
		Args: lg.preArgs[t.TID],
	}
	switch num {
	case kernel.SysClone, kernel.SysExit, kernel.SysExitGroup:
		eff.Executed = true
	}
	if fs := t.Regs.FSBase; fs != lg.preFS[t.TID] {
		eff.FSBase = &fs
	}
	if gs := t.Regs.GSBase; gs != lg.preGS[t.TID] {
		eff.GSBase = &gs
	}
	for _, w := range res.MemWrites {
		data := make([]byte, w.Len)
		n := lg.m.Proc.AS.ReadNoFault(w.Addr, data)
		eff.MemWrites = append(eff.MemWrites, pinball.MemWriteData{
			Addr: w.Addr, Data: data[:n],
		})
		// The kernel bypassed the memory hooks; capture the touched pages
		// (post-call content, which is what replay will reproduce anyway).
		lg.captureRange(w.Addr, uint64(w.Len))
	}
	lg.syscalls = append(lg.syscalls, eff)
}
