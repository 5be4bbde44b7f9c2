package pinplay

import (
	"strings"
	"testing"

	"elfie/internal/asm"
	"elfie/internal/isa"
	"elfie/internal/kernel"
	"elfie/internal/pinball"
	"elfie/internal/vm"
)

// timeProg busy-loops, consults gettimeofday, and branches on the result's
// low bits — control flow that only constrained replay can reproduce.
const timeProg = `
	.text
	.global _start
_start:
	movi r8, 0          # iteration counter
	movi r9, 0          # checksum
loop:
	movi r0, 96         # gettimeofday
	limm r1, tv
	syscall
	limm r1, tv
	ld.q r2, [r1+8]     # usec
	andi r2, r2, 7
	add  r9, r9, r2
	addi r8, r8, 1
	cmpi r8, 400
	jnz  loop
	mov  r1, r9
	movi r0, 231
	syscall
	.data
tv:	.space 16
`

// fileProg reads from a file opened before the region of interest.
const fileProg = `
	.text
	.global _start
_start:
	movi r0, 2          # open("/input.dat")
	limm r1, fname
	movi r2, 0
	syscall
	mov  r10, r0        # fd
	movi r8, 0
loop:
	movi r0, 0          # read(fd, buf, 8)
	mov  r1, r10
	limm r2, buf
	movi r3, 8
	syscall
	cmpi r0, 8
	jnz  done
	limm r2, buf
	ld.q r3, [r2]
	add  r9, r9, r3
	addi r8, r8, 1
	jmp  loop
done:
	mov  r1, r9
	andi r1, r1, 255
	movi r0, 231
	syscall
	.data
fname:	.asciz "/input.dat"
buf:	.space 8
`

const mtProg = `
	.text
	.global _start
_start:
	movi r0, 56
	movi r1, 0
	limm r2, stk1+8192
	limm r3, worker
	syscall
	movi r8, 0
	limm r12, shared
mloop:
	movi r7, 1
	xadd r7, [r12]
	addi r8, r8, 1
	cmpi r8, 3000
	jnz  mloop
	limm r12, done_flag
	movi r7, 1
	st.q r7, [r12]
	movi r0, 60
	movi r1, 0
	syscall
worker:
	limm r12, shared
	movi r8, 0
wloop:
	ld.q r7, [r12]
	add  r9, r9, r7
	addi r8, r8, 1
	cmpi r8, 4000
	jnz  wloop
	movi r0, 60
	movi r1, 0
	syscall
	.data
shared:    .quad 0
done_flag: .quad 0
	.bss
stk1:	.space 8192
`

func buildMachine(t *testing.T, src string, seed int64, fs *kernel.FS) *vm.Machine {
	t.Helper()
	exe, err := asm.Program(src)
	if err != nil {
		t.Fatal(err)
	}
	if fs == nil {
		fs = kernel.NewFS()
	}
	k := kernel.New(fs, seed)
	m, err := vm.NewLoaded(k, exe, []string{"prog"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	m.MaxInstructions = 50_000_000
	return m
}

func logRegion(t *testing.T, src string, seed int64, fs *kernel.FS, opts LogOptions) *pinball.Pinball {
	t.Helper()
	m := buildMachine(t, src, seed, fs)
	pb, err := Log(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	return pb
}

func TestLogBasics(t *testing.T) {
	pb := logRegion(t, timeProg, 1, nil,
		LogOptions{Name: "tp", RegionStart: 100, RegionLength: 1000}.Fat())
	if pb.Meta.NumThreads != 1 {
		t.Fatalf("threads = %d", pb.Meta.NumThreads)
	}
	if pb.Meta.TotalInstructions != 1000 {
		t.Errorf("total = %d", pb.Meta.TotalInstructions)
	}
	if pb.Meta.RegionLength[0] != 1000 {
		t.Errorf("region length = %d", pb.Meta.RegionLength[0])
	}
	if pb.Meta.RegionStartIcount != 100 {
		t.Errorf("start = %d", pb.Meta.RegionStartIcount)
	}
	if len(pb.Pages) == 0 || pb.ImageBytes() == 0 {
		t.Error("no pages captured")
	}
	if len(pb.Syscalls) == 0 {
		t.Error("no syscalls captured")
	}
	if len(pb.Sched) == 0 {
		t.Error("no schedule captured")
	}
	if len(pb.Meta.StackRegions) != 1 {
		t.Errorf("stack regions: %v", pb.Meta.StackRegions)
	}
	if pb.Meta.EndPC == 0 || pb.Meta.EndCount == 0 {
		t.Errorf("end condition: pc=%#x count=%d", pb.Meta.EndPC, pb.Meta.EndCount)
	}
	// gettimeofday effects carry memory writes.
	found := false
	for _, e := range pb.Syscalls {
		if e.Num == kernel.SysGettimeofday && len(e.MemWrites) == 1 && len(e.MemWrites[0].Data) == 16 {
			found = true
		}
	}
	if !found {
		t.Error("gettimeofday side effects not captured")
	}
}

func TestFatVsRegularPinballSize(t *testing.T) {
	fat := logRegion(t, timeProg, 1, nil,
		LogOptions{Name: "f", RegionStart: 100, RegionLength: 500}.Fat())
	reg := logRegion(t, timeProg, 1, nil,
		LogOptions{Name: "r", RegionStart: 100, RegionLength: 500})
	if fat.ImageBytes() <= reg.ImageBytes() {
		t.Errorf("fat %d <= regular %d bytes", fat.ImageBytes(), reg.ImageBytes())
	}
	if !fat.Meta.Fat || reg.Meta.Fat {
		t.Error("fat flags wrong")
	}
}

func TestReplayInjectedMatchesLogging(t *testing.T) {
	// Log on a kernel with seed 1; replay on a kernel with a different seed
	// (different clock jitter). Injection must reproduce the recorded
	// behaviour exactly despite the changed environment.
	pb := logRegion(t, timeProg, 1, nil,
		LogOptions{Name: "tp", RegionStart: 200, RegionLength: 2000}.Fat())
	k2 := kernel.New(kernel.NewFS(), 999)
	res, err := Replay(pb, k2, ReplayOptions{Injection: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Diverged {
		t.Fatalf("diverged: %s", res.DivergeReason)
	}
	if !res.Completed {
		t.Fatalf("incomplete: %v of %v", res.PerThread, pb.Meta.RegionLength)
	}
	if res.PerThread[0] != pb.Meta.RegionLength[0] {
		t.Errorf("retired %d, want %d", res.PerThread[0], pb.Meta.RegionLength[0])
	}
	if res.InjectedSyscalls == 0 {
		t.Error("nothing injected")
	}
}

func TestReplayFileReads(t *testing.T) {
	fs := kernel.NewFS()
	data := make([]byte, 256)
	for i := range data {
		data[i] = byte(i * 7)
	}
	fs.WriteFile("/input.dat", data)
	pb := logRegion(t, fileProg, 1, fs,
		LogOptions{Name: "fp", RegionStart: 50, RegionLength: 400}.Fat())
	// Replay against an EMPTY filesystem: reads would fail natively, but
	// injection supplies the logged results.
	res, err := Replay(pb, kernel.New(kernel.NewFS(), 2), ReplayOptions{Injection: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Diverged || !res.Completed {
		t.Fatalf("diverged=%v (%s) completed=%v", res.Diverged, res.DivergeReason, res.Completed)
	}
}

func TestInjectionlessReplayFileFails(t *testing.T) {
	// -replay:injection 0 against an empty filesystem: the re-executed
	// open()/read() fail, so the run diverges from the recorded region —
	// exactly the failure mode ELFies hit without SYSSTATE.
	fs := kernel.NewFS()
	fs.WriteFile("/input.dat", make([]byte, 256))
	pb := logRegion(t, fileProg, 1, fs,
		LogOptions{Name: "fp", RegionStart: 50, RegionLength: 400}.Fat())
	res, err := Replay(pb, kernel.New(kernel.NewFS(), 2), ReplayOptions{Injection: false})
	if err != nil {
		t.Fatal(err)
	}
	// The program takes the early-exit path (read fails), retiring far
	// fewer instructions than recorded.
	if res.Completed {
		t.Errorf("unexpectedly completed: %v vs %v", res.PerThread, pb.Meta.RegionLength)
	}
}

func TestInjectionlessReplayWithState(t *testing.T) {
	// With the file present in the replay filesystem, injection-less replay
	// re-executes the reads successfully.
	fs := kernel.NewFS()
	data := make([]byte, 256)
	fs.WriteFile("/input.dat", data)
	pb := logRegion(t, timeProg, 1, fs,
		LogOptions{Name: "tp", RegionStart: 100, RegionLength: 1500}.Fat())
	res, err := Replay(pb, kernel.New(fs.Clone(), 1), ReplayOptions{Injection: false})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Errorf("incomplete: %v vs %v (reason %s)", res.PerThread, pb.Meta.RegionLength, res.DivergeReason)
	}
}

func TestMultiThreadedReplayExact(t *testing.T) {
	pb := logRegion(t, mtProg, 1, nil,
		LogOptions{Name: "mt", RegionStart: 500, RegionLength: 20_000}.Fat())
	if pb.Meta.NumThreads != 2 {
		t.Fatalf("threads = %d", pb.Meta.NumThreads)
	}
	res, err := Replay(pb, kernel.New(kernel.NewFS(), 77), ReplayOptions{Injection: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Diverged {
		t.Fatalf("diverged: %s", res.DivergeReason)
	}
	for i := range pb.Meta.RegionLength {
		if res.PerThread[i] != pb.Meta.RegionLength[i] {
			t.Errorf("thread %d: %d != %d", i, res.PerThread[i], pb.Meta.RegionLength[i])
		}
	}
}

func TestThreadCreatedInsideRegion(t *testing.T) {
	// Start the region before the clone so the clone executes in-region.
	pb := logRegion(t, mtProg, 1, nil,
		LogOptions{Name: "mtc", RegionStart: 2, RegionLength: 10_000}.Fat())
	if pb.Meta.NumThreads != 1 {
		t.Fatalf("threads at region start = %d", pb.Meta.NumThreads)
	}
	if len(pb.Meta.RegionLength) != 2 {
		t.Fatalf("region lengths = %v (clone not accounted)", pb.Meta.RegionLength)
	}
	res, err := Replay(pb, kernel.New(kernel.NewFS(), 3), ReplayOptions{Injection: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Diverged {
		t.Fatalf("diverged: %s", res.DivergeReason)
	}
	if len(res.Machine.Threads) != 2 {
		t.Errorf("replay threads = %d", len(res.Machine.Threads))
	}
	for i := range pb.Meta.RegionLength {
		if res.PerThread[i] != pb.Meta.RegionLength[i] {
			t.Errorf("thread %d: %d != %d", i, res.PerThread[i], pb.Meta.RegionLength[i])
		}
	}
}

func TestSaveLoadReplay(t *testing.T) {
	dir := t.TempDir()
	pb := logRegion(t, timeProg, 1, nil,
		LogOptions{Name: "disk", RegionStart: 100, RegionLength: 1200, WarmupLength: 300}.Fat())
	if err := pb.Save(dir); err != nil {
		t.Fatal(err)
	}
	pb2, err := pinball.Load(dir, "disk")
	if err != nil {
		t.Fatal(err)
	}
	if pb2.Meta.TotalInstructions != pb.Meta.TotalInstructions ||
		pb2.Meta.WarmupLength != 300 ||
		pb2.Meta.NumThreads != pb.Meta.NumThreads ||
		pb2.Meta.EndPC != pb.Meta.EndPC {
		t.Errorf("meta: %+v vs %+v", pb2.Meta, pb.Meta)
	}
	if len(pb2.Pages) != len(pb.Pages) || pb2.ImageBytes() != pb.ImageBytes() {
		t.Errorf("pages: %d/%d bytes %d/%d", len(pb2.Pages), len(pb.Pages), pb2.ImageBytes(), pb.ImageBytes())
	}
	if len(pb2.Syscalls) != len(pb.Syscalls) || len(pb2.Sched) != len(pb.Sched) {
		t.Errorf("logs: %d/%d syscalls %d/%d sched", len(pb2.Syscalls), len(pb.Syscalls), len(pb2.Sched), len(pb.Sched))
	}
	if pb2.Regs[0] != pb.Regs[0] {
		t.Error("registers differ after round trip")
	}
	res, err := Replay(pb2, kernel.New(kernel.NewFS(), 5), ReplayOptions{Injection: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Diverged || !res.Completed {
		t.Errorf("replay of loaded pinball: diverged=%v completed=%v (%s)",
			res.Diverged, res.Completed, res.DivergeReason)
	}
}

func TestRegFileFormatRoundTrip(t *testing.T) {
	pb := logRegion(t, timeProg, 1, nil,
		LogOptions{Name: "x", RegionStart: 137, RegionLength: 100}.Fat())
	text := pinball.FormatRegs(&pb.Regs[0])
	if !strings.Contains(text, "pc 0x") || !strings.Contains(text, "rsp 0x") {
		t.Fatalf("format:\n%s", text)
	}
	rf, err := pinball.ParseRegs(text)
	if err != nil {
		t.Fatal(err)
	}
	if *rf != pb.Regs[0] {
		t.Error("reg round trip mismatch")
	}
	if _, err := pinball.ParseRegs("bogus line here now"); err == nil {
		t.Error("junk accepted")
	}
	if _, err := pinball.ParseRegs("r99 0x0"); err == nil {
		t.Error("bad register accepted")
	}
}

// Log composes with hooks the caller installed: they keep firing inside
// the region, and the caller's hooks — not the logger's — are installed
// once Log returns.
func TestLogComposesWithCallerHooks(t *testing.T) {
	m := buildMachine(t, `
	.text
	.global _start
_start:
	movi r8, 0
loop:
	sscmark 7
	addi r8, r8, 1
	cmpi r8, 100000
	jnz  loop
	movi r0, 231
	movi r1, 0
	syscall
`, 1, nil)
	const start, length = 100, 1000
	var ins, insInRegion, markersInRegion int
	m.Hooks.OnIns = func(th *vm.Thread, pc uint64, in isa.Inst) {
		ins++
		if m.GlobalRetired >= start {
			insInRegion++
		}
	}
	m.Hooks.OnMarker = func(th *vm.Thread, op isa.Op, tag uint32) {
		if m.GlobalRetired >= start && tag == 7 {
			markersInRegion++
		}
	}
	if _, err := Log(m, LogOptions{Name: "h", RegionStart: start, RegionLength: length}); err != nil {
		t.Fatal(err)
	}
	if insInRegion != length {
		t.Errorf("caller OnIns fired %d times in the region, want %d", insInRegion, length)
	}
	if markersInRegion != length/4 {
		t.Errorf("caller OnMarker fired %d times in the region, want %d", markersInRegion, length/4)
	}
	h := &m.Hooks
	if h.OnMemRead != nil || h.OnMemWrite != nil || h.OnSyscall != nil {
		t.Error("logger hooks still installed after Log")
	}
	if h.OnIns == nil || h.OnMarker == nil {
		t.Fatal("caller hooks not restored after Log")
	}
	before, markers := ins, markersInRegion
	m.MaxInstructions = m.GlobalRetired + 40
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if ins-before != 40 || markersInRegion-markers != 10 {
		t.Errorf("after Log: OnIns fired %d times, OnMarker %d; want 40 and 10",
			ins-before, markersInRegion-markers)
	}
}

func TestLogErrors(t *testing.T) {
	m := buildMachine(t, timeProg, 1, nil)
	if _, err := Log(m, LogOptions{RegionLength: 0}); err == nil {
		t.Error("zero length accepted")
	}
	m2 := buildMachine(t, timeProg, 1, nil)
	if _, err := Log(m2, LogOptions{RegionStart: 1 << 40, RegionLength: 10}); err == nil {
		t.Error("region beyond program end accepted")
	}
}

func TestReplayDivergenceDetection(t *testing.T) {
	pb := logRegion(t, timeProg, 1, nil,
		LogOptions{Name: "d", RegionStart: 100, RegionLength: 800}.Fat())
	// Corrupt the syscall log: swap a syscall number.
	for i := range pb.Syscalls {
		if pb.Syscalls[i].Num == kernel.SysGettimeofday {
			pb.Syscalls[i].Num = kernel.SysGetpid
			break
		}
	}
	res, err := Replay(pb, kernel.New(kernel.NewFS(), 1), ReplayOptions{Injection: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Diverged || !strings.Contains(res.DivergeReason, "mismatch") {
		t.Errorf("divergence not detected: %+v", res)
	}
}
