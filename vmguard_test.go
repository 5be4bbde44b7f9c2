package elfie_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"sort"
	"testing"

	"elfie/internal/bbv"
	"elfie/internal/isa"
	"elfie/internal/kernel"
	"elfie/internal/vm"
	"elfie/internal/workloads"
)

// guardMachine builds the reference workload used by the execution-path
// guard tests: phased and branchy, trimmed so the guard stays fast.
func guardMachine(t *testing.T, seed int64) *vm.Machine {
	t.Helper()
	r := trim(workloads.TrainIntRate()[1], 3)
	exe, err := workloads.Build(r)
	if err != nil {
		t.Fatal(err)
	}
	fs := kernel.NewFS()
	if r.FileInput {
		fs.WriteFile("/input.dat", workloads.InputFile())
	}
	m, err := vm.NewLoaded(kernel.New(fs, seed), exe, []string{r.Name}, nil)
	if err != nil {
		t.Fatal(err)
	}
	m.MaxInstructions = 50_000_000
	return m
}

// marshalProfile renders a BBV profile into a canonical byte string:
// slice count, then per slice the sorted (block, weight) pairs.
func marshalProfile(p *bbv.Profile) []byte {
	out := binary.LittleEndian.AppendUint64(nil, uint64(len(p.Slices)))
	out = binary.LittleEndian.AppendUint64(out, p.TotalInstructions)
	for _, v := range p.Slices {
		keys := make([]uint64, 0, len(v))
		for k := range v {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		out = binary.LittleEndian.AppendUint64(out, uint64(len(keys)))
		for _, k := range keys {
			out = binary.LittleEndian.AppendUint64(out, k)
			out = binary.LittleEndian.AppendUint32(out, v[k])
		}
	}
	return out
}

type runSummary struct {
	retired uint64
	t0      uint64
	exit    int
	stdout  string
	halted  bool
}

func summarize(m *vm.Machine) runSummary {
	return runSummary{
		retired: m.GlobalRetired,
		t0:      m.Threads[0].Retired,
		exit:    m.ExitStatus,
		stdout:  string(m.Stdout()),
		halted:  m.Halted,
	}
}

// TestHookedMatchesFastPath is the execution-path guard: the hooked
// per-instruction interpreter (BBV profiling attached) and the unhooked
// decoded-block fast path must retire the identical architectural
// instruction stream — same counts, exit, output, and final registers —
// and BBV profiling itself must be byte-for-byte reproducible.
func TestHookedMatchesFastPath(t *testing.T) {
	// Hooked run A: BBV collector forces the per-instruction path.
	ma := guardMachine(t, 1)
	pa, err := bbv.Collect(ma, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(pa.Slices) < 2 {
		t.Fatalf("reference workload too small: %d slices", len(pa.Slices))
	}

	// Hooked run B: identical machine, identical profile expected.
	mb := guardMachine(t, 1)
	pb, err := bbv.Collect(mb, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(marshalProfile(pa), marshalProfile(pb)) {
		t.Error("hooked BBV profiles differ between identical runs")
	}

	// Unhooked run C: decoded-block fast path.
	mc := guardMachine(t, 1)
	if err := mc.Run(); err != nil {
		t.Fatal(err)
	}
	// Unhooked run D: per-instruction path without hooks (cache disabled).
	md := guardMachine(t, 1)
	md.DisableBlockCache = true
	if err := md.Run(); err != nil {
		t.Fatal(err)
	}

	sa, sc, sd := summarize(ma), summarize(mc), summarize(md)
	if sa != sc {
		t.Errorf("hooked vs block fast path diverge:\nhooked %+v\nfast   %+v", sa, sc)
	}
	if sc != sd {
		t.Errorf("block fast path vs plain interpreter diverge:\nfast %+v\nslow %+v", sc, sd)
	}
	if ma.Threads[0].Regs.GPR != mc.Threads[0].Regs.GPR {
		t.Errorf("final registers diverge:\nhooked %v\nfast   %v",
			ma.Threads[0].Regs.GPR, mc.Threads[0].Regs.GPR)
	}
	// The profiled instruction total must equal what the fast path retired
	// on thread 0 — the BBV stream covers the whole execution.
	if pa.TotalInstructions != mc.Threads[0].Retired {
		t.Errorf("BBV total %d != fast-path thread-0 retired %d",
			pa.TotalInstructions, mc.Threads[0].Retired)
	}
}

// hookStream records a machine's complete per-instruction hook event
// stream — OnIns (pc and the decoded isa.Inst), OnMemRead, OnMemWrite,
// OnBranch and OnMarker, in firing order — as a running SHA-256 over a
// fixed binary encoding, with the event count.
type hookStream struct {
	h      hash.Hash
	buf    []byte
	events uint64
}

func recordHooks(m *vm.Machine) *hookStream {
	s := &hookStream{h: sha256.New()}
	emit := func(kind byte, words ...uint64) {
		s.buf = append(s.buf[:0], kind)
		for _, w := range words {
			s.buf = binary.LittleEndian.AppendUint64(s.buf, w)
		}
		s.h.Write(s.buf)
		s.events++
	}
	m.Hooks.OnIns = func(t *vm.Thread, pc uint64, ins isa.Inst) {
		emit('i', uint64(t.TID), pc, uint64(ins.Op), uint64(ins.A), uint64(ins.B),
			uint64(ins.C), uint64(uint32(ins.Imm)), ins.Imm64)
	}
	m.Hooks.OnMemRead = func(t *vm.Thread, addr uint64, size int) {
		emit('r', uint64(t.TID), addr, uint64(size))
	}
	m.Hooks.OnMemWrite = func(t *vm.Thread, addr uint64, size int) {
		emit('w', uint64(t.TID), addr, uint64(size))
	}
	m.Hooks.OnBranch = func(t *vm.Thread, pc, target uint64, taken bool) {
		tk := uint64(0)
		if taken {
			tk = 1
		}
		emit('b', uint64(t.TID), pc, target, tk)
	}
	m.Hooks.OnMarker = func(t *vm.Thread, op isa.Op, tag uint32) {
		emit('m', uint64(t.TID), uint64(op), uint64(tag))
	}
	return s
}

func (s *hookStream) sum() string { return fmt.Sprintf("%d events, sha256 %x", s.events, s.h.Sum(nil)) }

// TestHookStreamPredecodedMatchesDecode is the hooked-path guard: with
// every observation hook installed, the predecoded fetch of the hooked
// interpreter must deliver the identical event stream — every OnIns pc
// and decoded instruction, every memory, branch and marker event — as the
// pure fetch/decode reference (DisableBlockCache), and retire the same
// architectural run.
func TestHookStreamPredecodedMatchesDecode(t *testing.T) {
	ma := guardMachine(t, 1)
	sa := recordHooks(ma)
	if err := ma.Run(); err != nil {
		t.Fatal(err)
	}
	mb := guardMachine(t, 1)
	mb.DisableBlockCache = true
	sb := recordHooks(mb)
	if err := mb.Run(); err != nil {
		t.Fatal(err)
	}
	if sa.events < 500_000 {
		t.Fatalf("reference workload too small: %d hook events", sa.events)
	}
	if a, b := sa.sum(), sb.sum(); a != b {
		t.Errorf("hook streams diverge:\npredecoded %s\nreference  %s", a, b)
	}
	if a, b := summarize(ma), summarize(mb); a != b {
		t.Errorf("runs diverge:\npredecoded %+v\nreference  %+v", a, b)
	}
	if ma.Threads[0].Regs != mb.Threads[0].Regs {
		t.Error("final register files diverge")
	}
}
