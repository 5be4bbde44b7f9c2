package bbv

import (
	"reflect"
	"testing"

	"elfie/internal/asm"
	"elfie/internal/isa"
	"elfie/internal/kernel"
	"elfie/internal/vm"
	"elfie/internal/workloads"
)

func collect(t *testing.T, src string, sliceSize uint64) (*Profile, *vm.Machine) {
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
	m.MaxInstructions = 10_000_000
	p, err := Collect(m, sliceSize)
	if err != nil {
		t.Fatal(err)
	}
	return p, m
}

func TestBlockDetection(t *testing.T) {
	// Two alternating loops with distinct bodies: the profile must contain
	// blocks for both loops, with the right weights.
	p, m := collect(t, `
	.text
	.global _start
_start:
	movi r8, 0
loopA:
	addi r1, r1, 1
	addi r8, r8, 1
	cmpi r8, 1000
	jnz  loopA
	movi r8, 0
loopB:
	muli r2, r2, 3
	addi r2, r2, 1
	addi r8, r8, 1
	cmpi r8, 1000
	jnz  loopB
	movi r0, 231
	movi r1, 0
	syscall
`, 1_000_000)
	if len(p.Slices) != 1 {
		t.Fatalf("slices: %d", len(p.Slices))
	}
	if p.TotalInstructions != m.GlobalRetired {
		t.Errorf("profiled %d, retired %d", p.TotalInstructions, m.GlobalRetired)
	}
	sl := p.Slices[0]
	var total uint64
	var loopWeights []uint64
	for _, c := range sl {
		total += uint64(c)
		if c >= 1000 {
			loopWeights = append(loopWeights, uint64(c))
		}
	}
	if total != p.TotalInstructions {
		t.Errorf("slice weight %d != %d", total, p.TotalInstructions)
	}
	// loopA body: 4 instructions x 999 iterations entered via the taken
	// back-edge (the first iteration belongs to the entry block, which is
	// a fall-through); loopB: 5 x 999.
	has4k, has5k := false, false
	for _, w := range loopWeights {
		if w == 4*999 {
			has4k = true
		}
		if w == 5*999 {
			has5k = true
		}
	}
	if !has4k || !has5k {
		t.Errorf("loop block weights: %v", loopWeights)
	}
}

func TestSliceBoundaries(t *testing.T) {
	p, _ := collect(t, `
	.text
	.global _start
_start:
	movi r8, 0
l:	addi r8, r8, 1
	cmpi r8, 40000
	jnz  l
	movi r0, 231
	movi r1, 0
	syscall
`, 25_000)
	// ~120k instructions -> 4 full slices + remainder.
	if len(p.Slices) < 4 {
		t.Fatalf("slices: %d", len(p.Slices))
	}
	for i, sl := range p.Slices[:len(p.Slices)-1] {
		var sum uint64
		for _, c := range sl {
			sum += uint64(c)
		}
		if sum != 25_000 {
			t.Errorf("slice %d weight %d", i, sum)
		}
	}
}

func TestOnlyThreadZeroProfiled(t *testing.T) {
	p, m := collect(t, `
	.text
	.global _start
_start:
	movi r0, 56
	movi r1, 0
	limm r2, stk+4096
	limm r3, w
	syscall
	movi r8, 0
a:	addi r8, r8, 1
	cmpi r8, 20000
	jnz  a
	movi r0, 60
	syscall
w:	movi r8, 0
b:	addi r8, r8, 1
	cmpi r8, 20000
	jnz  b
	movi r0, 60
	syscall
	.bss
stk: .space 4096
`, 1_000_000)
	if p.TotalInstructions >= m.GlobalRetired {
		t.Errorf("profiled %d of %d: worker thread leaked into the profile",
			p.TotalInstructions, m.GlobalRetired)
	}
	if p.TotalInstructions < 60_000 {
		t.Errorf("thread 0 profile too small: %d", p.TotalInstructions)
	}
}

// TestRunBatchingMatchesPerInstruction checks the collector, which credits
// a block's instructions once per block, against the per-instruction
// definition of a BBV on a generated workload: every instruction adds one
// to its block's entry, a block starts after each branch, and blocks that
// straddle a slice boundary are split between the two slices.
func TestRunBatchingMatchesPerInstruction(t *testing.T) {
	r := workloads.TrainIntRate()[1]
	r.Sequence = r.Sequence[:3]
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
	m.MaxInstructions = 2_000_000
	const slice = 30_011
	want := &Profile{SliceSize: slice}
	cur, n := Vector{}, uint64(0)
	var start uint64
	started, prevBranch := false, false
	m.Hooks.OnIns = func(th *vm.Thread, pc uint64, ins isa.Inst) {
		if th.TID != 0 {
			return
		}
		if !started || prevBranch {
			start, started = pc, true
		}
		cur[start]++
		prevBranch = isa.IsBranch(ins.Op)
		n++
		want.TotalInstructions++
		if n >= slice {
			want.Slices = append(want.Slices, cur)
			cur, n = Vector{}, 0
		}
	}
	got, err := Collect(m, slice)
	if err != nil {
		t.Fatal(err)
	}
	if n > 0 {
		want.Slices = append(want.Slices, cur)
	}
	if len(want.Slices) < 10 {
		t.Fatalf("workload too small: %d slices", len(want.Slices))
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("profiles differ: got %d slices, want %d", len(got.Slices), len(want.Slices))
	}
}
