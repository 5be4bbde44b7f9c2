package vm

import (
	"fmt"
	"testing"

	"elfie/internal/isa"
	"elfie/internal/mem"
)

// hookEvents installs every per-instruction observation hook on m and
// returns the event log they append to. Installing them forces the hooked
// per-instruction path (Machine.step), which with the block cache enabled
// fetches through the predecoded instruction slots.
func hookEvents(m *Machine) *[]string {
	var ev []string
	m.Hooks.OnIns = func(t *Thread, pc uint64, ins isa.Inst) {
		ev = append(ev, fmt.Sprintf("ins %#x %+v", pc, ins))
	}
	m.Hooks.OnMemRead = func(t *Thread, addr uint64, size int) {
		ev = append(ev, fmt.Sprintf("rd %#x/%d", addr, size))
	}
	m.Hooks.OnMemWrite = func(t *Thread, addr uint64, size int) {
		ev = append(ev, fmt.Sprintf("wr %#x/%d", addr, size))
	}
	m.Hooks.OnBranch = func(t *Thread, pc, target uint64, taken bool) {
		ev = append(ev, fmt.Sprintf("br %#x->%#x %v", pc, target, taken))
	}
	m.Hooks.OnMarker = func(t *Thread, op isa.Op, tag uint32) {
		ev = append(ev, fmt.Sprintf("mk %v %#x", op, tag))
	}
	return &ev
}

// equalEvents reports the first index where two hook event logs differ.
func equalEvents(t *testing.T, what string, got, want []string) {
	t.Helper()
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			t.Fatalf("%s: event %d differs:\npredecoded %s\nreference  %s", what, i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d events, reference has %d", what, len(got), len(want))
	}
}

// smcNextCode is a two-pass loop whose second pass stores over the
// instruction right after the store. The first pass executes that
// instruction in its original form, so the predecoded slot for it is
// filled with the stale decode before the store rewrites it.
func smcNextCode(newIns isa.Inst) []byte {
	return enc(
		isa.Inst{Op: isa.LIMM, A: 1, Imm64: 0x1048},         // 0x1000: r1 = &target
		isa.Inst{Op: isa.LIMM, A: 2, Imm64: leWord(newIns)}, // 0x1010: r2 = new word
		isa.Inst{Op: isa.MOVI, A: 5, Imm: 0},                // 0x1020: pass = 0
		isa.Inst{Op: isa.JMP, Imm: 0x18},                    // 0x1028: -> target
		isa.Inst{Op: isa.NOP},                               // 0x1030
		isa.Inst{Op: isa.NOP},                               // 0x1038
		isa.Inst{Op: isa.STQ, A: 2, B: 1},                   // 0x1040: rewrite next
		isa.Inst{Op: isa.MOVI, A: 3, Imm: 1},                // 0x1048: target
		isa.Inst{Op: isa.ADDI, A: 5, B: 5, Imm: 1},          // 0x1050
		isa.Inst{Op: isa.CMPI, B: 5, Imm: 2},                // 0x1058
		isa.Inst{Op: isa.JL, Imm: -0x28},                    // 0x1060: -> 0x1040
		isa.Inst{Op: isa.HLT},                               // 0x1068
	)
}

// Under hooks, a store to the next instruction must take effect at once:
// the predecoded slot filled on the first pass is dropped with the page's
// generation, and OnIns reports the new instruction.
func TestSelfModifyingCodeHooked(t *testing.T) {
	newIns := isa.Inst{Op: isa.MOVI, A: 3, Imm: 42}
	var logs [2][]string
	for i, disable := range []bool{false, true} {
		m, th := rawMachine(smcNextCode(newIns), 0x1000, 0x1000, mem.ProtRWX)
		m.DisableBlockCache = disable
		ev := hookEvents(m)
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		if th.Regs.GPR[3] != 42 {
			t.Errorf("disable=%v: executed stale instruction, r3 = %d, want 42", disable, th.Regs.GPR[3])
		}
		if th.Retired != 14 {
			t.Errorf("disable=%v: retired = %d, want 14", disable, th.Retired)
		}
		// The events just after the store: its OnMemWrite, then OnIns of
		// the rewritten instruction.
		var got string
		for j, e := range *ev {
			if e == "wr 0x1048/8" && j+1 < len(*ev) {
				got = (*ev)[j+1]
			}
		}
		if want := fmt.Sprintf("ins %#x %+v", 0x1048, newIns); got != want {
			t.Errorf("disable=%v: OnIns after the store = %q, want %q", disable, got, want)
		}
		logs[i] = *ev
	}
	equalEvents(t, "smc", logs[0], logs[1])
}

// Unmap + Map at the same address across two hooked runs of the same
// machine: the slots filled during the first run must not serve the old
// code.
func TestRemapInvalidationHooked(t *testing.T) {
	for _, disable := range []bool{false, true} {
		code1 := enc(isa.Inst{Op: isa.MOVI, A: 5, Imm: 1}, isa.Inst{Op: isa.HLT})
		m, th := rawMachine(code1, 0x1000, 0x1000, mem.ProtRX)
		m.DisableBlockCache = disable
		hookEvents(m)
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		if th.Regs.GPR[5] != 1 {
			t.Fatalf("disable=%v: first run: r5 = %d", disable, th.Regs.GPR[5])
		}

		as := m.Proc.AS
		as.Unmap(0x1000, mem.PageSize)
		as.Map(0x1000, mem.PageSize, mem.ProtRX)
		as.WriteNoFault(0x1000, enc(isa.Inst{Op: isa.MOVI, A: 5, Imm: 99}, isa.Inst{Op: isa.HLT}))

		m.Halted = false
		th.Alive = true
		th.Regs.PC = 0x1000
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		if th.Regs.GPR[5] != 99 {
			t.Errorf("disable=%v: stale slot survived remap: r5 = %d, want 99", disable, th.Regs.GPR[5])
		}
	}
}

// A page-straddling LIMM is never predecoded: its payload lives on the
// next page, whose generation the first page's slots do not track. A
// rewrite of the payload alone must show on the next hooked run.
func TestCrossPageLimmHooked(t *testing.T) {
	for _, disable := range []bool{false, true} {
		code := enc(
			isa.Inst{Op: isa.LIMM, A: 2, Imm64: 0xfeedfacecafe}, // word at 0x1ff8, payload at 0x2000
			isa.Inst{Op: isa.HLT},
		)
		m, th := rawMachine(code, 0x1000, 0x1ff8, mem.ProtRX)
		m.Proc.AS.WriteNoFault(0x1ff8, code)
		m.DisableBlockCache = disable
		hookEvents(m)
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		if th.Regs.GPR[2] != 0xfeedfacecafe {
			t.Fatalf("disable=%v: r2 = %#x", disable, th.Regs.GPR[2])
		}

		m.Proc.AS.WriteNoFault(0x2000, []byte{0xef, 0xbe, 0xad, 0xde, 0, 0, 0, 0})
		m.Halted = false
		th.Alive = true
		th.Regs.PC = 0x1ff8
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		if th.Regs.GPR[2] != 0xdeadbeef {
			t.Errorf("disable=%v: stale LIMM payload, r2 = %#x, want 0xdeadbeef", disable, th.Regs.GPR[2])
		}
	}
}

// The hooked stream must not depend on the cache's size: with the page
// bound shrunk to one entry, every page change evicts the other page's
// slots, and the events still match the fetch/decode reference.
func TestHookedEvictionMatchesReference(t *testing.T) {
	var logs [2][]string
	for i, disable := range []bool{false, true} {
		code := make([]byte, 2*mem.PageSize)
		// Page 0x1000 counts down r1 and calls into page 0x2000 each trip.
		encAt(code, 0,
			isa.Inst{Op: isa.MOVI, A: 1, Imm: 50},       // 0x1000
			isa.Inst{Op: isa.CALL, Imm: 0x1000 - 8 - 8}, // 0x1008: -> 0x2000
			isa.Inst{Op: isa.ADDI, A: 1, B: 1, Imm: -1}, // 0x1010
			isa.Inst{Op: isa.CMPI, B: 1, Imm: 0},        // 0x1018
			isa.Inst{Op: isa.JNZ, Imm: -0x20},           // 0x1020: -> 0x1008
			isa.Inst{Op: isa.HLT},                       // 0x1028
		)
		encAt(code, mem.PageSize,
			isa.Inst{Op: isa.ADD, A: 2, B: 2, C: 1},        // 0x2000
			isa.Inst{Op: isa.STQ, A: 2, B: 6, Imm: 0x3000}, // 0x2008
			isa.Inst{Op: isa.LDQ, A: 3, B: 6, Imm: 0x3000}, // 0x2010
			isa.Inst{Op: isa.RET},                          // 0x2018
		)
		m, th := rawMachine(code, 0x1000, 0x1000, mem.ProtRWX)
		th.Regs.GPR[isa.RSP] = 0x3800
		m.DisableBlockCache = disable
		m.cacheCap = 1
		ev := hookEvents(m)
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		if !m.Halted || th.Regs.GPR[3] != 50*51/2 {
			t.Fatalf("disable=%v: halted=%v r3=%d", disable, m.Halted, th.Regs.GPR[3])
		}
		logs[i] = *ev
	}
	equalEvents(t, "eviction", logs[0], logs[1])
}
