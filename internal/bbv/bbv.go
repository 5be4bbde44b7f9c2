// Package bbv implements basic-block-vector profiling, the input to the
// SimPoint phase-detection methodology. It attaches to the VM's
// instrumentation hooks, as the PinPoints kit's profilers attach to Pin.
package bbv

import (
	"elfie/internal/harness"
	"elfie/internal/isa"
	"elfie/internal/vm"
)

// Vector is one slice's basic-block vector: execution weight (instructions
// retired) per basic-block start address.
type Vector map[uint64]uint32

// Profile is the per-slice BBV sequence of one program run.
type Profile struct {
	SliceSize uint64
	Slices    []Vector
	// TotalInstructions profiled (thread 0).
	TotalInstructions uint64
}

// Collector is the profiling tool. Slices are counted over thread 0's
// instruction stream (the SimPoint convention for rate runs).
type Collector struct {
	SliceSize uint64
	profile   *Profile

	cur      Vector
	curCount uint64
	// start is the start PC of thread 0's current basic block (valid once
	// started is set); prevBranch records that the previous instruction
	// ended it. run counts the block's instructions not yet added to cur,
	// so the vector is updated once per block, not once per instruction.
	start      uint64
	started    bool
	prevBranch bool
	run        uint32
}

// NewCollector creates a collector with the given slice size.
func NewCollector(sliceSize uint64) *Collector {
	return &Collector{
		SliceSize: sliceSize,
		profile:   &Profile{SliceSize: sliceSize},
		cur:       make(Vector),
	}
}

// Attach installs the collector on a machine (composing with existing
// hooks).
func (c *Collector) Attach(m *vm.Machine) {
	prev := m.Hooks.OnIns
	m.Hooks.OnIns = func(t *vm.Thread, pc uint64, ins isa.Inst) {
		if prev != nil {
			prev(t, pc, ins)
		}
		c.observe(t.TID, pc, ins)
	}
}

func (c *Collector) observe(tid int, pc uint64, ins isa.Inst) {
	if tid != 0 {
		return
	}
	if !c.started || c.prevBranch {
		c.addRun()
		c.start, c.started = pc, true
	}
	c.run++
	c.prevBranch = isa.IsBranch(ins.Op)
	c.curCount++
	c.profile.TotalInstructions++
	if c.curCount >= c.SliceSize {
		c.flush()
	}
}

// addRun credits the current block's pending instructions to the slice.
func (c *Collector) addRun() {
	if c.run > 0 {
		c.cur[c.start] += c.run
		c.run = 0
	}
}

func (c *Collector) flush() {
	c.addRun()
	if c.curCount == 0 {
		return
	}
	c.profile.Slices = append(c.profile.Slices, c.cur)
	c.cur = make(Vector)
	c.curCount = 0
}

// Finish closes the last (possibly partial) slice and returns the profile.
func (c *Collector) Finish() *Profile {
	c.flush()
	return c.profile
}

// Collect runs the machine to completion under profiling.
func Collect(m *vm.Machine, sliceSize uint64) (*Profile, error) {
	c := NewCollector(sliceSize)
	c.Attach(m)
	if err := harness.WrapRun(harness.ModeMeasure, m.Run()); err != nil {
		return nil, err
	}
	return c.Finish(), nil
}

// CollectSession runs a harness-built session to completion under profiling.
func CollectSession(s *harness.Session, sliceSize uint64) (*Profile, error) {
	c := NewCollector(sliceSize)
	c.Attach(s.Machine)
	if err := s.Run(); err != nil {
		return nil, err
	}
	return c.Finish(), nil
}
