package harness

import (
	"errors"
	"fmt"

	"elfie/internal/pinball"
	"elfie/internal/vm"
)

// This file implements live mid-run checkpointing: freezing a running
// session back into a pinball that Config{Pinball: ...} resumes. The
// checkpoint is the paper's durable-artifact idea applied to in-flight
// work — a hung or killed region job restarts from its last checkpoint
// instead of the region start (CheckSync-style), and the resumed run
// retires the identical instruction stream an uninterrupted run would
// have (see TestCheckpointBitIdentity).
//
// Resume restarts the machine's retired counters at zero: the checkpoint
// rewrites RegionLength to the per-thread *remainders*, rebases the
// virtual clock so guest time continues seamlessly, re-arms perf counters
// at their absolute counts, and serializes the scheduler's PRNG so the
// quantum sequence continues mid-stream.

// ErrInterrupted is returned by RunCheckpointed when an external
// RequestStop cut the run short; the final checkpoint was saved before it
// is returned, so the caller can retry from it.
var ErrInterrupted = errors.New("harness: run interrupted")

// InjectCursor walks a pinball's syscall-effect log in per-thread program
// order — the replayer's injection queues — while remembering enough to
// serialize the unconsumed tail into a mid-run checkpoint.
type InjectCursor struct {
	effects []pinball.SyscallEffect
	queues  map[int][]int // tid -> indices into effects, program order
	pos     map[int]int   // tid -> consumed prefix of queues[tid]
}

// NewInjectCursor builds a cursor over a pinball's effect log.
func NewInjectCursor(effects []pinball.SyscallEffect) *InjectCursor {
	c := &InjectCursor{
		effects: effects,
		queues:  make(map[int][]int),
		pos:     make(map[int]int),
	}
	for i := range effects {
		tid := effects[i].TID
		c.queues[tid] = append(c.queues[tid], i)
	}
	return c
}

// Next pops the next logged effect for a thread; ok=false when the
// thread's log is exhausted (an unlogged-syscall divergence).
func (c *InjectCursor) Next(tid int) (*pinball.SyscallEffect, bool) {
	q, p := c.queues[tid], c.pos[tid]
	if p >= len(q) {
		return nil, false
	}
	c.pos[tid] = p + 1
	return &c.effects[q[p]], true
}

// Remaining returns the unconsumed effects in original log order — the
// .sel content of a mid-run checkpoint.
func (c *InjectCursor) Remaining() []pinball.SyscallEffect {
	consumed := make(map[int]bool)
	for tid, p := range c.pos {
		for j := 0; j < p; j++ {
			consumed[c.queues[tid][j]] = true
		}
	}
	var out []pinball.SyscallEffect
	for i := range c.effects {
		if !consumed[i] {
			out = append(out, c.effects[i])
		}
	}
	return out
}

// CheckpointState freezes the session into an in-memory checkpoint
// pinball named name. The machine must not be running concurrently. The
// resulting pinball resumes through Config{Pinball: ...}: its memory image
// and registers are the live state, its RegionLength/TotalInstructions are
// the per-thread remainders, its .sel and .race files are the unconsumed
// injection log and schedule, and its Checkpoint metadata carries the
// kernel and scheduler state resume needs.
func (s *Session) CheckpointState(name string) (*pinball.Pinball, error) {
	m, k := s.Machine, s.Kernel
	proc := m.Proc
	pb := &pinball.Pinball{Name: name}

	for _, r := range proc.AS.Regions() {
		data := make([]byte, r.Size)
		proc.AS.ReadNoFault(r.Addr, data)
		pb.Pages = append(pb.Pages, pinball.Page{Addr: r.Addr, Prot: r.Prot, Data: data})
	}

	orig := s.cfg.Pinball
	threads := make([]pinball.ThreadState, len(m.Threads))
	regionLen := make([]uint64, len(m.Threads))
	var total uint64
	for i, t := range m.Threads {
		pb.Regs = append(pb.Regs, t.Regs)
		threads[i] = pinball.ThreadState{
			Alive: t.Alive, ExitStatus: t.ExitStatus,
			Retired: t.Retired, Perf: t.PerfState(),
		}
		if orig != nil && i < len(orig.Meta.RegionLength) &&
			orig.Meta.RegionLength[i] > t.Retired {
			regionLen[i] = orig.Meta.RegionLength[i] - t.Retired
		}
		total += regionLen[i]
	}

	sst := pinball.SchedState{PauseDoesNotYield: m.PauseDoesNotYield}
	switch sch := m.Sched.(type) {
	case *vm.TraceScheduler:
		sst.Kind = pinball.SchedKindTrace
		pb.Sched = sch.Remaining()
	case *vm.RoundRobin:
		sst.Kind = pinball.SchedKindRR
		ptid, pn := m.PendingQuantum()
		st := sch.State(pn)
		sst.RR = &st
		sst.PendingTID, sst.PendingN = ptid, pn
	default:
		return nil, fmt.Errorf("harness: scheduler %T is not checkpointable", m.Sched)
	}

	if s.Cursor != nil {
		pb.Syscalls = s.Cursor.Remaining()
	}

	var budgetRem uint64
	if s.budget > m.GlobalRetired {
		budgetRem = s.budget - m.GlobalRetired
	}
	pb.Meta = pinball.Meta{
		ProgramName:       s.originName(),
		NumThreads:        len(m.Threads),
		RegionLength:      regionLen,
		TotalInstructions: total,
		Fat:               true,
		BrkStart:          proc.BrkStart,
		Brk:               proc.Brk,
	}
	if orig != nil {
		pb.Meta.RegionStartIcount = orig.Meta.RegionStartIcount + m.GlobalRetired
		pb.Meta.StackRegions = orig.Meta.StackRegions
		if orig.Meta.WarmupLength > m.GlobalRetired {
			pb.Meta.WarmupLength = orig.Meta.WarmupLength - m.GlobalRetired
		}
	}
	pb.FS = k.FS.Snapshot()
	pb.Meta.Checkpoint = &pinball.CheckpointMeta{
		Origin:             s.originName(),
		GlobalRetired:      m.GlobalRetired,
		Threads:            threads,
		ClockBase:          k.Clock.Now(m.GlobalRetired),
		ClockNanosPerInstr: k.Clock.NanosPerInstr,
		BudgetRemaining:    budgetRem,
		Sched:              sst,
		Proc:               proc.State(),
	}
	return pb, nil
}

// originName names what this run started from, threaded through chained
// checkpoints so a checkpoint-of-a-checkpoint still names the root.
func (s *Session) originName() string {
	if pb := s.cfg.Pinball; pb != nil {
		if pb.Meta.Checkpoint != nil && pb.Meta.Checkpoint.Origin != "" {
			return pb.Meta.Checkpoint.Origin
		}
		return pb.Name
	}
	if len(s.cfg.Argv) > 0 {
		return s.cfg.Argv[0]
	}
	return "exe"
}

// Checkpoint freezes the session into a checkpoint pinball named name and
// saves its file set into dir.
func (s *Session) Checkpoint(dir, name string) (*pinball.Pinball, error) {
	pb, err := s.CheckpointState(name)
	if err != nil {
		return nil, err
	}
	if err := pb.Save(dir); err != nil {
		return nil, err
	}
	return pb, nil
}

// CkptOptions configures RunCheckpointed.
type CkptOptions struct {
	// Every takes a checkpoint each time this many more instructions have
	// retired (0 = only checkpoint on interruption).
	Every uint64
	// Name names the checkpoint pinballs.
	Name string
	// Save persists each checkpoint (to a store, a directory, ...). It is
	// called on every periodic checkpoint and on interruption.
	Save func(*pinball.Pinball) error
}

// RunCheckpointed runs the session to completion, taking periodic
// checkpoints and a final one if an external RequestStop (a watchdog)
// interrupts the run — in which case it returns ErrInterrupted after the
// checkpoint is saved, so the caller can resume from it.
func (s *Session) RunCheckpointed(opts CkptOptions) error {
	if opts.Name == "" {
		opts.Name = s.originName() + ".ckpt"
	}
	m := s.Machine
	for {
		target := s.budget
		if opts.Every > 0 {
			next := m.GlobalRetired + opts.Every
			if target == 0 || next < target {
				target = next
			}
		}
		m.MaxInstructions = target
		before := m.GlobalRetired
		if err := s.Run(); err != nil {
			return err
		}
		if m.StopRequested() {
			if opts.Save != nil {
				pb, err := s.CheckpointState(opts.Name)
				if err != nil {
					return err
				}
				if err := opts.Save(pb); err != nil {
					return err
				}
			}
			return WrapRun(s.cfg.Mode, ErrInterrupted)
		}
		if m.Halted || m.AliveCount() == 0 {
			return nil
		}
		if s.budget > 0 && m.GlobalRetired >= s.budget {
			return nil
		}
		if m.GlobalRetired == before {
			return nil // no forward progress; avoid spinning
		}
		if opts.Every == 0 {
			return nil
		}
		if opts.Save != nil {
			pb, err := s.CheckpointState(opts.Name)
			if err != nil {
				return err
			}
			if err := opts.Save(pb); err != nil {
				return err
			}
		}
	}
}
