// Package fault is a seeded, deterministic fault-injection framework for
// the checkpoint pipeline. A Plan describes *what* to break (rules bound to
// named injection points); an Injector evaluates the rules at run time.
//
// Injection points are wired into three layers:
//
//   - internal/kernel: system-call error returns, short reads/writes,
//     mmap/brk exhaustion (Kernel.Fault);
//   - internal/pinball: truncation and bit-flips applied to checkpoint
//     files as they are read (pinball.ReadOptions.Fault);
//   - internal/vm: forced page faults and ungraceful exits at a chosen
//     retired-instruction count (Machine.FaultInj).
//
// Every consumer treats a nil *Injector as "injection off", so the zero
// configuration adds a single nil check and nothing else. All randomness
// comes from Plan.Seed, so a plan replays identically run to run: the same
// calls trigger the same faults in the same order. Under a concurrent
// pipeline, site views (Injector.Site) keep every decision independent of
// the schedule.
package fault

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strings"
	"sync"
)

// Point names one injection point.
type Point string

// Injection points.
const (
	// SyscallError makes a matching system call return Rule.Errno without
	// executing.
	SyscallError Point = "syscall-error"
	// ShortRead truncates the byte count of a read() before it completes.
	ShortRead Point = "short-read"
	// ShortWrite truncates the byte count of a write() before it completes.
	ShortWrite Point = "short-write"
	// MmapExhaust makes an anonymous mmap() fail with ENOMEM.
	MmapExhaust Point = "mmap-exhaust"
	// BrkExhaust makes a growing brk() refuse to move the break.
	BrkExhaust Point = "brk-exhaust"
	// PinballTruncate drops the tail of a pinball file as it is read.
	PinballTruncate Point = "pinball-truncate"
	// PinballBitflip flips one bit of a pinball file as it is read.
	PinballBitflip Point = "pinball-bitflip"
	// ElfieBitflip flips one bit of an opcode byte inside a generated
	// ELFie's restore stub after conversion — the defect class the static
	// verifier (internal/elflint) exists to catch before anything runs.
	ElfieBitflip Point = "elfie-bitflip"
	// PageFault raises a synthetic page fault at Rule.AtRetired retired
	// instructions (recoverable by a vm.Hooks.OnFault handler).
	PageFault Point = "page-fault"
	// UngracefulExit kills the process at Rule.AtRetired retired
	// instructions — the divergent-ELFie death the paper's §I describes.
	UngracefulExit Point = "ungraceful-exit"
)

// Rule arms one injection point. Zero fields mean "no restriction":
// a rule with only Point set fires on every eligible trigger.
type Rule struct {
	Point Point `json:"point"`
	// Syscall restricts syscall-targeted points to one syscall number;
	// nil matches any call.
	Syscall *uint64 `json:"syscall,omitempty"`
	// Errno is the error returned by SyscallError injections (default EIO=5).
	Errno int `json:"errno,omitempty"`
	// After skips the first N eligible triggers before injecting.
	After uint64 `json:"after,omitempty"`
	// Count caps the number of injections this rule performs.
	// 0 means unlimited, except for the one-shot VM points (PageFault,
	// UngracefulExit) where 0 means 1.
	Count uint64 `json:"count,omitempty"`
	// Prob injects with this probability per eligible trigger (0 => always).
	Prob float64 `json:"prob,omitempty"`
	// AtRetired is the machine-wide retired-instruction count at which the
	// VM points trigger.
	AtRetired uint64 `json:"at_retired,omitempty"`
	// File restricts pinball points to files whose name contains this
	// substring ("" matches any file).
	File string `json:"file,omitempty"`
	// Offset selects the corruption position for pinball points; negative
	// or out-of-range picks a seeded-random position.
	Offset int64 `json:"offset,omitempty"`
}

// Plan is a reproducible fault schedule: a seed plus the rules to apply.
type Plan struct {
	Seed  int64  `json:"seed"`
	Rules []Rule `json:"rules"`
}

// Event records one injected fault.
type Event struct {
	Point Point
	// Site is the injection site the fault struck ("" for an injector
	// used without sites; see Injector.Site).
	Site   string
	Detail string
}

// ruleState tracks one rule's trigger and injection counts at one site.
type ruleState struct {
	Rule
	triggers uint64
	injected uint64
}

// Injector evaluates a Plan. All methods are safe on a nil receiver and
// report "no fault", so callers hold a possibly-nil *Injector and call
// through unconditionally only after a nil check on the hot paths.
//
// Sites. When one pipeline fans work out across concurrent workers, each
// unit of work (a region: its pinball reads, restore stub, replay and
// ELFie runs) triggers through its own site view, Site(key), and the
// pipeline declares the canonical site order with SetOrder. Every
// decision is then a pure function of the plan seed, the rule index, the
// site key and the site's own trigger sequence, never of which worker
// arrives first:
//
//   - a site's trigger counters (After) and its random draws (Prob,
//     corruption offsets and bits) are its own; the draws come from a
//     generator seeded by hashing (plan seed, rule index, site key, file);
//   - a rule with an injection budget (Count, or the one-shot VM points)
//     spends the whole budget at one victim site: the first site of the
//     canonical order. Other sites never draw on it.
//
// Without a declared order the injector New returns is its own single
// site and owns every budget (site views own none), which is the
// sequential semantics of one machine.
//
// An Injector and its site views are safe for concurrent use; they share
// one lock and one event log.
type Injector struct {
	sh    *shared
	site  string
	rules []*ruleState
	rngs  map[rngKey]*rand.Rand
}

// shared is the state common to an injector and all its site views.
type shared struct {
	mu     sync.Mutex
	seed   int64
	plan   []Rule
	order  []string       // canonical site order; nil: none declared
	rank   map[string]int // site -> index in order
	sites  map[string]*Injector
	events []Event
}

// rngKey names one random stream of a site: a rule and the file (or
// other sub-key) the draws are for.
type rngKey struct {
	rule int
	key  string
}

// New builds an injector for a plan. A nil plan yields a nil injector
// (injection off).
func New(p *Plan) *Injector {
	if p == nil {
		return nil
	}
	sh := &shared{seed: p.Seed, sites: make(map[string]*Injector)}
	for _, r := range p.Rules {
		if r.Errno == 0 {
			r.Errno = 5 // EIO
		}
		sh.plan = append(sh.plan, r)
	}
	return sh.site("")
}

// site returns the view for key, creating it on first use. The caller
// holds sh.mu, or is New, which runs before the injector is shared.
func (sh *shared) site(key string) *Injector {
	if in := sh.sites[key]; in != nil {
		return in
	}
	in := &Injector{sh: sh, site: key, rngs: make(map[rngKey]*rand.Rand)}
	for _, r := range sh.plan {
		in.rules = append(in.rules, &ruleState{Rule: r})
	}
	sh.sites[key] = in
	return in
}

// Site returns the injector's view for one injection site, such as a
// region's pinball name. The same key always yields the same view, so a
// site's counters persist across the stages that trigger through it. A
// nil injector yields nil.
func (in *Injector) Site(key string) *Injector {
	if in == nil {
		return nil
	}
	in.sh.mu.Lock()
	defer in.sh.mu.Unlock()
	return in.sh.site(key)
}

// SetOrder declares the canonical site order: budgeted rules strike the
// first site of it, and Events lists faults in it.
func (in *Injector) SetOrder(keys []string) {
	if in == nil {
		return
	}
	in.sh.mu.Lock()
	defer in.sh.mu.Unlock()
	in.sh.order = append([]string{}, keys...)
	in.sh.rank = make(map[string]int, len(keys))
	for i, k := range keys {
		if _, dup := in.sh.rank[k]; !dup {
			in.sh.rank[k] = i
		}
	}
}

// victim reports whether this site may spend injection budgets.
func (in *Injector) victim() bool {
	if in.sh.order == nil {
		return in.site == ""
	}
	return len(in.sh.order) > 0 && in.site == in.sh.order[0]
}

// rng returns the site's random stream for rule ri and sub-key key.
func (in *Injector) rng(ri int, key string) *rand.Rand {
	k := rngKey{ri, key}
	r := in.rngs[k]
	if r == nil {
		h := fnv.New64a()
		var b [16]byte
		binary.LittleEndian.PutUint64(b[:8], uint64(in.sh.seed))
		binary.LittleEndian.PutUint64(b[8:], uint64(ri))
		h.Write(b[:])
		h.Write([]byte(in.site))
		h.Write([]byte{0})
		h.Write([]byte(key))
		r = rand.New(rand.NewSource(int64(h.Sum64())))
		in.rngs[k] = r
	}
	return r
}

// fire reports whether an eligible trigger of rule ri (sub-key key)
// should inject now, advancing the site's deterministic counters.
func (in *Injector) fire(ri int, key string, oneShot bool) bool {
	rs := in.rules[ri]
	rs.triggers++
	if rs.triggers <= rs.After {
		return false
	}
	limit := rs.Count
	if limit == 0 && oneShot {
		limit = 1
	}
	if limit > 0 && (rs.injected >= limit || !in.victim()) {
		return false
	}
	if rs.Prob > 0 && rs.Prob < 1 && in.rng(ri, key).Float64() >= rs.Prob {
		return false
	}
	rs.injected++
	return true
}

func (in *Injector) record(p Point, format string, args ...any) {
	in.sh.events = append(in.sh.events, Event{Point: p, Site: in.site, Detail: fmt.Sprintf(format, args...)})
}

// SyscallErrno reports whether a SyscallError rule fires for syscall num,
// returning the errno to inject.
func (in *Injector) SyscallErrno(num uint64) (int, bool) {
	if in == nil {
		return 0, false
	}
	in.sh.mu.Lock()
	defer in.sh.mu.Unlock()
	for ri, rs := range in.rules {
		if rs.Point != SyscallError {
			continue
		}
		if rs.Syscall != nil && *rs.Syscall != num {
			continue
		}
		if in.fire(ri, "", false) {
			in.record(SyscallError, "syscall %d -> errno %d", num, rs.Errno)
			return rs.Errno, true
		}
	}
	return 0, false
}

// ShortIO shortens an I/O transfer of n bytes at point p (ShortRead or
// ShortWrite), returning the reduced count. Transfers of 0 or 1 bytes
// cannot be shortened.
func (in *Injector) ShortIO(p Point, num uint64, n uint64) (uint64, bool) {
	if in == nil || n <= 1 {
		return n, false
	}
	in.sh.mu.Lock()
	defer in.sh.mu.Unlock()
	for ri, rs := range in.rules {
		if rs.Point != p {
			continue
		}
		if rs.Syscall != nil && *rs.Syscall != num {
			continue
		}
		if in.fire(ri, "", false) {
			short := uint64(in.rng(ri, "").Int63n(int64(n)))
			in.record(p, "syscall %d: %d -> %d bytes", num, n, short)
			return short, true
		}
	}
	return n, false
}

// Trigger reports whether a parameterless kernel point (MmapExhaust,
// BrkExhaust) fires.
func (in *Injector) Trigger(p Point) bool {
	if in == nil {
		return false
	}
	in.sh.mu.Lock()
	defer in.sh.mu.Unlock()
	for ri, rs := range in.rules {
		if rs.Point != p {
			continue
		}
		if in.fire(ri, "", false) {
			in.record(p, "injected")
			return true
		}
	}
	return false
}

// CorruptFile applies any matching pinball corruption rules to the contents
// of a checkpoint file. It never mutates data in place: if a rule fires the
// returned slice is a corrupted copy.
func (in *Injector) CorruptFile(name string, data []byte) []byte {
	if in == nil {
		return data
	}
	in.sh.mu.Lock()
	defer in.sh.mu.Unlock()
	for ri, rs := range in.rules {
		if rs.Point != PinballTruncate && rs.Point != PinballBitflip {
			continue
		}
		if rs.File != "" && !strings.Contains(name, rs.File) {
			continue
		}
		if len(data) == 0 || !in.fire(ri, name, false) {
			continue
		}
		rng := in.rng(ri, name)
		off := rs.Offset
		if off < 0 || off >= int64(len(data)) {
			off = rng.Int63n(int64(len(data)))
		}
		switch rs.Point {
		case PinballTruncate:
			data = append([]byte(nil), data[:off]...)
			in.record(PinballTruncate, "%s truncated to %d bytes", name, off)
		case PinballBitflip:
			data = append([]byte(nil), data...)
			bit := byte(1) << uint(rng.Intn(8))
			data[off] ^= bit
			in.record(PinballBitflip, "%s bit %#02x flipped at offset %d", name, bit, off)
		}
	}
	return data
}

// CorruptRestoreStub applies any matching ElfieBitflip rules to a restore
// stub's code bytes. The flip lands on the opcode byte of an
// instruction-aligned word, so the damage is always semantic (a different
// or undecodable instruction), never a silent immediate change. Like
// CorruptFile it never mutates in place: if a rule fires the returned slice
// is a corrupted copy.
func (in *Injector) CorruptRestoreStub(name string, code []byte) ([]byte, bool) {
	if in == nil || len(code) < 8 {
		return code, false
	}
	in.sh.mu.Lock()
	defer in.sh.mu.Unlock()
	for ri, rs := range in.rules {
		if rs.Point != ElfieBitflip {
			continue
		}
		if rs.File != "" && !strings.Contains(name, rs.File) {
			continue
		}
		if !in.fire(ri, name, false) {
			continue
		}
		rng := in.rng(ri, name)
		words := int64(len(code) / 8)
		off := rs.Offset * 8
		if rs.Offset < 0 || rs.Offset >= words {
			off = rng.Int63n(words) * 8
		}
		out := append([]byte(nil), code...)
		bit := byte(1) << uint(rng.Intn(8))
		out[off] ^= bit
		in.record(ElfieBitflip, "%s opcode bit %#02x flipped at stub offset %d", name, bit, off)
		return out, true
	}
	return code, false
}

// VMFault reports whether a VM point (PageFault or UngracefulExit) triggers
// at the given machine-wide retired-instruction count. VM rules are
// one-shot unless Count raises the limit.
func (in *Injector) VMFault(retired uint64) (Point, bool) {
	if in == nil {
		return "", false
	}
	in.sh.mu.Lock()
	defer in.sh.mu.Unlock()
	for ri, rs := range in.rules {
		if rs.Point != PageFault && rs.Point != UngracefulExit {
			continue
		}
		if retired < rs.AtRetired {
			continue
		}
		if in.fire(ri, "", true) {
			in.record(rs.Point, "at retired=%d", retired)
			return rs.Point, true
		}
	}
	return "", false
}

// Events returns the faults injected so far: by site in the canonical
// order (sites outside it after, by key), and in injection order within
// a site, so the list is the same however concurrent sites interleaved.
func (in *Injector) Events() []Event {
	if in == nil {
		return nil
	}
	in.sh.mu.Lock()
	defer in.sh.mu.Unlock()
	out := append([]Event(nil), in.sh.events...)
	rank := func(site string) int {
		if r, ok := in.sh.rank[site]; ok {
			return r
		}
		return len(in.sh.order)
	}
	sort.SliceStable(out, func(i, j int) bool {
		ri, rj := rank(out[i].Site), rank(out[j].Site)
		if ri != rj {
			return ri < rj
		}
		return out[i].Site < out[j].Site
	})
	return out
}

// InjectedCount returns the number of injections at the given points
// (all points when none are named).
func (in *Injector) InjectedCount(points ...Point) int {
	if in == nil {
		return 0
	}
	in.sh.mu.Lock()
	defer in.sh.mu.Unlock()
	if len(points) == 0 {
		return len(in.sh.events)
	}
	n := 0
	for _, e := range in.sh.events {
		for _, p := range points {
			if e.Point == p {
				n++
				break
			}
		}
	}
	return n
}
