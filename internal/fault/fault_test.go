package fault

import (
	"reflect"
	"sync"
	"testing"
)

func u64(v uint64) *uint64 { return &v }

func TestNilInjectorIsOff(t *testing.T) {
	var in *Injector = New(nil)
	if in != nil {
		t.Fatal("nil plan must yield a nil injector")
	}
	if _, ok := in.SyscallErrno(0); ok {
		t.Error("nil injector injected a syscall error")
	}
	if n, ok := in.ShortIO(ShortRead, 0, 100); ok || n != 100 {
		t.Error("nil injector shortened IO")
	}
	if in.Trigger(MmapExhaust) {
		t.Error("nil injector triggered")
	}
	if got := in.CorruptFile("x.text", []byte{1, 2}); len(got) != 2 {
		t.Error("nil injector corrupted data")
	}
	if _, ok := in.VMFault(1 << 40); ok {
		t.Error("nil injector raised a VM fault")
	}
	if in.Events() != nil || in.InjectedCount() != 0 {
		t.Error("nil injector has events")
	}
}

func TestSyscallErrnoMatching(t *testing.T) {
	in := New(&Plan{Seed: 1, Rules: []Rule{
		{Point: SyscallError, Syscall: u64(0), Errno: 9, After: 1, Count: 2},
	}})
	// First trigger is skipped (After: 1).
	if _, ok := in.SyscallErrno(0); ok {
		t.Error("After not honoured")
	}
	// Non-matching syscall numbers never trigger.
	if _, ok := in.SyscallErrno(1); ok {
		t.Error("syscall filter not honoured")
	}
	for i := 0; i < 2; i++ {
		e, ok := in.SyscallErrno(0)
		if !ok || e != 9 {
			t.Fatalf("injection %d: errno=%d ok=%v", i, e, ok)
		}
	}
	// Count exhausted.
	if _, ok := in.SyscallErrno(0); ok {
		t.Error("Count not honoured")
	}
	if in.InjectedCount(SyscallError) != 2 {
		t.Errorf("events: %v", in.Events())
	}
}

func TestDefaultErrno(t *testing.T) {
	in := New(&Plan{Rules: []Rule{{Point: SyscallError}}})
	if e, ok := in.SyscallErrno(42); !ok || e != 5 {
		t.Errorf("default errno: %d ok=%v", e, ok)
	}
}

func TestShortIO(t *testing.T) {
	in := New(&Plan{Seed: 7, Rules: []Rule{{Point: ShortRead, Count: 3}}})
	for i := 0; i < 3; i++ {
		n, ok := in.ShortIO(ShortRead, 0, 1000)
		if !ok || n >= 1000 {
			t.Fatalf("short read %d: n=%d ok=%v", i, n, ok)
		}
	}
	if _, ok := in.ShortIO(ShortRead, 0, 1000); ok {
		t.Error("count exhausted but still injecting")
	}
	// A 1-byte transfer cannot be shortened.
	in2 := New(&Plan{Rules: []Rule{{Point: ShortRead}}})
	if _, ok := in2.ShortIO(ShortRead, 0, 1); ok {
		t.Error("shortened a 1-byte transfer")
	}
	// ShortWrite rules do not fire at the ShortRead point.
	in3 := New(&Plan{Rules: []Rule{{Point: ShortWrite}}})
	if _, ok := in3.ShortIO(ShortRead, 0, 100); ok {
		t.Error("point mismatch ignored")
	}
}

func TestCorruptFileDeterministic(t *testing.T) {
	data := make([]byte, 4096)
	run := func() []byte {
		in := New(&Plan{Seed: 99, Rules: []Rule{
			{Point: PinballBitflip, File: ".text", Count: 1, Offset: -1},
		}})
		return in.CorruptFile("sample.text", data)
	}
	a, b := run(), run()
	if reflect.DeepEqual(a, data) {
		t.Fatal("no corruption applied")
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed produced different corruption")
	}
	// Original buffer untouched.
	for _, v := range data {
		if v != 0 {
			t.Fatal("CorruptFile mutated its input")
		}
	}
}

func TestCorruptFileFilters(t *testing.T) {
	in := New(&Plan{Seed: 3, Rules: []Rule{
		{Point: PinballTruncate, File: ".reg", Offset: 4},
	}})
	if got := in.CorruptFile("sample.text", make([]byte, 100)); len(got) != 100 {
		t.Error("file filter not honoured")
	}
	if got := in.CorruptFile("sample.0.reg", make([]byte, 100)); len(got) != 4 {
		t.Errorf("truncation at fixed offset: len=%d", len(got))
	}
	if got := in.CorruptFile("x.reg", nil); got != nil {
		t.Error("empty file corrupted")
	}
}

func TestVMFaultOneShot(t *testing.T) {
	in := New(&Plan{Seed: 5, Rules: []Rule{
		{Point: UngracefulExit, AtRetired: 500},
	}})
	if _, ok := in.VMFault(499); ok {
		t.Error("fired before AtRetired")
	}
	p, ok := in.VMFault(500)
	if !ok || p != UngracefulExit {
		t.Fatalf("no fault at threshold: %v %v", p, ok)
	}
	if _, ok := in.VMFault(501); ok {
		t.Error("VM point fired twice (should be one-shot)")
	}
}

func TestProbabilityIsSeeded(t *testing.T) {
	count := func(seed int64) int {
		in := New(&Plan{Seed: seed, Rules: []Rule{{Point: SyscallError, Prob: 0.5}}})
		n := 0
		for i := 0; i < 200; i++ {
			if _, ok := in.SyscallErrno(1); ok {
				n++
			}
		}
		return n
	}
	a, b := count(11), count(11)
	if a != b {
		t.Errorf("same seed, different counts: %d vs %d", a, b)
	}
	if a < 50 || a > 150 {
		t.Errorf("p=0.5 over 200 trials injected %d times", a)
	}
}

// TestSitesIndependentOfArrivalOrder triggers three sites in two different
// interleavings: the injected events — which site a budgeted rule strikes,
// and every seeded offset and bit — must not depend on the order.
func TestSitesIndependentOfArrivalOrder(t *testing.T) {
	plan := &Plan{Seed: 44, Rules: []Rule{
		{Point: ElfieBitflip, Count: 1, Offset: -1},
		{Point: PinballBitflip, File: ".text", Prob: 0.5, Offset: -1},
		{Point: UngracefulExit, AtRetired: 10},
	}}
	sites := []string{"r.s3", "r.s0", "r.s7"}
	run := func(arrival []int) []Event {
		in := New(plan)
		in.SetOrder(sites)
		for _, i := range arrival {
			s := in.Site(sites[i])
			s.CorruptRestoreStub(sites[i], make([]byte, 64))
			for f := 0; f < 4; f++ {
				s.CorruptFile(sites[i]+".text", make([]byte, 256))
			}
			s.VMFault(5)
			s.VMFault(10)
			s.VMFault(11)
		}
		return in.Events()
	}
	a, b := run([]int{0, 1, 2}), run([]int{2, 1, 0})
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("events depend on arrival order:\n%+v\n%+v", a, b)
	}
	// The same sites driven from concurrent goroutines, as the farm does.
	in := New(plan)
	in.SetOrder(sites)
	var wg sync.WaitGroup
	for _, site := range sites {
		wg.Add(1)
		go func(site string) {
			defer wg.Done()
			s := in.Site(site)
			s.CorruptRestoreStub(site, make([]byte, 64))
			for f := 0; f < 4; f++ {
				s.CorruptFile(site+".text", make([]byte, 256))
			}
			s.VMFault(5)
			s.VMFault(10)
			s.VMFault(11)
		}(site)
	}
	wg.Wait()
	if c := in.Events(); !reflect.DeepEqual(a, c) {
		t.Fatalf("events depend on concurrent interleaving:\n%+v\n%+v", a, c)
	}
	var budgeted int
	for _, e := range a {
		if e.Point == ElfieBitflip || e.Point == UngracefulExit {
			budgeted++
			if e.Site != "r.s3" {
				t.Errorf("budgeted rule struck %q, want the first canonical site r.s3: %+v", e.Site, e)
			}
		}
	}
	if budgeted != 2 {
		t.Errorf("budgeted injections = %d, want 2 (one per rule): %+v", budgeted, a)
	}
	// Unbudgeted probabilistic rules are drawn per site: over 12 reads at
	// p=0.5 some, but not all, inject.
	if n := len(a) - budgeted; n == 0 || n == 12 {
		t.Errorf("p=0.5 rule injected %d of 12 reads", n)
	}
	// A site view of a nil injector is nil (injection off).
	var off *Injector
	if off.Site("x") != nil {
		t.Error("nil injector yielded a site view")
	}
}
