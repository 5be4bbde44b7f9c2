package pinpoints

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"elfie/internal/fault"
	"elfie/internal/kernel"
	"elfie/internal/pinball"
)

// chaosPlans are the seeded fault plans the pipeline must degrade under:
// storage corruption, an injected system-call failure, and a forced
// ungraceful ELFie death. Each plan injects exactly one fault (Count/one-shot
// budgets), so every injection must map to exactly one recorded failure.
func chaosPlans() map[string]*fault.Plan {
	perfOpen := uint64(kernel.SysPerfOpen)
	return map[string]*fault.Plan{
		"pinball-corruption": {Seed: 11, Rules: []fault.Rule{
			{Point: fault.PinballBitflip, File: ".text", Count: 1, Offset: -1},
		}},
		"syscall-failure": {Seed: 22, Rules: []fault.Rule{
			{Point: fault.SyscallError, Syscall: &perfOpen, Errno: kernel.ENOSYS, Count: 1},
		}},
		"forced-ungraceful-exit": {Seed: 33, Rules: []fault.Rule{
			{Point: fault.UngracefulExit, AtRetired: 1000},
		}},
		"elfie-restore-bitflip": {Seed: 44, Rules: []fault.Rule{
			{Point: fault.ElfieBitflip, Count: 1, Offset: -1},
		}},
	}
}

func TestChaosPipelineDegradesGracefully(t *testing.T) {
	for name, plan := range chaosPlans() {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("pipeline panicked under fault plan: %v", r)
				}
			}()
			cfg := smallConfig()
			cfg.Fault = plan
			b, err := Prepare(smallRecipe(), cfg)
			if err != nil {
				// Total failure must be typed, never an untyped abort.
				if !errors.Is(err, ErrAllRegionsFailed) {
					t.Fatalf("untyped Prepare failure: %v", err)
				}
				return
			}
			v, err := ValidateNative(b, 7)
			if err != nil {
				t.Fatalf("validation errored (should degrade instead): %v", err)
			}

			injected := b.FaultInjector().InjectedCount()
			if injected == 0 {
				t.Fatalf("plan injected nothing; events: %v", b.FaultInjector().Events())
			}
			d := v.Degradation
			if d.Recovered+d.Dropped != injected {
				t.Errorf("recovered %d + dropped %d != %d injected faults; events: %+v",
					d.Recovered, d.Dropped, injected, d.Events)
			}
			for _, ev := range d.Events {
				if ev.Err == nil || ev.Kind == "" || ev.Action == "" {
					t.Errorf("incomplete failure record: %+v", ev)
				}
			}

			// The CPI that comes out must be real, not silently wrong:
			// surviving regions carry plausible CPIs, dropped weight is
			// accounted, and the prediction error stays in the usual band.
			if v.TrueCPI <= 0.2 || v.TrueCPI > 20 {
				t.Fatalf("true CPI = %v", v.TrueCPI)
			}
			for _, rc := range v.PerRegion {
				if rc.OK && (rc.CPI <= 0.2 || rc.CPI > 20) {
					t.Errorf("implausible region CPI %v: %+v", rc.CPI, rc)
				}
			}
			if got := v.Coverage + d.CoverageLost; math.Abs(got-1) > 0.01 {
				t.Errorf("coverage %v + lost %v != 1", v.Coverage, d.CoverageLost)
			}
			if v.Coverage > 0 && math.Abs(v.Error) > 0.35 {
				t.Errorf("degraded prediction error = %+.1f%%", 100*v.Error)
			}
			t.Logf("%s: injected=%d %s; %s", name, injected, d, v)
		})
	}
}

// chaosResult is what one chaos pipeline run must reproduce at any
// worker count.
type chaosResult struct {
	events             []fault.Event
	recovered, dropped int
	allFailed          bool
	predictedCPI       float64
}

// chaosOutcome runs the full pipeline (Prepare + native validation) under a
// fault plan at the given worker count and returns the injected events and
// the fault accounting.
func chaosOutcome(t *testing.T, plan *fault.Plan, jobs int) chaosResult {
	t.Helper()
	cfg := smallConfig()
	cfg.Fault = plan
	cfg.Jobs = jobs
	b, err := Prepare(smallRecipe(), cfg)
	if err != nil {
		if !errors.Is(err, ErrAllRegionsFailed) {
			t.Fatalf("untyped Prepare failure at -j %d: %v", jobs, err)
		}
		return chaosResult{allFailed: true}
	}
	v, err := ValidateNative(b, 7)
	if err != nil {
		t.Fatalf("validation errored at -j %d (should degrade instead): %v", jobs, err)
	}
	d := v.Degradation
	return chaosResult{events: b.FaultInjector().Events(),
		recovered: d.Recovered, dropped: d.Dropped, predictedCPI: v.PredictedCPI}
}

// TestChaosThroughFarmParallel drives the seeded fault plans through the
// checkpoint farm at -j 1 and -j 8. Injection decisions are per region
// site and budgets strike the first region of the selection order, so the
// injected events themselves — point, site and detail — must be identical
// at both worker counts, and with them the recovered+dropped accounting
// and the degraded prediction. Run under -race this also exercises the
// shared injector, store, and degradation merging for data races.
func TestChaosThroughFarmParallel(t *testing.T) {
	for name, plan := range chaosPlans() {
		t.Run(name, func(t *testing.T) {
			s := chaosOutcome(t, plan, 1)
			p := chaosOutcome(t, plan, 8)
			if s.allFailed != p.allFailed {
				t.Fatalf("total-failure disagreement: serial=%v parallel=%v", s.allFailed, p.allFailed)
			}
			if s.allFailed {
				return
			}
			if len(p.events) == 0 {
				t.Fatal("parallel run injected nothing")
			}
			if !reflect.DeepEqual(s.events, p.events) {
				t.Errorf("injected events differ:\nserial   %+v\nparallel %+v", s.events, p.events)
			}
			for _, r := range []chaosResult{s, p} {
				if r.recovered+r.dropped != len(r.events) {
					t.Errorf("accounting: recovered %d + dropped %d != %d injected", r.recovered, r.dropped, len(r.events))
				}
			}
			if s.recovered != p.recovered || s.dropped != p.dropped {
				t.Errorf("accounting differs: serial %d+%d, parallel %d+%d", s.recovered, s.dropped, p.recovered, p.dropped)
			}
			if s.predictedCPI != p.predictedCPI {
				t.Errorf("degraded prediction differs: serial %v, parallel %v", s.predictedCPI, p.predictedCPI)
			}
			t.Logf("%s: events=%+v rec=%d drop=%d predicted=%v", name, p.events, p.recovered, p.dropped, p.predictedCPI)
		})
	}
}

// TestChaosElfieBitflipClassifiedAsLint flips one opcode bit in a converted
// ELFie's restore stub at -j 8 and asserts the farm's lint stage — not a
// crash, not a misclassified conversion error — catches it: the failure is
// typed FailLint, an alternate recovers the region, and the accounting
// invariant holds.
func TestChaosElfieBitflipClassifiedAsLint(t *testing.T) {
	cfg := smallConfig()
	cfg.Fault = chaosPlans()["elfie-restore-bitflip"]
	cfg.Jobs = 8
	b, err := Prepare(smallRecipe(), cfg)
	if err != nil {
		t.Fatalf("pipeline must degrade, not fail: %v", err)
	}
	injected := b.FaultInjector().InjectedCount(fault.ElfieBitflip)
	if injected != 1 {
		t.Fatalf("want exactly 1 bitflip, got %d; events: %v", injected, b.FaultInjector().Events())
	}
	d := b.Degradation
	if d.Recovered+d.Dropped != 1 {
		t.Fatalf("recovered %d + dropped %d != 1 injected; events: %+v", d.Recovered, d.Dropped, d.Events)
	}
	var lintEvents int
	for _, ev := range d.Events {
		if ev.Kind != FailLint {
			t.Errorf("bitflip classified as %q, want %q: %+v", ev.Kind, FailLint, ev)
		}
		lintEvents++
	}
	if lintEvents != 1 {
		t.Errorf("want 1 failure event, got %d: %+v", lintEvents, d.Events)
	}
	if st := b.JobStats.Stage("lint"); st.Failed != 1 || st.Run == 0 {
		t.Errorf("lint stage stats: %+v (want 1 failed, >0 run)", st)
	}
}

func TestChaosTotalFailureIsTyped(t *testing.T) {
	// Corrupt every pinball read: primaries, re-logs, and alternates all
	// fail, so Prepare must return the typed all-regions-failed error.
	cfg := smallConfig()
	cfg.Fault = &fault.Plan{Seed: 5, Rules: []fault.Rule{
		{Point: fault.PinballBitflip, File: ".text", Offset: -1},
	}}
	_, err := Prepare(smallRecipe(), cfg)
	if err == nil {
		t.Fatal("pipeline succeeded with every pinball corrupted")
	}
	if !errors.Is(err, ErrAllRegionsFailed) {
		t.Fatalf("untyped failure: %v", err)
	}
}

func TestChaosFailureClassification(t *testing.T) {
	// FailureOf classifies typed pinball errors without a failError tag.
	if k := FailureOf(pinball.ErrCorrupt); k != FailCorruptPinball {
		t.Errorf("ErrCorrupt -> %s", k)
	}
	if k := FailureOf(pinball.ErrTruncated); k != FailCorruptPinball {
		t.Errorf("ErrTruncated -> %s", k)
	}
	if k := FailureOf(errors.New("mystery")); k != FailInternal {
		t.Errorf("unknown -> %s", k)
	}
	if k := FailureOf(failf(FailUngracefulExit, "x")); k != FailUngracefulExit {
		t.Errorf("tagged -> %s", k)
	}
}
