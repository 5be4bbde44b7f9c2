package main

import (
	"fmt"
	"sort"
	"time"

	"elfie/internal/farm"
	"elfie/internal/pinpoints"
	"elfie/internal/store"
)

// farmStages are the farm stages the pipeline's jobs run in.
var farmStages = []string{"profile", "select", "log", "convert", "lint", "measure-whole", "validate"}

// sweepResult is what a traced sweep measured outside its spans.
type sweepResult struct {
	main     string          // the pass trace.* describe
	untraced float64         // seconds of main's last untraced run
	gc       float64         // GC CPU seconds of the workload's last untraced pass
	farm     []farm.Counters // JobStats of the workload's last untraced pinpoints calls
	elapsed  float64         // seconds of the pass those JobStats come from
	cached   int             // farm jobs the store satisfied in that pass
}

// sweep is the traced pass of one workload. It runs only that workload's
// calls: untraced first, for the reference outputs, the farm's JobStats,
// GC time and the tracing overhead's baseline, then traced. Every
// per-layer metric is read from this workload's spans; a layer it never
// calls reads 0.
func (b *bench) sweep(workload, traceOut string) ([]metric, error) {
	tr := newTracer()
	tr.setPass("setup")
	id := tr.begin("workloads.build")
	err := b.build()
	tr.end(id, nil)
	if err != nil {
		return nil, err
	}
	var sw *sweepResult
	switch workload {
	case "pipeline":
		sw, err = b.sweepPipeline(tr)
	case "regions":
		sw, err = b.sweepRegions(tr)
	case "warm_rerun":
		sw, err = b.sweepWarm(tr)
	}
	if err != nil {
		return nil, err
	}

	if err := tr.writeJSON(traceOut); err != nil {
		return nil, err
	}
	sum := tr.summary()
	printSummary(sum)
	fmt.Printf("trace written to %s\n", traceOut)

	root := sum[sw.main]["pass"]
	traced := root.Total.Seconds()
	return append(layerMetrics(merge(sum), sw),
		metric{"runtime.gc_cpu_s", sw.gc, "s"},
		metric{"trace.unattributed_pct", 100 * root.Self.Seconds() / traced, "%"},
		metric{"trace.overhead_pct", 100 * (traced - sw.untraced) / sw.untraced, "%"},
	), nil
}

// timedPass runs work as one pass under a root span when t is non-nil,
// and returns its wall time and the GC CPU time spent during it.
func timedPass(name string, t *tracer, work func(*tracer) error) (wall, gc float64, err error) {
	t.setPass(name)
	g0, t0 := gcCPU(), time.Now()
	id := t.begin("pass")
	err = work(t)
	t.end(id, nil)
	return time.Since(t0).Seconds(), gcCPU() - g0, err
}

// sweepPipeline runs the pinpoints pass into a fresh store untraced, for
// the reference outputs and farm.*, then traced through a store.Cache
// wrapper for store.* and pinpoints.*; then the serial recomposition,
// untraced and traced, for the layers inside the farm's jobs. Every run
// must reproduce the untraced pinpoints pass.
func (b *bench) sweepPipeline(tr *tracer) (*sweepResult, error) {
	sw := &sweepResult{main: "recompose"}
	var ref []*outcome
	for _, t := range []*tracer{nil, tr} {
		st, err := b.newStore()
		if err != nil {
			return nil, err
		}
		var cache store.Cache = st
		if t != nil {
			cache = &tracedStore{Cache: st, tr: t}
		}
		var runs []pipelineRun
		wall, gc, err := timedPass("pipeline", t, func(t *tracer) (err error) {
			runs, err = b.pipelinePass(cache, t)
			return err
		})
		if err != nil {
			return nil, err
		}
		outs, err := outcomes(runs)
		if err != nil {
			return nil, err
		}
		if t != nil {
			for i, o := range outs {
				d := o.diff(ref[i])
				b.check(d == "", "pipeline: traced pass vs untraced: %s", d)
			}
			continue
		}
		b.countPipeline(runs)
		ref, sw.gc, sw.elapsed = outs, gc, wall
		for _, run := range runs {
			sw.farm = append(sw.farm, run.bench.JobStats, run.native.JobStats, run.sim.JobStats)
			sw.cached += run.bench.JobStats.Cached
		}
	}

	var instr uint64
	for _, t := range []*tracer{nil, tr} {
		var outs []*outcome
		wall, _, err := timedPass("recompose", t, func(t *tracer) (err error) {
			outs, instr, err = b.recompose(t)
			return err
		})
		if err != nil {
			return nil, err
		}
		if t == nil {
			sw.untraced = wall
		}
		for i, o := range outs {
			d := o.diff(ref[i])
			b.check(d == "", "traced-pass equivalence: recomposition vs pinpoints: %s", d)
		}
	}
	// Only the recomposition sees every VM run, so the pipeline's guest
	// instruction rate is the untraced recomposition's: serial, where the
	// pinpoints pass runs min(2, nproc) farm workers.
	metric{"guest_mips", float64(instr) / sw.untraced / 1e6, "MIPS"}.print("pipeline",
		fmt.Sprintf(" (%d instructions per pass, serial recomposition)", instr))
	return sw, nil
}

// sweepRegions prepares the recipes in memory, serializes the ELFies
// traced, and runs the regions pass untraced twice (the first a warm-up)
// and then traced.
func (b *bench) sweepRegions(tr *tracer) (*sweepResult, error) {
	sw := &sweepResult{main: "regions"}
	prepared, err := b.prepare(nil, nil)
	if err != nil {
		return nil, err
	}
	b.builds(prepared...)
	tr.setPass("regions.setup")
	regs, err := b.artifacts(prepared, tr)
	if err != nil {
		return nil, err
	}
	var results []regionsResult
	for _, t := range []*tracer{nil, nil, tr} {
		wall, gc, err := timedPass("regions", t, func(t *tracer) error {
			res, err := b.regionsPass(regs, t)
			results = append(results, res)
			return err
		})
		if err != nil {
			return nil, err
		}
		if t == nil {
			sw.untraced, sw.gc = wall, gc
		}
	}
	b.countRegions(results[0])
	b.check(results[1] == results[0] && results[2] == results[0],
		"regions: passes %+v, want each equal to %+v", results[1:], results[0])
	return sw, nil
}

// sweepWarm fills a store with a cold Prepare, then opens it afresh and
// re-runs Prepare against it untraced twice (the first a warm-up) and
// then traced through a store.Cache wrapper.
func (b *bench) sweepWarm(tr *tracer) (*sweepResult, error) {
	sw := &sweepResult{main: "warm_rerun"}
	st, err := b.newStore()
	if err != nil {
		return nil, err
	}
	prepared, err := b.prepare(st, nil)
	if err != nil {
		return nil, err
	}
	b.builds(prepared...)
	cold, err := prepDigest(prepared)
	if err != nil {
		return nil, err
	}
	for i, t := range []*tracer{nil, nil, tr} {
		var warm []*pinpoints.Benchmark
		wall, gc, err := timedPass("warm_rerun", t, func(t *tracer) error {
			id := t.begin("store.open")
			ws, err := store.Open(st.Root())
			t.end(id, nil)
			if err != nil {
				return err
			}
			var cache store.Cache = ws
			if t != nil {
				cache = &tracedStore{Cache: ws, tr: t}
			}
			warm, err = b.prepare(cache, t)
			return err
		})
		if err != nil {
			return nil, err
		}
		jobs, misses := storeMisses(warm)
		d, err := prepDigest(warm)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			b.must(jobs, misses, "warm_rerun: %d of %d probes missed the store", misses, jobs)
		}
		b.check(misses == 0 && d == cold, "warm_rerun: %d store misses, ELFie digest %.16s, cold run %.16s",
			misses, d, cold)
		if t == nil {
			sw.untraced, sw.gc, sw.elapsed = wall, gc, wall
			sw.farm, sw.cached = nil, 0
			for _, pb := range warm {
				sw.farm = append(sw.farm, pb.JobStats)
				sw.cached += pb.JobStats.Cached
			}
		}
	}
	return sw, nil
}

// merge sums each span name's statistics over every pass.
func merge(sum map[string]map[string]*layerStats) map[string]*layerStats {
	out := map[string]*layerStats{}
	for _, byName := range sum {
		for name, ls := range byName {
			m := out[name]
			if m == nil {
				m = &layerStats{}
				out[name] = m
			}
			m.Spans += ls.Spans
			m.Total += ls.Total
			m.Self += ls.Self
			m.Instr += ls.Instr
			m.Bytes += ls.Bytes
			m.Count += ls.Count
			m.Misses += ls.Misses
		}
	}
	return out
}

// layerMetrics reads the per-layer metrics from one workload's spans and
// the farm's from its untraced JobStats.
func layerMetrics(spans map[string]*layerStats, sw *sweepResult) []metric {
	get := func(name string) *layerStats {
		if ls := spans[name]; ls != nil {
			return ls
		}
		return &layerStats{}
	}
	self := func(name string) float64 { return get(name).Self.Seconds() }
	// rate is guest instructions per second of span time, in units of scale.
	rate := func(scale float64, names ...string) float64 {
		var instr uint64
		var d time.Duration
		for _, n := range names {
			instr += get(n).Instr
			d += get(n).Total
		}
		if d == 0 {
			return 0
		}
		return float64(instr) / d.Seconds() / scale
	}
	bytesMB := func(name string) float64 { return float64(get(name).Bytes) / mb }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	gets := get("store.get")
	ms := []metric{
		{"vm.native_run_s", self("vm.native_run"), "s"},
		{"vm.native_mips", rate(1e6, "vm.native_run"), "MIPS"},
		{"pinplay.log_s", self("pinplay.log"), "s"},
		{"pinplay.log_mips", rate(1e6, "pinplay.log"), "MIPS"},
		{"pinplay.pinball_mb", bytesMB("pinplay.log"), "MB"},
		{"pinplay.replay_s", self("pinplay.replay"), "s"},
		{"pinplay.replay_mips", rate(1e6, "pinplay.replay"), "MIPS"},
		{"bbv.collect_s", self("bbv.collect"), "s"},
		{"bbv.mips", rate(1e6, "bbv.collect"), "MIPS"},
		{"perfle.whole_s", self("perfle.whole"), "s"},
		{"perfle.region_s", self("perfle.region"), "s"},
		{"perfle.mips", rate(1e6, "perfle.whole", "perfle.region"), "MIPS"},
		{"coresim.whole_s", self("coresim.whole"), "s"},
		{"coresim.region_s", self("coresim.region"), "s"},
		{"coresim.kips", rate(1e3, "coresim.whole", "coresim.region"), "KIPS"},
		{"simpoint.select_s", self("simpoint.select"), "s"},
		{"sysstate.analyze_s", self("sysstate.analyze"), "s"},
		{"core.convert_s", self("core.convert"), "s"},
		{"core.elfie_mb", bytesMB("elfobj.write"), "MB"},
		{"elflint.lint_s", self("elflint.lint"), "s"},
		{"elflint.semantic_steps", float64(get("elflint.lint").Count), "count"},
		{"elfobj.write_s", self("elfobj.write"), "s"},
		{"elfobj.read_s", self("elfobj.read"), "s"},
		{"harness.new_s", self("harness.new"), "s"},
		{"store.put_s", self("store.put"), "s"},
		{"store.put_mb", bytesMB("store.put"), "MB"},
		{"store.get_s", self("store.get"), "s"},
		{"store.get_mb", bytesMB("store.get"), "MB"},
		{"store.hit_ratio", ratio(float64(gets.Spans-gets.Misses), float64(gets.Spans)), "ratio"},
	}

	busy := map[string]time.Duration{}
	var total time.Duration
	for _, c := range sw.farm {
		for stage, st := range c.Stages {
			busy[stage] += st.Wall
			total += st.Wall
		}
	}
	for _, stage := range farmStages {
		ms = append(ms, metric{"farm." + stage + ".busy_s", busy[stage].Seconds(), "s"})
	}
	return append(ms,
		metric{"farm.elapsed_s", sw.elapsed, "s"},
		metric{"farm.parallelism", ratio(total.Seconds(), sw.elapsed), "ratio"},
		metric{"farm.cached_jobs", float64(sw.cached), "count"},
		metric{"pinpoints.prepare_s", self("pinpoints.prepare"), "s"},
		metric{"pinpoints.validate_native_s", self("pinpoints.validate_native"), "s"},
		metric{"pinpoints.validate_sim_s", self("pinpoints.validate_sim"), "s"},
		metric{"workloads.build_s", self("workloads.build"), "s"},
	)
}

// printSummary prints each pass's spans by self time.
func printSummary(sum map[string]map[string]*layerStats) {
	passes := make([]string, 0, len(sum))
	for p := range sum {
		passes = append(passes, p)
	}
	sort.Strings(passes)
	fmt.Printf("%-14s %-28s %6s %12s %12s\n", "pass", "span", "n", "total_s", "self_s")
	for _, p := range passes {
		names := make([]string, 0, len(sum[p]))
		for n := range sum[p] {
			names = append(names, n)
		}
		sort.Slice(names, func(i, j int) bool { return sum[p][names[i]].Self > sum[p][names[j]].Self })
		for _, n := range names {
			ls := sum[p][n]
			fmt.Printf("%-14s %-28s %6d %12.6f %12.6f\n", p, n, ls.Spans, ls.Total.Seconds(), ls.Self.Seconds())
		}
	}
}
