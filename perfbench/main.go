// Command perfbench is the repository's end-to-end benchmark: the
// pipeline, regions and warm_rerun workloads over the 602.gcc_t and
// 605.mcf_t recipes at the pinpoints CLI defaults. With -trace 0 it times
// passes of one workload for -seconds, checks every output and prints the
// end-to-end metrics; with -trace 1 it runs that workload's calls once
// more under spans and prints the per-layer metrics. perfbench/design.json
// is the design record: what each workload runs, each metric's meaning
// and the layer each per-layer metric should move. The last line of
// standard output is one JSON object: correct, attempted, failed, metrics.
//
// Run it from the repository root through its wrapper, which builds it:
//
//	python3 perfbench/run.py --pinpoints-seed 1 --workload pipeline --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"elfie/internal/pinpoints"
	"elfie/internal/store"
	"elfie/internal/workloads"
)

var recipeNames = []string{"602.gcc_t", "605.mcf_t"}

// workDir holds the run's stores and the traced sweep's trace-event JSON;
// it is inside the checkout and ignored by git.
const workDir = ".bench_build/perfbench-work"

type metric struct {
	Name  string
	Value float64
	Unit  string
}

func (m metric) print(workload, note string) {
	fmt.Printf("%-12s %-30s %16.6f %s%s\n", workload, m.Name, m.Value, m.Unit, note)
}

func main() {
	workload := flag.String("workload", "", "pipeline, regions or warm_rerun")
	seed := flag.Int64("seed", 1, "workload seed: machine, kernel and counter-noise seed of the validation trial, ELFie runs and replays")
	ppSeed := flag.Int64("pinpoints-seed", 1, "PinPoints seed: region selection and the prepared artifacts")
	seconds := flag.Float64("seconds", 20, "time passes of the workload for at least this long (the traced sweep ignores it)")
	trace := flag.Int("trace", 0, "1: run the workload's traced per-layer sweep instead of timed passes")
	flag.Parse()

	switch *workload {
	case "pipeline", "regions", "warm_rerun":
	default:
		fail(fmt.Errorf("unknown -workload %q: want pipeline, regions or warm_rerun", *workload))
	}
	if *trace != 0 && *trace != 1 {
		fail(fmt.Errorf("-trace must be 0 or 1"))
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fail(err)
	}
	dir, err := os.MkdirTemp(workDir, "run-")
	if err != nil {
		fail(err)
	}
	ms, b, err := run(*workload, *seed, *ppSeed, *seconds, *trace == 1, dir)
	if rerr := os.RemoveAll(dir); err == nil {
		err = rerr
	}
	if err != nil {
		fail(err)
	}

	out := map[string]any{}
	for _, m := range ms {
		m.print(*workload, "")
		out[m.Name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct": !b.wrong, "attempted": b.attempted, "failed": b.failed, "metrics": out,
	})
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

func run(workload string, seed, ppSeed int64, seconds float64, traced bool, dir string) ([]metric, *bench, error) {
	jobs := min(2, runtime.NumCPU())
	b := &bench{
		dir:   dir,
		trial: seed,
		cfg: pinpoints.Config{
			SliceSize: 200_000, WarmupSize: 800_000, MaxK: 50, Seed: ppSeed,
			MarkerTag: 0x1010, MachineBudget: 2_000_000_000,
			UseSysState: true, Jobs: jobs,
		},
	}
	for _, name := range recipeNames {
		r, ok := workloads.ByName(name)
		if !ok {
			return nil, nil, fmt.Errorf("unknown recipe %s", name)
		}
		b.recipes = append(b.recipes, r)
	}
	fmt.Printf("env nproc=%d gomaxprocs=%d go=%s jobs=%d seed=%d pinpoints_seed=%d workload=%s trace=%v\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), jobs, seed, ppSeed, workload, traced)

	if traced {
		ms, err := b.sweep(workload, filepath.Join(workDir, "trace-"+workload+".json"))
		return ms, b, err
	}
	var w *timing
	var err error
	switch workload {
	case "pipeline":
		w, err = b.runPipeline(seconds)
	case "regions":
		w, err = b.runRegions(seconds)
	case "warm_rerun":
		w, err = b.runWarm(seconds)
	}
	if err != nil {
		return nil, nil, err
	}
	w.report(workload, b)
	return w.endToEnd(), b, nil
}

// timing collects one workload's end-to-end measurements.
type timing struct {
	setup    []float64 // seconds per set-up
	wall     []float64 // seconds per pass
	alloc    []float64 // MB allocated per pass
	artifact float64   // MB
	peakRSS  float64   // MB, over the passes
	instr    uint64    // guest instructions per pass (0: not measured)
	exits    string    // ELFies that missed their graceful exit
	ref      []*outcome
	first    tally // the first pass's operations
}

// endToEnd is the BENCHMARK.json end_to_end set, in its order.
func (w *timing) endToEnd() []metric {
	return []metric{
		{"setup_s", median(w.setup), "s"},
		{"wall_s", median(w.wall), "s"},
		{"peak_rss_mb", w.peakRSS, "MB"},
		{"alloc_mb", median(w.alloc), "MB"},
		{"artifact_mb", w.artifact, "MB"},
	}
}

// report prints the end-to-end metrics outside the gated set, which are
// zero or undefined on some workload, and the pass-time distribution.
func (w *timing) report(workload string, b *bench) {
	fmt.Printf("%s: passes=%d setups=%d wall_s median=%.4f min=%.4f max=%.4f%s\n",
		workload, len(w.wall), len(w.setup), median(w.wall), slices.Min(w.wall), slices.Max(w.wall), highPercentile(w.wall))
	if w.instr > 0 {
		metric{"guest_mips", float64(w.instr) / median(w.wall) / 1e6, "MIPS"}.print(workload,
			fmt.Sprintf(" (%d instructions per pass)", w.instr))
	}
	if len(w.ref) > 0 {
		var nerr, serr float64
		cov := 100.0
		for _, o := range w.ref {
			nerr += o.Native.errPct() / float64(len(w.ref))
			serr += o.Sim.errPct() / float64(len(w.ref))
			cov = min(cov, 100*o.Native.Coverage, 100*o.Sim.Coverage)
		}
		metric{"native_err_pct", nerr, "%"}.print(workload, "")
		metric{"sim_err_pct", serr, "%"}.print(workload, "")
		metric{"coverage_pct", cov, "%"}.print(workload, "")
	}
	// Every pass repeats the first one's operations, which its output check
	// enforces, so the first pass's failure rate is the workload's.
	metric{"failed_frac", float64(w.first.failed) / float64(max(w.first.attempted, 1)), "ratio"}.print(workload,
		fmt.Sprintf(" (%d of %d operations per pass; run: %d of %d)", w.first.failed, w.first.attempted, b.failed, b.attempted))
	for _, o := range w.ref {
		for _, v := range []struct {
			name string
			v    validation
		}{{"native", o.Native}, {"sim", o.Sim}} {
			for _, rc := range v.v.Regions {
				if !rc.OK {
					fmt.Printf("%s: %s %s measurement of slice %d failed\n", workload, o.Recipe, v.name, rc.Slice)
				}
			}
		}
	}
	if w.exits != "" {
		fmt.Printf("%s: ELFies that missed their graceful exit:%s\n", workload, w.exits)
	}
}

// passes calls pass until seconds have elapsed, at least once, and takes
// the peak resident memory of the passes: the set-up's garbage is returned
// to the OS and the kernel's high-water mark restarted first.
func (w *timing) passes(t *tally, seconds float64, pass func(i int) error) error {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	t0, before := time.Now(), *t
	for i := 0; i == 0 || time.Since(t0).Seconds() < seconds; i++ {
		if err := pass(i); err != nil {
			return err
		}
		if i == 0 {
			w.first = tally{attempted: t.attempted - before.attempted, failed: t.failed - before.failed}
		}
	}
	var err error
	w.peakRSS, err = peakRSSMB()
	return err
}

// measure times one pass's work and counts the heap it allocates; the
// pass's output checks run outside it. A GC first keeps the previous
// pass's garbage out of the time.
func (w *timing) measure(work func() error) error {
	runtime.GC()
	a0 := totalAlloc()
	t := time.Now()
	if err := work(); err != nil {
		return err
	}
	w.wall = append(w.wall, time.Since(t).Seconds())
	w.alloc = append(w.alloc, float64(totalAlloc()-a0)/mb)
	return nil
}

// timed runs f and returns its wall time in seconds.
func timed(f func() error) (float64, error) {
	t := time.Now()
	err := f()
	return time.Since(t).Seconds(), err
}

// Set-ups repeat so their median is steady; the last one's artifacts feed
// the passes. The pipeline's set-up, building the recipes, takes well
// under a millisecond, so each sample times a batch of builds and takes
// their mean.
const (
	buildBatches   = 11
	buildsPerBatch = 100
	artifactSetups = 3
)

func (b *bench) runPipeline(seconds float64) (*timing, error) {
	w := &timing{}
	for i := 0; i < buildBatches; i++ {
		s, err := timed(func() error {
			for j := 0; j < buildsPerBatch; j++ {
				if err := b.build(); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		w.setup = append(w.setup, s/buildsPerBatch)
	}
	err := w.passes(&b.tally, seconds, func(i int) error {
		st, err := b.newStore()
		if err != nil {
			return err
		}
		defer os.RemoveAll(st.Root())
		var runs []pipelineRun
		if err := w.measure(func() (err error) {
			runs, err = b.pipelinePass(st, nil)
			return err
		}); err != nil {
			return err
		}
		outs, err := outcomes(runs)
		if err != nil {
			return err
		}
		if i == 0 {
			b.countPipeline(runs)
			w.ref = outs
			w.artifact, err = dirMB(st.Root())
			return err
		}
		d := ""
		for j, o := range outs {
			if d == "" {
				d = o.diff(w.ref[j])
			}
		}
		b.check(d == "", "pipeline: pass %d vs first pass: %s", i, d)
		return nil
	})
	return w, err
}

func (b *bench) runRegions(seconds float64) (*timing, error) {
	w := &timing{}
	var regs []*region
	for i := 0; i < artifactSetups; i++ {
		regs = nil // let the previous set-up's artifacts be collected
		s, err := timed(func() error {
			prepared, err := b.prepare(nil, nil)
			if err != nil {
				return err
			}
			b.builds(prepared...)
			regs, err = b.artifacts(prepared, nil)
			return err
		})
		if err != nil {
			return nil, err
		}
		w.setup = append(w.setup, s)
	}
	var err error
	if w.artifact, err = artifactMB(regs); err != nil {
		return nil, err
	}
	var first regionsResult
	err = w.passes(&b.tally, seconds, func(i int) error {
		var res regionsResult
		if err := w.measure(func() (err error) {
			res, err = b.regionsPass(regs, nil)
			return err
		}); err != nil {
			return err
		}
		if i == 0 {
			first = res
			b.countRegions(res)
			return nil
		}
		b.check(res == first, "regions: pass %d %+v, first pass %+v", i, res, first)
		return nil
	})
	w.instr, w.exits = first.instr, first.exits
	return w, err
}

func (b *bench) runWarm(seconds float64) (*timing, error) {
	w := &timing{}
	var root, cold string
	for i := 0; i < artifactSetups; i++ {
		if root != "" {
			if err := os.RemoveAll(root); err != nil {
				return nil, err
			}
		}
		st, err := b.newStore()
		if err != nil {
			return nil, err
		}
		root = st.Root()
		var prepared []*pinpoints.Benchmark
		s, err := timed(func() (err error) {
			prepared, err = b.prepare(st, nil)
			return err
		})
		if err != nil {
			return nil, err
		}
		w.setup = append(w.setup, s)
		b.builds(prepared...)
		if cold, err = prepDigest(prepared); err != nil {
			return nil, err
		}
	}
	// Each pass opens the store afresh, as a second pinpoints run would.
	err := w.passes(&b.tally, seconds, func(i int) error {
		var warm []*pinpoints.Benchmark
		if err := w.measure(func() error {
			st, err := store.Open(root)
			if err != nil {
				return err
			}
			warm, err = b.prepare(st, nil)
			return err
		}); err != nil {
			return err
		}
		jobs, misses := storeMisses(warm)
		d, err := prepDigest(warm)
		if err != nil {
			return err
		}
		if i == 0 {
			b.must(jobs, misses, "warm_rerun: %d of %d probes missed the store", misses, jobs)
		}
		b.check(misses == 0 && d == cold, "warm_rerun: pass %d: %d store misses, ELFie digest %.16s, cold run %.16s",
			i, misses, d, cold)
		return nil
	})
	if err != nil {
		return nil, err
	}
	w.artifact, err = dirMB(root)
	return w, err
}

const mb = 1 << 20

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// highPercentile is the highest percentile with at least ten samples
// above it, when there are enough samples for one.
func highPercentile(xs []float64) string {
	n := len(xs)
	if n <= 10 {
		return ""
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := n - 11
	return fmt.Sprintf(" p%.0f=%.4f", 100*float64(k+1)/float64(n), s[k])
}

func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// gcCPU is the process's GC CPU time so far, in seconds.
func gcCPU() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// peakRSSMB reads the process's resident-memory high-water mark.
func peakRSSMB() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb * 1024 / mb, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// dirMB is the summed size of the files under root.
func dirMB(root string) (float64, error) {
	var n int64
	err := filepath.WalkDir(root, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return float64(n) / mb, err
}
