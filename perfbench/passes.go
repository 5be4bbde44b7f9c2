package main

import (
	"fmt"
	"os"
	"strings"

	"elfie/internal/kernel"
	"elfie/internal/pinplay"
	"elfie/internal/pinpoints"
	"elfie/internal/store"
	"elfie/internal/workloads"
)

// tally counts operations attempted and failed. A region build, a region
// measurement, an ELFie run, a replay, an expected store hit and an output
// check are each one operation. The set-ups and a workload's first pass
// count every operation; each later pass counts one output check, which
// holds it to the first pass, so the failed count does not grow with the
// number of passes. A failed replay, store hit or check also makes the run
// incorrect; the program's region failures (builds, measurements, ELFie
// runs) do not.
type tally struct {
	attempted, failed int
	wrong             bool
}

func (t *tally) ops(n, failed int) {
	t.attempted += n
	t.failed += failed
}

// must records n operations that all have to succeed.
func (t *tally) must(n, failed int, format string, args ...any) {
	t.ops(n, failed)
	if failed > 0 {
		t.wrong = true
		fmt.Fprintf(os.Stderr, "check failed: "+format+"\n", args...)
	}
}

// check records one output check.
func (t *tally) check(ok bool, format string, args ...any) {
	failed := 0
	if !ok {
		failed = 1
	}
	t.must(1, failed, format, args...)
}

// bench holds what every workload shares: the recipes, the pipeline
// settings and the directory stores live in. cfg.Seed, the PinPoints seed,
// fixes the selection and so the amount of work; trial, the workload seed,
// seeds the runs made from the prepared artifacts.
type bench struct {
	recipes []workloads.Recipe
	cfg     pinpoints.Config
	trial   int64
	dir     string
	stores  int
	tally
}

// newStore opens a fresh, empty store under the run's directory.
func (b *bench) newStore() (*store.Store, error) {
	b.stores++
	return store.Open(fmt.Sprintf("%s/store%d", b.dir, b.stores))
}

func (b *bench) build() error {
	for _, r := range b.recipes {
		if _, err := workloads.Build(r); err != nil {
			return err
		}
	}
	return nil
}

// prepare runs pinpoints.Prepare on every recipe.
func (b *bench) prepare(cache store.Cache, tr *tracer) ([]*pinpoints.Benchmark, error) {
	var out []*pinpoints.Benchmark
	for _, r := range b.recipes {
		pb, err := b.prepareOne(r, cache, tr)
		if err != nil {
			return nil, err
		}
		out = append(out, pb)
	}
	return out, nil
}

// builds counts each selected region's build as one operation; a region
// dropped after every alternate failed is a failed build.
func (b *bench) builds(prepared ...*pinpoints.Benchmark) {
	for _, pb := range prepared {
		b.ops(len(pb.Selection.Regions), pb.Degradation.Dropped)
	}
}

// countPipeline counts a pipeline pass's region builds and its native and
// sim region measurements.
func (b *bench) countPipeline(runs []pipelineRun) {
	for _, run := range runs {
		b.builds(run.bench)
		for _, v := range []*pinpoints.Validation{run.native, run.sim} {
			fv := fromValidation(v)
			b.ops(len(fv.Regions), fv.failed())
		}
	}
}

// prepareOne runs pinpoints.Prepare on one recipe, with cache as its store
// (nil keeps the artifacts in memory only).
func (b *bench) prepareOne(r workloads.Recipe, cache store.Cache, tr *tracer) (*pinpoints.Benchmark, error) {
	cfg := b.cfg
	cfg.Store = cache
	id := tr.begin("pinpoints.prepare")
	pb, err := pinpoints.Prepare(r, cfg)
	tr.end(id, nil)
	if err != nil {
		return nil, fmt.Errorf("prepare %s: %w", r.Name, err)
	}
	return pb, nil
}

// pipelineRun is one recipe's pass through the paper's flow.
type pipelineRun struct {
	bench       *pinpoints.Benchmark
	native, sim *pinpoints.Validation
}

// pipelinePass is `pinpoints -store <new> -validate native|sim` on every
// recipe: Prepare into cache, then ValidateNative and ValidateSim.
func (b *bench) pipelinePass(cache store.Cache, tr *tracer) ([]pipelineRun, error) {
	var runs []pipelineRun
	for _, r := range b.recipes {
		pb, err := b.prepareOne(r, cache, tr)
		if err != nil {
			return nil, err
		}
		id := tr.begin("pinpoints.validate_native")
		vn, err := pinpoints.ValidateNative(pb, b.trial)
		tr.end(id, nil)
		if err != nil {
			return nil, fmt.Errorf("validate native %s: %w", r.Name, err)
		}
		id = tr.begin("pinpoints.validate_sim")
		vs, err := pinpoints.ValidateSim(pb, simConfig())
		tr.end(id, nil)
		if err != nil {
			return nil, fmt.Errorf("validate sim %s: %w", r.Name, err)
		}
		runs = append(runs, pipelineRun{pb, vn, vs})
	}
	return runs, nil
}

// outcomes reads what each pipeline run must reproduce.
func outcomes(runs []pipelineRun) ([]*outcome, error) {
	var outs []*outcome
	for _, run := range runs {
		o, err := fromPinpoints(run.bench, run.native, run.sim)
		if err != nil {
			return nil, err
		}
		outs = append(outs, o)
	}
	return outs, nil
}

// recompose runs the serial recomposition on every recipe.
func (b *bench) recompose(tr *tracer) ([]*outcome, uint64, error) {
	rc := &recomposer{tr: tr, cfg: b.cfg, trial: b.trial}
	var outs []*outcome
	for _, r := range b.recipes {
		o, err := rc.run(r)
		if err != nil {
			return nil, 0, fmt.Errorf("recompose %s: %w", r.Name, err)
		}
		outs = append(outs, o)
	}
	return outs, rc.instr, nil
}

// artifacts serializes the prepared regions' ELFies.
func (b *bench) artifacts(prepared []*pinpoints.Benchmark, tr *tracer) ([]*region, error) {
	var regs []*region
	for _, pb := range prepared {
		for _, reg := range pb.Regions {
			id := tr.begin("elfobj.write")
			buf, err := reg.ELFie.Write()
			tr.end(id, func(sp *span) { sp.Bytes = int64(len(buf)) })
			if err != nil {
				return nil, err
			}
			regs = append(regs, &region{
				recipe: pb.Recipe, sel: reg.Region, slice: reg.SliceUsed,
				warmup: reg.Warmup, tail: reg.TailInstr,
				pb: reg.Pinball, elfie: buf, ss: reg.SysState,
			})
		}
	}
	return regs, nil
}

// artifactMB is the size of the regions' ELFies and pinball files.
func artifactMB(regs []*region) (float64, error) {
	var n int
	for _, reg := range regs {
		files, err := reg.pb.FileSet()
		if err != nil {
			return 0, err
		}
		for _, f := range files {
			n += len(f)
		}
		n += len(reg.elfie)
	}
	return float64(n) / mb, nil
}

// regionsResult is what one regions pass must reproduce.
type regionsResult struct {
	runs   int    // ELFie runs, and as many replays
	instr  uint64 // guest instructions retired by all of them
	exits  string // ELFies that missed their graceful exit
	replay string // pinballs whose replay failed, did not complete or diverged
}

// regionsPass runs every region's ELFie natively from its bytes, with no
// hooks, and constrained-replays its pinball with injection on.
func (b *bench) regionsPass(regs []*region, tr *tracer) (regionsResult, error) {
	res := regionsResult{runs: len(regs)}
	for _, reg := range regs {
		s, err := elfieSession(tr, reg, b.trial, b.cfg.SliceSize)
		if err != nil {
			return res, err
		}
		m := s.Machine
		id := tr.begin("vm.native_run")
		err = s.Run()
		tr.end(id, func(sp *span) { sp.Instr = m.GlobalRetired })
		res.instr += m.GlobalRetired
		if err != nil || !pinpoints.Completed(m) {
			res.exits += " " + reg.pb.Name
		}

		id = tr.begin("pinplay.replay")
		rr, err := pinplay.Replay(reg.pb, kernel.New(kernel.NewFS(), b.trial),
			pinplay.ReplayOptions{Injection: true})
		var n uint64
		if err == nil {
			n = rr.Machine.GlobalRetired
		}
		tr.end(id, func(sp *span) { sp.Instr = n })
		res.instr += n
		if err != nil || !rr.Completed || rr.Diverged {
			res.replay += " " + reg.pb.Name
		}
	}
	return res, nil
}

// countRegions counts a regions pass's ELFie runs and replays. An ELFie
// that misses its graceful exit is a failed run; every replay must
// complete without divergence.
func (b *bench) countRegions(res regionsResult) {
	b.ops(res.runs, len(strings.Fields(res.exits)))
	b.must(res.runs, len(strings.Fields(res.replay)), "regions: replays failed:%s", res.replay)
}

// storeMisses counts the probe-backed farm jobs of a warm re-run and those
// the store did not satisfy: every profile, log, convert and lint job must
// hit.
func storeMisses(prepared []*pinpoints.Benchmark) (jobs, misses int) {
	for _, pb := range prepared {
		for _, stage := range []string{"profile", "log", "convert", "lint"} {
			st := pb.JobStats.Stage(stage)
			jobs += st.Jobs
			misses += st.Jobs - st.Cached
		}
	}
	return jobs, misses
}

// prepDigest is the SHA-256 of every prepared ELFie, in recipe and
// selection order.
func prepDigest(prepared []*pinpoints.Benchmark) (string, error) {
	o := &outcome{}
	for _, pb := range prepared {
		if err := o.addRegions(pb); err != nil {
			return "", err
		}
	}
	return o.digest(), nil
}
