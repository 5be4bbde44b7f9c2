package main

import (
	"fmt"

	"elfie/internal/bbv"
	"elfie/internal/core"
	"elfie/internal/coresim"
	"elfie/internal/elflint"
	"elfie/internal/elfobj"
	"elfie/internal/harness"
	"elfie/internal/kernel"
	"elfie/internal/perfle"
	"elfie/internal/pinball"
	"elfie/internal/pinplay"
	"elfie/internal/pinpoints"
	"elfie/internal/simpoint"
	"elfie/internal/sysstate"
	"elfie/internal/workloads"
)

// recomposer drives the pipeline one stage at a time through the layers'
// public calls, serially, in the order pinpoints.Prepare, ValidateNative
// and ValidateSim run them, so that a span can sit around each call. Its
// outputs must equal the farm's (see outcome); otherwise the per-layer
// numbers would describe a different program.
type recomposer struct {
	tr    *tracer
	cfg   pinpoints.Config
	trial int64  // ValidateNative's trial seed
	instr uint64 // guest instructions retired by every VM run
}

// region is one built region as the benchmark holds it: the ELFie as
// bytes, its pinball and its sysstate.
type region struct {
	recipe workloads.Recipe
	sel    simpoint.Region
	slice  int
	warmup uint64
	tail   uint64
	pb     *pinball.Pinball
	elfie  []byte
	ss     *sysstate.State
}

func recipeFS(r workloads.Recipe) *kernel.FS {
	fs := kernel.NewFS()
	if r.FileInput {
		fs.WriteFile("/input.dat", workloads.InputFile())
	}
	return fs
}

// session composes a harness session for the recipe's own program.
func (rc *recomposer) session(r workloads.Recipe, exe *elfobj.File, mode harness.Mode, seed int64) (*harness.Session, error) {
	id := rc.tr.begin("harness.new")
	s, err := harness.New(harness.Config{
		Mode: mode, Exe: exe, Argv: []string{r.Name},
		FS: recipeFS(r), Seed: seed, Budget: rc.cfg.MachineBudget,
	})
	rc.tr.end(id, nil)
	return s, err
}

// elfieSession reads a region's ELFie back from its bytes and composes
// the native session pinpoints uses to measure it, with the sysstate
// installed and no fault injection.
func elfieSession(tr *tracer, reg *region, seed int64, slice uint64) (*harness.Session, error) {
	id := tr.begin("elfobj.read")
	exe, err := elfobj.Read(reg.elfie)
	tr.end(id, nil)
	if err != nil {
		return nil, err
	}
	id = tr.begin("harness.new")
	s, err := harness.New(harness.Config{
		Mode: harness.ModeNative, Exe: exe, Argv: []string{"elfie"},
		FS: recipeFS(reg.recipe), Seed: seed, SysState: reg.ss,
		Budget: 4 * (reg.warmup + slice + 1_000_000),
	})
	tr.end(id, nil)
	return s, err
}

// run recomposes Prepare + ValidateNative(trial) + ValidateSim(Skylake1/SDE)
// for one recipe.
func (rc *recomposer) run(r workloads.Recipe) (*outcome, error) {
	cfg := rc.cfg
	exe, err := workloads.Build(r)
	if err != nil {
		return nil, err
	}
	s, err := rc.session(r, exe, harness.ModeMeasure, cfg.Seed)
	if err != nil {
		return nil, err
	}
	id := rc.tr.begin("bbv.collect")
	prof, err := bbv.CollectSession(s, cfg.SliceSize)
	n := s.Machine.GlobalRetired
	rc.tr.end(id, func(sp *span) { sp.Instr = n })
	if err != nil {
		return nil, err
	}
	rc.instr += n

	id = rc.tr.begin("simpoint.select")
	sel, err := simpoint.Select(prof, simpoint.Options{MaxK: cfg.MaxK, Seed: cfg.Seed})
	rc.tr.end(id, nil)
	if err != nil {
		return nil, err
	}
	out := &outcome{Recipe: r.Name}
	out.setSelection(sel)

	// Region builds: the primary slice, then alternates, as Prepare's
	// recovery policy does without fault injection.
	var regs []*region
	for _, sr := range sel.Regions {
		for _, slice := range append([]int{sr.SliceIndex}, sr.Alternates...) {
			if reg, err := rc.build(r, exe, sr, slice); err == nil {
				regs = append(regs, reg)
				break
			}
		}
	}
	for _, reg := range regs {
		out.addELFie(reg.elfie)
	}

	if out.Native, err = rc.validateNative(r, exe, regs); err != nil {
		return nil, err
	}
	if out.Sim, err = rc.validateSim(r, exe, regs); err != nil {
		return nil, err
	}
	return out, nil
}

// build is BuildRegion: log the slice plus warm-up as a fat pinball,
// extract its sysstate, convert it to an ELFie and lint the result.
func (rc *recomposer) build(r workloads.Recipe, exe *elfobj.File, sr simpoint.Region, slice int) (*region, error) {
	cfg := rc.cfg
	sliceStart := uint64(slice) * cfg.SliceSize
	warmup := min(cfg.WarmupSize, sliceStart)
	s, err := rc.session(r, exe, harness.ModeLog, cfg.Seed)
	if err != nil {
		return nil, err
	}
	id := rc.tr.begin("pinplay.log")
	pb, err := pinplay.Log(s.Machine, pinplay.LogOptions{
		Name:         fmt.Sprintf("%s.s%d", r.Name, slice),
		RegionStart:  sliceStart - warmup,
		RegionLength: warmup + cfg.SliceSize,
		WarmupLength: warmup,
	}.Fat())
	n := s.Machine.GlobalRetired
	var pbBytes int64
	if err == nil {
		files, ferr := pb.FileSet()
		if ferr != nil {
			err = ferr
		}
		for _, b := range files {
			pbBytes += int64(len(b))
		}
	}
	rc.tr.end(id, func(sp *span) { sp.Instr, sp.Bytes = n, pbBytes })
	rc.instr += n
	if err != nil {
		return nil, err
	}

	id = rc.tr.begin("sysstate.analyze")
	st, err := sysstate.Analyze(pb)
	rc.tr.end(id, func(sp *span) { sp.Instr = pb.Meta.TotalInstructions })
	if err != nil {
		return nil, err
	}
	// Analyze replays the pinball with injection; a constrained replay
	// that completes retires exactly the recorded total.
	rc.instr += pb.Meta.TotalInstructions

	id = rc.tr.begin("core.convert")
	res, err := core.Convert(pb, core.Options{
		GracefulExit: true, Marker: core.MarkerSSC, MarkerTag: cfg.MarkerTag,
		SysState: st.Ref(harness.SysStateDir),
	})
	rc.tr.end(id, nil)
	if err != nil {
		return nil, err
	}

	id = rc.tr.begin("elflint.lint")
	rep, err := elflint.Lint(res.Exe, elflint.Options{
		Pinball: pb, Restore: res.RestoreMap, Semantic: true,
	})
	rc.tr.end(id, func(sp *span) {
		if rep != nil {
			sp.Count = int64(rep.SemanticSteps)
		}
	})
	if err != nil {
		return nil, err
	}
	if !rep.OK() {
		return nil, fmt.Errorf("lint %s: %s", pb.Name, rep.Findings[0])
	}

	id = rc.tr.begin("elfobj.write")
	buf, err := res.Exe.Write()
	rc.tr.end(id, func(sp *span) { sp.Bytes = int64(len(buf)) })
	if err != nil {
		return nil, err
	}
	reg := &region{recipe: r, sel: sr, slice: slice, warmup: warmup, pb: pb, elfie: buf, ss: st}
	if len(res.PerfPeriods) > 0 {
		reg.tail = res.PerfPeriods[0] - pb.Meta.RegionLength[0]
	}
	return reg, nil
}

// validateNative is ValidateNative: whole-program CPI under perfle, then
// each region's ELFie natively under perfle, falling back to alternates.
func (rc *recomposer) validateNative(r workloads.Recipe, exe *elfobj.File, regs []*region) (validation, error) {
	seed := rc.trial
	var v validation
	s, err := rc.session(r, exe, harness.ModeMeasure, seed)
	if err != nil {
		return v, err
	}
	id := rc.tr.begin("perfle.whole")
	ms := perfle.Attach(s.Machine, perfle.Options{Cores: 1, NoiseSeed: seed})
	err = s.Machine.Run()
	whole := ms.Finish()
	n := s.Machine.GlobalRetired
	rc.tr.end(id, func(sp *span) { sp.Instr = n })
	rc.instr += n
	if err != nil {
		return v, err
	}
	v.TrueCPI = whole.CPI()

	for _, reg := range regs {
		cpi, err := rc.measure(reg)
		used := reg.slice
		if err != nil {
			for _, alt := range reg.sel.Alternates {
				altReg, aerr := rc.build(r, exe, reg.sel, alt)
				if aerr != nil {
					continue
				}
				if cpi, err = rc.measure(altReg); err == nil {
					used = alt
					break
				}
			}
		}
		v.add(reg.sel, used, cpi, err == nil)
	}
	v.finish()
	return v, nil
}

// measure is the per-region half of ValidateNative: the slice CPI of one
// native ELFie run, after its startup tail and warm-up.
func (rc *recomposer) measure(reg *region) (float64, error) {
	seed := rc.trial
	s, err := elfieSession(rc.tr, reg, seed, rc.cfg.SliceSize)
	if err != nil {
		return 0, err
	}
	m := s.Machine
	id := rc.tr.begin("perfle.region")
	ms := perfle.Attach(m, perfle.Options{
		Cores: 1, StartMarker: rc.cfg.MarkerTag,
		SkipInstr: reg.tail + reg.warmup,
		NoiseSeed: seed + int64(reg.slice),
	})
	err = s.Run()
	rep := ms.Finish()
	rc.tr.end(id, func(sp *span) { sp.Instr = m.GlobalRetired })
	rc.instr += m.GlobalRetired
	switch {
	case err != nil:
		return 0, err
	case m.FatalFault != nil, !pinpoints.Completed(m), !rep.MarkerSeen, rep.WindowInstructions == 0:
		return 0, fmt.Errorf("elfie for slice %d missed its graceful exit", reg.slice)
	}
	return rep.WindowCPI(), nil
}

// validateSim is ValidateSim: whole program and each region's ELFie under
// CoreSim Skylake1 with the SDE front end; no alternates.
func (rc *recomposer) validateSim(r workloads.Recipe, exe *elfobj.File, regs []*region) (validation, error) {
	seed := rc.cfg.Seed
	var v validation
	s, err := rc.session(r, exe, harness.ModeMeasure, seed)
	if err != nil {
		return v, err
	}
	id := rc.tr.begin("coresim.whole")
	whole, err := coresim.Simulate(s.Machine, simConfig())
	n := s.Machine.GlobalRetired
	rc.tr.end(id, func(sp *span) { sp.Instr = n })
	rc.instr += n
	if err != nil {
		return v, err
	}
	v.TrueCPI = whole.CPI()

	for _, reg := range regs {
		cpi, err := rc.simRegion(reg)
		v.add(reg.sel, reg.slice, cpi, err == nil)
	}
	v.finish()
	return v, nil
}

func (rc *recomposer) simRegion(reg *region) (float64, error) {
	s, err := elfieSession(rc.tr, reg, rc.cfg.Seed, rc.cfg.SliceSize)
	if err != nil {
		return 0, err
	}
	m := s.Machine
	cfg := simConfig()
	cfg.StartMarker = rc.cfg.MarkerTag
	id := rc.tr.begin("coresim.region")
	sim := coresim.Attach(m, cfg)
	err = s.Run()
	res := sim.Finish()
	rc.tr.end(id, func(sp *span) { sp.Instr = m.GlobalRetired })
	rc.instr += m.GlobalRetired
	switch {
	case err != nil:
		return 0, err
	case !pinpoints.Completed(m), res.Ring3Instr+res.Ring0Instr <= reg.tail+reg.warmup:
		return 0, fmt.Errorf("simulated elfie for slice %d missed its graceful exit", reg.slice)
	}
	return res.CPI(), nil
}

func simConfig() coresim.Config { return coresim.Skylake1(coresim.FrontendSDE) }
