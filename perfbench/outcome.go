package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"

	"elfie/internal/pinpoints"
	"elfie/internal/simpoint"
)

// outcome is everything a pipeline run must reproduce exactly: the
// selection, the SHA-256 of the ELFie bytes in selection order, and the
// true and predicted CPIs of both validations.
type outcome struct {
	Recipe    string
	Selection []simpoint.Region
	Native    validation
	Sim       validation

	elfies hash.Hash
}

// validation mirrors pinpoints.Validation's measured fields.
type validation struct {
	TrueCPI      float64
	PredictedCPI float64
	Coverage     float64
	Regions      []regionCPI
}

type regionCPI struct {
	Cluster, Slice int
	Weight, CPI    float64
	OK             bool
}

func (o *outcome) setSelection(sel *simpoint.Result) {
	o.Selection = append([]simpoint.Region(nil), sel.Regions...)
}

func (o *outcome) addELFie(b []byte) {
	if o.elfies == nil {
		o.elfies = sha256.New()
	}
	o.elfies.Write(b)
}

// digest is the SHA-256 of the ELFie bytes added so far, in order.
func (o *outcome) digest() string {
	if o.elfies == nil {
		o.elfies = sha256.New()
	}
	return hex.EncodeToString(o.elfies.Sum(nil))
}

func (v *validation) add(sel simpoint.Region, slice int, cpi float64, ok bool) {
	v.Regions = append(v.Regions, regionCPI{
		Cluster: sel.Cluster, Slice: slice, Weight: sel.Weight, CPI: cpi, OK: ok,
	})
}

// finish computes coverage and the weighted prediction in the order and
// arithmetic of pinpoints.Validation, so equal inputs give equal floats.
func (v *validation) finish() {
	var wsum, cpiw float64
	for _, rc := range v.Regions {
		if rc.OK {
			wsum += rc.Weight
			cpiw += rc.Weight * rc.CPI
		}
	}
	v.Coverage = wsum
	if wsum > 0 {
		v.PredictedCPI = cpiw / wsum
	}
}

// errPct is |true - predicted| / true, in percent.
func (v *validation) errPct() float64 {
	return 100 * math.Abs(v.TrueCPI-v.PredictedCPI) / v.TrueCPI
}

func (v *validation) failed() int {
	n := 0
	for _, rc := range v.Regions {
		if !rc.OK {
			n++
		}
	}
	return n
}

func fromValidation(pv *pinpoints.Validation) validation {
	v := validation{
		TrueCPI: pv.TrueCPI, PredictedCPI: pv.PredictedCPI, Coverage: pv.Coverage,
	}
	for _, rc := range pv.PerRegion {
		v.Regions = append(v.Regions, regionCPI{
			Cluster: rc.Cluster, Slice: rc.SliceUsed, Weight: rc.Weight, CPI: rc.CPI, OK: rc.OK,
		})
	}
	return v
}

// fromPinpoints reads the outcome of Prepare + ValidateNative + ValidateSim.
func fromPinpoints(b *pinpoints.Benchmark, vn, vs *pinpoints.Validation) (*outcome, error) {
	o := &outcome{Recipe: b.Recipe.Name}
	o.setSelection(b.Selection)
	if err := o.addRegions(b); err != nil {
		return nil, err
	}
	o.Native, o.Sim = fromValidation(vn), fromValidation(vs)
	return o, nil
}

func (o *outcome) addRegions(b *pinpoints.Benchmark) error {
	for _, reg := range b.Regions {
		buf, err := reg.ELFie.Write()
		if err != nil {
			return fmt.Errorf("%s: write ELFie: %w", reg.Pinball.Name, err)
		}
		o.addELFie(buf)
	}
	return nil
}

// diff names the first field on which two outcomes disagree, or "".
func (o *outcome) diff(want *outcome) string {
	got := fmt.Sprintf("%+v", o.Selection)
	if w := fmt.Sprintf("%+v", want.Selection); got != w {
		return fmt.Sprintf("%s selection %s, want %s", o.Recipe, got, w)
	}
	if g, w := o.digest(), want.digest(); g != w {
		return fmt.Sprintf("%s ELFie digest %.16s, want %.16s", o.Recipe, g, w)
	}
	for _, p := range []struct {
		name      string
		got, want validation
	}{{"native", o.Native, want.Native}, {"sim", o.Sim, want.Sim}} {
		g, w := fmt.Sprintf("%+v", p.got), fmt.Sprintf("%+v", p.want)
		if g != w {
			return fmt.Sprintf("%s %s validation %s, want %s", o.Recipe, p.name, g, w)
		}
	}
	return ""
}
