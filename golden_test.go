package elfie_test

import (
	"crypto/sha256"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"elfie/internal/coresim"
	"elfie/internal/pinpoints"
	"elfie/internal/simpoint"
	"elfie/internal/workloads"
)

// goldenOutcome is everything a pipeline run must reproduce bit for bit:
// the SimPoint selection, the SHA-256 over every ELFie's bytes and over
// every pinball's file set in selection order, and the float64 bit
// patterns of the native and simulated true and predicted CPIs.
type goldenOutcome struct {
	selection              string
	elfies, pinballs       string
	nativeTrue, nativePred uint64
	simTrue, simPred       uint64
}

// goldenPipelines pins the outputs of the paper's flow (Prepare, then
// ValidateNative and ValidateSim) on trimmed recipes. The values were
// captured from the implementation before the predecoded hooked fetch and
// the O(1) timing-model paths went in; any change to the VM's hooked path
// or the uarch models that moves a single bit of output fails here.
var goldenPipelines = []struct {
	recipe string
	keep   int // phases of the recipe's script kept
	want   goldenOutcome
}{
	{"602.gcc_t", 8, goldenOutcome{
		selection: "15/0/3fd1745d1745d174/[14 10 13];5/1/3fd1745d1745d174/[21 7 4];" +
			"0/5/3fcd1745d1745d17/[2 18 1];19/2/3fa745d1745d1746/[];3/3/3fa745d1745d1746/[];" +
			"12/4/3fa745d1745d1746/[];16/6/3fa745d1745d1746/[];11/7/3fa745d1745d1746/[];",
		elfies:     "e36b20a1e01958180b94a493f12b61693ada2f96029e58cdea844ee712b4f5ac",
		pinballs:   "af342846bbb0f9c1f8fd8639ab6e5a175935f4ea3171c32f5d7b6c5fcfff5521",
		nativeTrue: 0x3ff8158dff541d40, nativePred: 0x3ffe96b196713e46,
		simTrue: 0x3feb0f879e3c3232, simPred: 0x3fee9d25e1e2d99f,
	}},
	{"605.mcf_t", 8, goldenOutcome{
		selection: "10/0/3fd6666666666666/[13 0 14];7/2/3fd0000000000000/[19 6 18];" +
			"16/7/3fc3333333333333/[3 4];15/1/3fa999999999999a/[];17/3/3fa999999999999a/[];" +
			"2/4/3fa999999999999a/[];5/5/3fa999999999999a/[];9/6/3fa999999999999a/[];",
		elfies:     "38b40a1d5b14bef27c47ade1476632cde87f2e5009baabd9aba33c5e15145ad5",
		pinballs:   "b73c6581e4291dde3290d2f6e843effc8cc612be57162d5b123c1248e8af3a19",
		nativeTrue: 0x4010c49b0955c894, nativePred: 0x401127f5c6c11a10,
		simTrue: 0x3ff0b6e8f084069a, simPred: 0x3ff2d57fa6855157,
	}},
}

// renderSelection renders a selection canonically: per region its
// representative slice, cluster, exact weight bits and alternates.
func renderSelection(sel *simpoint.Result) string {
	var b strings.Builder
	for _, r := range sel.Regions {
		fmt.Fprintf(&b, "%d/%d/%016x/%v;", r.SliceIndex, r.Cluster, math.Float64bits(r.Weight), r.Alternates)
	}
	return b.String()
}

func goldenRun(t *testing.T, name string, keep int) goldenOutcome {
	t.Helper()
	r, ok := workloads.ByName(name)
	if !ok {
		t.Fatalf("recipe %s missing", name)
	}
	if len(r.Sequence) > keep {
		r.Sequence = r.Sequence[:keep]
	}
	cfg := pinpoints.Config{
		SliceSize: 100_000, WarmupSize: 400_000, MaxK: 10, Seed: 1,
		MarkerTag: 0x1010, UseSysState: true, Jobs: 2,
	}
	b, err := pinpoints.Prepare(r, cfg)
	if err != nil {
		t.Fatal(err)
	}
	h, hp := sha256.New(), sha256.New()
	for _, reg := range b.Regions {
		buf, err := reg.ELFie.Write()
		if err != nil {
			t.Fatal(err)
		}
		h.Write(buf)
		files, err := reg.Pinball.FileSet()
		if err != nil {
			t.Fatal(err)
		}
		names := make([]string, 0, len(files))
		for name := range files {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(hp, "%s %d\n", name, len(files[name]))
			hp.Write(files[name])
		}
	}
	vn, err := pinpoints.ValidateNative(b, 1)
	if err != nil {
		t.Fatal(err)
	}
	vs, err := pinpoints.ValidateSim(b, coresim.Skylake1(coresim.FrontendSDE))
	if err != nil {
		t.Fatal(err)
	}
	return goldenOutcome{
		selection:  renderSelection(b.Selection),
		elfies:     fmt.Sprintf("%x", h.Sum(nil)),
		pinballs:   fmt.Sprintf("%x", hp.Sum(nil)),
		nativeTrue: math.Float64bits(vn.TrueCPI),
		nativePred: math.Float64bits(vn.PredictedCPI),
		simTrue:    math.Float64bits(vs.TrueCPI),
		simPred:    math.Float64bits(vs.PredictedCPI),
	}
}

// TestGoldenPipelineOutputs is the output-drift guard for speed work on
// the instrumented execution path: the pipeline's selection, ELFie bytes
// and CPIs must equal the pinned values exactly.
func TestGoldenPipelineOutputs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full pipeline")
	}
	for _, g := range goldenPipelines {
		t.Run(g.recipe, func(t *testing.T) {
			got := goldenRun(t, g.recipe, g.keep)
			if got != g.want {
				t.Errorf("pipeline outputs drifted:\ngot  %s\nwant %s", describeGolden(got), describeGolden(g.want))
			}
		})
	}
}

func describeGolden(o goldenOutcome) string {
	return fmt.Sprintf("selection %q\n     elfies %s\n     pinballs %s\n     native true %#x (%v) pred %#x (%v)\n     sim    true %#x (%v) pred %#x (%v)",
		o.selection, o.elfies, o.pinballs,
		o.nativeTrue, math.Float64frombits(o.nativeTrue), o.nativePred, math.Float64frombits(o.nativePred),
		o.simTrue, math.Float64frombits(o.simTrue), o.simPred, math.Float64frombits(o.simPred))
}
