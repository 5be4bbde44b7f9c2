// BenchmarkVMCore* — execution-core microbenchmarks tracking the decoded
// basic-block cache and fast memory translation paths:
//
//	go test -bench=BenchmarkVMCore -benchtime=2x
//
// Modes per workload: "chained" is the unhooked chained-block path (what
// elfierun and farm validation get), "block" the decoded-block cache with
// chaining and superblocks disabled (the pre-chaining configuration),
// "interp" the per-instruction interpreter with the cache disabled too,
// and "hooked" the per-instruction path with an OnIns counter attached
// (what bbv profiling pays).
//
// Each benchmark is a thin wrapper over one internal/grid vmcore cell on a
// corpus micro kernel — the same measurement path as
//
//	elfiebench -grid grids/vm.json
//
// which is also the only producer of BENCH_vm.json / BENCH_vm_history.json
// (this file used to emit them from a TestMain side effect; the shared
// results package owns that format now).
package elfie_test

import (
	"testing"

	"elfie/internal/grid"
	"elfie/internal/workloads"
)

// benchVMCore executes one grid vmcore cell with b.N repeats and reports
// the best observed rate, exactly as the grid's aggregation would.
func benchVMCore(b *testing.B, workload, mode string) {
	entry, ok := workloads.CorpusByName(workload)
	if !ok {
		b.Fatalf("corpus kernel %s missing", workload)
	}
	exp := &grid.Experiment{Name: "vmcore", Kind: grid.KindVMCore}
	row := grid.Execute(&grid.Cell{
		ID:      "vmcore/" + workload + "/" + mode + "/s1",
		Exp:     exp,
		Recipe:  entry.Recipe,
		Mode:    mode,
		Seed:    1,
		Repeats: b.N,
	})
	if row.Status != "ok" {
		b.Fatalf("%s: exit %d: %s", row.ID, row.ExitCode, row.Error)
	}
	b.ReportMetric(row.MIPS.Max, "MIPS")
	b.ReportMetric(float64(row.Instructions), "instructions")
}

func BenchmarkVMCoreDecodeHeavyChained(b *testing.B)  { benchVMCore(b, "decode_heavy", "chained") }
func BenchmarkVMCoreDecodeHeavyBlock(b *testing.B)    { benchVMCore(b, "decode_heavy", "block") }
func BenchmarkVMCoreDecodeHeavyInterp(b *testing.B)   { benchVMCore(b, "decode_heavy", "interp") }
func BenchmarkVMCoreDecodeHeavyHooked(b *testing.B)   { benchVMCore(b, "decode_heavy", "hooked") }
func BenchmarkVMCoreMemStreamChained(b *testing.B)    { benchVMCore(b, "mem_stream", "chained") }
func BenchmarkVMCoreMemStreamBlock(b *testing.B)      { benchVMCore(b, "mem_stream", "block") }
func BenchmarkVMCoreMemStreamInterp(b *testing.B)     { benchVMCore(b, "mem_stream", "interp") }
func BenchmarkVMCoreMemStreamHooked(b *testing.B)     { benchVMCore(b, "mem_stream", "hooked") }
func BenchmarkVMCoreSyscallDenseChained(b *testing.B) { benchVMCore(b, "syscall_dense", "chained") }
func BenchmarkVMCoreSyscallDenseBlock(b *testing.B)   { benchVMCore(b, "syscall_dense", "block") }
func BenchmarkVMCoreSyscallDenseInterp(b *testing.B)  { benchVMCore(b, "syscall_dense", "interp") }
func BenchmarkVMCoreSyscallDenseHooked(b *testing.B)  { benchVMCore(b, "syscall_dense", "hooked") }
