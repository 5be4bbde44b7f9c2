// Package elfie is a from-scratch reproduction of "ELFies: Executable
// Region Checkpoints for Performance Analysis and Simulation" (Patil,
// Isaev, Heirman, Sabu, Hajiabadi, Carlson — CGO 2021).
//
// The tool-chain captures a region of interest from a program's execution
// as a self-contained checkpoint (a pinball) and converts it into a
// stand-alone, statically-linked ELF executable (an ELFie) that starts with
// the exact captured state and then runs natively and unconstrained.
//
// Because raw x86 register/memory state cannot be restored from inside a Go
// runtime, the entire stack is built over a fully specified virtual machine
// (PVM-64) with an emulated Linux-like kernel — see DESIGN.md for the
// substitution table. Every layer of the paper's system is implemented:
//
//   - internal/isa, internal/asm, internal/elfobj — the PVM-64 ISA,
//     assembler/linker, and real ELF64 object format;
//   - internal/mem, internal/kernel, internal/vm — paged memory, syscall
//     layer with an in-memory filesystem, and the multi-threaded functional
//     machine whose hooks (vm.Hooks) are the Pin-like instrumentation API;
//   - internal/pinplay, internal/pinball — the PinPlay logger/replayer with
//     system-call injection and thread-order enforcement, and the pinball
//     format;
//   - internal/core — pinball2elf, the paper's primary contribution;
//   - internal/sysstate, internal/perfle — the SYSSTATE file/heap
//     re-creation tool and the hardware-counter measurement library;
//   - internal/bbv, internal/simpoint, internal/pinpoints — the SimPoint
//     region-selection methodology and the end-to-end pipeline;
//   - internal/uarch, internal/sniper, internal/coresim, internal/gem5sim —
//     the microarchitectural models and the three simulators of the
//     paper's case studies;
//   - internal/workloads — the synthetic SPEC-like benchmark generator.
//
// The bench harness in bench_test.go regenerates every table and figure of
// the paper's evaluation; EXPERIMENTS.md records the measured results next
// to the published ones.
package elfie
