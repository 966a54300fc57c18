package difftest

// Internal test for the per-check sandbox: simulate reuses one arena across
// the engine runs of a program, so what a run observes must not depend on
// what ran in the arena before it.

import (
	"bytes"
	"reflect"
	"testing"

	"configwall/internal/core"
	"configwall/internal/irgen"
	"configwall/internal/mem"
	"configwall/internal/sim"
)

// poison fills the parts of the arena a program reads and compares — the
// buffer area and the statics behind it, and one page just below the stack —
// with 0xFF through mem's public write API, as a previous run's stores would.
func poison(memory *mem.Memory) {
	const page = 1 << 16
	for _, lo := range []uint64{bufferBase, stackBase - page} {
		for a := lo; a < lo+page; a += 8 {
			memory.Write64(a, ^uint64(0))
		}
	}
}

// TestReusedSandboxIndistinguishableFromFresh: program Y run in a sandbox
// that already ran program X, and was scribbled over since, yields the same
// Execution as Y in a brand-new sandbox — for every pipeline and engine — and
// its Mem is the full [0, stackBase) image with the trailing zeros dropped.
// It is the test that holds simulate to mem.Reset's contract (DESIGN.md §8).
func TestReusedSandboxIndistinguishableFromFresh(t *testing.T) {
	for _, name := range core.TargetNames() {
		tgt, err := core.LookupTarget(name)
		if err != nil {
			t.Fatal(err)
		}
		prof, err := irgen.ProfileFor(name)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 25; i++ {
			var progs [2]irgen.Program
			for j := range progs {
				if progs[j], err = irgen.Generate(prof, irgen.DeriveSeed(int64(21+j), name, i)); err != nil {
					t.Fatal(err)
				}
			}
			reused := mem.New(memorySize)
			for _, p := range core.Pipelines {
				var runs [2]func(sim.Engine, *mem.Memory) Execution
				for j, prog := range progs {
					clone, err := runPasses(prog.Module, tgt.PassPipeline(p), nil, nil)
					if err != nil {
						t.Fatal(err)
					}
					compiled, err := compileProgram(clone, prog)
					if err != nil {
						t.Fatal(err)
					}
					runs[j] = func(eng sim.Engine, memory *mem.Memory) Execution {
						exec, err := simulate(tgt, prog, &compiled, eng, true, memory)
						if err != nil {
							t.Fatalf("%s seed %d %s %s: %v", name, prog.Seed, p, eng, err)
						}
						return exec
					}
				}
				for _, eng := range sim.Engines {
					runs[0](eng, reused)
					poison(reused)
					got := runs[1](eng, reused)
					full := bytes.TrimRight(reused.Snapshot(0, stackBase), "\x00")
					want := runs[1](eng, mem.New(memorySize))
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s seed %d %s %s: a reused sandbox is distinguishable from a fresh one (%d/%d instrs, %d/%d image bytes): %v",
							name, progs[1].Seed, p, eng, got.ProgramInstrs, want.ProgramInstrs, len(got.Mem), len(want.Mem),
							equalExecutions(want, got, "reused sandbox"))
					}
					if !bytes.Equal(got.Mem, full) {
						addr, _ := firstMemDiff(got.Mem, full)
						t.Errorf("%s seed %d %s %s: Mem (%d bytes) is not the trimmed full image (%d bytes), first difference at %#x",
							name, progs[1].Seed, p, eng, len(got.Mem), len(full), addr)
					}
				}
			}
		}
	}
}

// TestOracleLayoutIsPinned: the oracle compiles under 64-byte aligned
// buffers from 0x1000 with sp at 0xF0000, not under the cell's packed
// layout — corpus files and minimized witnesses carry these addresses.
func TestOracleLayoutIsPinned(t *testing.T) {
	layout := core.Layout{BufferBase: 0x1000, Align: 64, StackBase: 0xF0000}
	for name, want := range map[string]core.Program{
		"gemmini":  {Layout: layout, Bases: []uint64{0x1000, 0x2000, 0x3000, 0x4000, 0x8000}, StaticBase: 0x8800},
		"opengemm": {Layout: layout, Bases: []uint64{0x1000, 0x2000, 0x3000, 0x7000}, StaticBase: 0x7800},
	} {
		tgt, err := core.LookupTarget(name)
		if err != nil {
			t.Fatal(err)
		}
		prof, err := irgen.ProfileFor(name)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := irgen.Generate(prof, irgen.DeriveSeed(1, name, 0))
		if err != nil {
			t.Fatal(err)
		}
		clone, err := runPasses(prog.Module, tgt.PassPipeline(core.Baseline), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := compileProgram(clone, prog)
		if err != nil {
			t.Fatal(err)
		}
		got.Program = nil // the code is not what is pinned here
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: placed as %+v, want %+v", name, got, want)
		}
	}
}
