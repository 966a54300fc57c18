package difftest

// Internal test for the per-check scratch: simulate reuses one arena, one
// image buffer, launch buffers and one trace buffer across the engine runs
// of a program and across checks, so what a run observes must not depend on
// what ran in the scratch before it.

import (
	"bytes"
	"reflect"
	"slices"
	"testing"

	"configwall/internal/accel"
	"configwall/internal/core"
	"configwall/internal/irgen"
	"configwall/internal/mem"
	"configwall/internal/sim"
)

// poison fills the parts of the arena a program reads and compares — the
// buffer area and the statics behind it, and one page just below the stack —
// with 0xFF through mem's public write API, as a previous run's stores would,
// and scribbles over the whole capacity of the scratch's image, launch and
// trace buffers.
func poison(s *scratch) {
	const page = 1 << 16
	for _, lo := range []uint64{bufferBase, stackBase - page} {
		for a := lo; a < lo+page; a += 8 {
			s.sandbox.Write64(a, ^uint64(0))
		}
	}
	img := s.img[:cap(s.img)]
	for i := range img {
		img[i] = 0xFF
	}
	for _, l := range s.launches {
		l = l[:cap(l)]
		for i := range l {
			l[i] = accel.Launch{Ops: ^uint64(0), Cycles: ^uint64(0)}
		}
	}
	tr := s.trace[:cap(s.trace)]
	for i := range tr {
		tr[i] = sim.Segment{Kind: sim.SegAccelBusy, Start: 1, End: ^uint64(0)}
	}
}

// sameExecution compares two observations field by field, an empty slice
// equal to a nil one.
func sameExecution(a, b Execution) bool {
	return a.Counters == b.Counters && slices.Equal(a.Launches, b.Launches) && bytes.Equal(a.Mem, b.Mem) &&
		a.TraceSummary == b.TraceSummary && a.ProgramInstrs == b.ProgramInstrs
}

// TestReusedSandboxIndistinguishableFromFresh: program Y run in a scratch
// that already ran program X, and was scribbled over since, yields the same
// Execution as Y in a brand-new scratch — for every pipeline, engine and
// place the observation is held — and its Mem is the full [0, stackBase)
// image with the trailing zeros dropped. It is the test that holds simulate
// to mem.Reset's contract (DESIGN.md §8) and to truncating every buffer it
// reuses.
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
			reused := &scratch{sandbox: mem.New(memorySize)}
			for _, p := range core.Pipelines {
				var runs [2]func(sim.Engine, *scratch, hold) Execution
				for j, prog := range progs {
					clone, err := runPasses(prog.Module, tgt.PassPipeline(p), nil, nil)
					if err != nil {
						t.Fatal(err)
					}
					compiled, err := compileProgram(clone, prog)
					if err != nil {
						t.Fatal(err)
					}
					runs[j] = func(eng sim.Engine, s *scratch, h hold) Execution {
						exec, err := s.simulate(tgt, prog, &compiled, eng, true, h)
						if err != nil {
							t.Fatalf("%s seed %d %s %s: %v", name, prog.Seed, p, eng, err)
						}
						return exec
					}
				}
				for _, eng := range sim.Engines {
					for _, h := range []hold{handOut, holdRef, inPlace} {
						runs[0](eng, reused, h)
						poison(reused)
						got := runs[1](eng, reused, h)
						full := bytes.TrimRight(reused.sandbox.Snapshot(0, stackBase), "\x00")
						want := runs[1](eng, &scratch{sandbox: mem.New(memorySize)}, handOut)
						if !sameExecution(got, want) {
							t.Errorf("%s seed %d %s %s hold %d: a reused scratch is distinguishable from a fresh one (%d/%d instrs, %d/%d image bytes): %v",
								name, progs[1].Seed, p, eng, h, got.ProgramInstrs, want.ProgramInstrs, len(got.Mem), len(want.Mem),
								equalExecutions(want, got, "reused scratch"))
						}
						if !bytes.Equal(got.Mem, full) {
							addr, _ := firstMemDiff(got.Mem, full)
							t.Errorf("%s seed %d %s %s hold %d: Mem (%d bytes) is not the trimmed full image (%d bytes), first difference at %#x",
								name, progs[1].Seed, p, eng, h, len(got.Mem), len(full), addr)
						}
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

// TestHandedOutExecutionsAreOwned: what a check hands out — Report.Base and
// Execute's result — stays as it was while later checks and executions
// reuse the scratch it was simulated in.
func TestHandedOutExecutionsAreOwned(t *testing.T) {
	for _, name := range core.TargetNames() {
		tgt, err := core.LookupTarget(name)
		if err != nil {
			t.Fatal(err)
		}
		prof, err := irgen.ProfileFor(name)
		if err != nil {
			t.Fatal(err)
		}
		gen := func(i int) irgen.Program {
			prog, err := irgen.Generate(prof, irgen.DeriveSeed(1, name, i))
			if err != nil {
				t.Fatal(err)
			}
			return prog
		}
		prog := gen(0)
		rep := Check(tgt, prog, Options{})
		exec, _, err := Execute(tgt, prog.Module, prog, tgt.PassPipeline(core.AllOptimizations), nil, true)
		if err != nil || rep.Invalid || len(rep.Base.Mem) == 0 || len(exec.Mem) == 0 || len(rep.Base.Launches) == 0 {
			t.Fatalf("%s: program 0 has nothing to hand out (err %v, invalid %v, %d/%d image bytes, %d launches)",
				name, err, rep.Invalid, len(rep.Base.Mem), len(exec.Mem), len(rep.Base.Launches))
		}
		want := [2]Execution{rep.Base, exec}
		for i := range want {
			want[i].Mem, want[i].Launches = bytes.Clone(want[i].Mem), slices.Clone(want[i].Launches)
		}
		first := takeScratch()
		first.release()
		for i := 1; i <= 8; i++ {
			later := gen(i)
			Check(tgt, later, Options{})
			Execute(tgt, later.Module, later, tgt.PassPipeline(core.Pipelines[i%len(core.Pipelines)]), nil, i%2 == 0)
		}
		if s := takeScratch(); s != first {
			t.Fatalf("%s: the later checks did not reuse the scratch entry", name)
		} else {
			s.release()
		}
		for i, got := range [2]Execution{rep.Base, exec} {
			if !sameExecution(got, want[i]) {
				t.Errorf("%s: %s changed after later checks reused its scratch", name, [2]string{"Report.Base", "Execute's result"}[i])
			}
		}
	}
}

// TestReferenceRunOutlivesTheEngineRun: a holdRef observation stays as it
// was while an inPlace run of another program reuses the scratch — the
// order execute runs them in before it compares the two.
func TestReferenceRunOutlivesTheEngineRun(t *testing.T) {
	for _, name := range core.TargetNames() {
		tgt, err := core.LookupTarget(name)
		if err != nil {
			t.Fatal(err)
		}
		prof, err := irgen.ProfileFor(name)
		if err != nil {
			t.Fatal(err)
		}
		s := &scratch{sandbox: mem.New(memorySize)}
		var runs [2]func(hold) Execution
		for j := range runs {
			prog, err := irgen.Generate(prof, irgen.DeriveSeed(31, name, j))
			if err != nil {
				t.Fatal(err)
			}
			clone, err := runPasses(prog.Module, tgt.PassPipeline(core.AllOptimizations), nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			compiled, err := compileProgram(clone, prog)
			if err != nil {
				t.Fatal(err)
			}
			runs[j] = func(h hold) Execution {
				exec, err := s.simulate(tgt, prog, &compiled, sim.EngineRef, true, h)
				if err != nil {
					t.Fatal(err)
				}
				return exec
			}
		}
		ref := runs[0](holdRef)
		want := ref
		want.Mem, want.Launches = bytes.Clone(ref.Mem), slices.Clone(ref.Launches)
		if other := runs[1](inPlace); sameExecution(other, want) {
			t.Fatalf("%s: the two programs observe the same, so the test shows nothing", name)
		}
		if !sameExecution(ref, want) {
			t.Errorf("%s: the reference run's observation changed under the next run", name)
		}
	}
}
