package core_test

// Tests for the cell ABI (DESIGN.md §1): Compile / (*Compiled).Execute and
// CompileModule / (*Program).Start are the only code that lays a program
// out and starts it, so what they decide — the addresses, the registers,
// that a Compiled is read-only — is pinned here.

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"configwall/internal/core"
	"configwall/internal/ir"
	"configwall/internal/mem"
	"configwall/internal/riscv"
	"configwall/internal/sim"
)

// mainOver parses a module whose "main" takes one i8 memref per size, then
// the given number of i64 scalars, runs body and returns.
func mainOver(t *testing.T, sizes []uint64, scalars int, body string) *ir.Module {
	t.Helper()
	var args, types []string
	for i, size := range sizes {
		args = append(args, fmt.Sprintf("%%b%d: memref<%dxi8>", i, size))
		types = append(types, fmt.Sprintf("memref<%dxi8>", size))
	}
	for i := 0; i < scalars; i++ {
		args = append(args, fmt.Sprintf("%%s%d: i64", i))
		types = append(types, "i64")
	}
	src := fmt.Sprintf(`"builtin.module"() ({
  "fnc.func"() ({
    ^(%s):
%s    "fnc.return"() : () -> ()
  }) {function_type = (%s) -> (), sym_name = "main"} : () -> ()
}) : () -> ()
`, strings.Join(args, ", "), body, strings.Join(types, ", "))
	m, err := ir.Parse(src)
	if err != nil {
		t.Fatalf("parsing test module: %v\n%s", err, src)
	}
	if err := ir.Verify(m); err != nil {
		t.Fatalf("test module does not verify: %v", err)
	}
	return m
}

// TestLayoutsArePinned: the two layouts in use — the cell's (packed from
// 1 MiB, sp at 60 MiB) and the oracle's (64-byte aligned from 0x1000, sp at
// 0xF0000) — produce exactly these addresses for these sizes, and Start
// puts the bases in a0…, the scalars after the last base and sp at the
// stack base. Minimized witnesses print these addresses, and a corpus file
// replays against them.
func TestLayoutsArePinned(t *testing.T) {
	cell := core.Layout{BufferBase: 1 << 20, Align: 1, StackBase: 60 << 20}
	oracle := core.Layout{BufferBase: 0x1000, Align: 64, StackBase: 0xF0000}
	for _, tc := range []struct {
		name   string
		layout core.Layout
		sizes  []uint64
		bases  []uint64
		static uint64
	}{
		{"cell/opengemm-matmul-16", cell, []uint64{256, 256, 1024}, []uint64{0x100000, 0x100100, 0x100200}, 0x100600},
		{"cell/odd-sizes-pack", cell, []uint64{3, 5}, []uint64{0x100000, 0x100003}, 0x100008},
		{"cell/no-buffers", cell, nil, []uint64{}, 0x100000},
		{"oracle/opengemm-profile", oracle, []uint64{4096, 4096, 16384, 2048}, []uint64{0x1000, 0x2000, 0x3000, 0x7000}, 0x7800},
		{"oracle/odd-sizes-align", oracle, []uint64{3, 65}, []uint64{0x1000, 0x1040}, 0x10c0},
	} {
		scalars := []int64{-7, 1 << 40}
		prog, err := core.CompileModule(mainOver(t, tc.sizes, len(scalars), ""), tc.sizes, tc.layout)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !reflect.DeepEqual(prog.Bases, tc.bases) || prog.StaticBase != tc.static || prog.Layout != tc.layout {
			t.Errorf("%s: bases %#x static %#x layout %+v, want %#x / %#x / %+v",
				tc.name, prog.Bases, prog.StaticBase, prog.Layout, tc.bases, tc.static, tc.layout)
		}
		// The body is empty, so the registers at HALT are the ones Start set.
		mc := sim.NewMachine(mem.New(1<<20), riscv.SnitchCost(), nil)
		if err := prog.Start(mc, scalars...); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		reg := riscv.A0
		for i, base := range tc.bases {
			if got := mc.Regs[reg]; got != int64(base) {
				t.Errorf("%s: buffer %d: a%d = %#x, want %#x", tc.name, i, i, got, base)
			}
			reg++
		}
		for i, s := range scalars {
			if got := mc.Regs[reg]; got != s {
				t.Errorf("%s: scalar %d: a%d = %d, want %d", tc.name, i, len(tc.bases)+i, got, s)
			}
			reg++
		}
		if got := mc.Regs[riscv.SP]; got != int64(tc.layout.StackBase) {
			t.Errorf("%s: sp = %#x, want %#x", tc.name, got, tc.layout.StackBase)
		}
	}

	// The cell's layout is not a parameter: pin it through Compile.
	w, err := core.LookupWorkload(core.WorkloadMatmul)
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.Compile(core.OpenGeMMTarget(), w, core.Baseline, 16)
	if err != nil {
		t.Fatal(err)
	}
	if c.Prog.Layout != cell || !reflect.DeepEqual(c.Prog.Bases, []uint64{0x100000, 0x100100, 0x100200}) || c.Prog.StaticBase != 0x100600 {
		t.Errorf("compiled cell: layout %+v bases %#x static %#x, want the packed layout from 1 MiB",
			c.Prog.Layout, c.Prog.Bases, c.Prog.StaticBase)
	}
}

// TestBuffersMayNotReachTheStack keeps the older half of the layout check
// and its text.
func TestBuffersMayNotReachTheStack(t *testing.T) {
	sizes := []uint64{0xEF000}
	_, err := core.CompileModule(mainOver(t, sizes, 0, ""), sizes, core.Layout{BufferBase: 0x1000, Align: 64, StackBase: 0xF0000})
	if err == nil || err.Error() != "buffers exceed simulated memory" {
		t.Errorf("buffers ending at the stack base: err = %v, want buffers exceed simulated memory", err)
	}
}

// TestStaticsMayNotReachTheStack: a module whose memref.alloc runs past the
// stack base is refused by Run before anything executes — before this check
// the store below landed among the spill frames and the run reported
// success — and the refusal takes no context from the pool: the same normal
// cell before and after it yields the same Result, trace included.
func TestStaticsMayNotReachTheStack(t *testing.T) {
	// 60 MiB of i64 placed at 1 MiB + 128 ends past the stack base at
	// 60 MiB and inside the 64 MiB arena, so nothing but the check objects.
	const elems = 60 << 20 / 8
	body := fmt.Sprintf(`    %%big = "memref.alloc"() : () -> (memref<%dxi64>)
    %%last = "arith.constant"() {value = %d : index} : () -> (index)
    %%one = "arith.constant"() {value = 1 : i64} : () -> (i64)
    "memref.store"(%%one, %%big, %%last) : (i64, memref<%dxi64>, index) -> ()
`, elems, elems-1, elems)
	sizes := []uint64{128}
	overflow := core.Workload{
		Name: "statics-past-the-stack",
		Build: func(core.Target, int) (core.Instance, error) {
			return core.Instance{Module: mainOver(t, sizes, 0, body), Buffers: []core.Buffer{{Bytes: sizes[0]}}}, nil
		},
	}

	target := core.OpenGeMMTarget()
	before := tracedMatmul(t, target, core.AllOptimizations, 32, core.RunOptions{})
	for _, p := range core.Pipelines {
		res, err := core.Run(target, overflow, p, 1, core.RunOptions{})
		if err == nil || !strings.Contains(err.Error(), "static allocations exceed simulated memory") {
			t.Fatalf("%s: err = %v (cycles %d), want static allocations exceed simulated memory", p, err, res.Cycles)
		}
		if !strings.HasPrefix(err.Error(), "codegen for opengemm/statics-past-the-stack/1: ") {
			t.Errorf("%s: error does not name the cell the way Run's other codegen errors do: %v", p, err)
		}
	}
	after := tracedMatmul(t, target, core.AllOptimizations, 32, core.RunOptions{})
	if !reflect.DeepEqual(before, after) {
		t.Errorf("a normal cell changed across refused runs:\nbefore: %+v\nafter:  %+v", before.Counters, after.Counters)
	}
}

// TestCompiledIsReusable: one Compiled, executed under every engine with
// and without a trace, twice in a row on each of two goroutines, returns
// Results deeply equal to a fresh run of the same options — Run untraced,
// and a fresh Compile's traced Execute traced, whose Result is Run's plus
// the timeline — for both targets, every pipeline, a one-tile and a
// multi-tile size. Compile's half is a pure function of (target, workload,
// pipeline, n) and Execute writes nothing into it; under -race this is also
// the test that says so.
func TestCompiledIsReusable(t *testing.T) {
	w, err := core.LookupWorkload(core.WorkloadMatmul)
	if err != nil {
		t.Fatal(err)
	}
	for _, target := range []core.Target{core.GemminiTarget(), core.OpenGeMMTarget()} {
		for _, p := range core.Pipelines {
			for _, n := range []int{16, 64} {
				c, err := core.Compile(target, w, p, n)
				if err != nil {
					t.Fatal(err)
				}
				for _, eng := range sim.Engines {
					opts := core.RunOptions{Engine: eng}
					run, err := core.Run(target, w, p, n, opts)
					if err != nil || !run.Verified || run.Trace != nil {
						t.Fatalf("%s/%s/%d %+v: fresh Run verified=%v trace=%d err=%v", target.Name, p, n, opts, run.Verified, len(run.Trace), err)
					}
					traced := tracedMatmul(t, target, p, n, opts)
					untraced := traced
					untraced.Trace = nil
					if len(traced.Trace) == 0 || !reflect.DeepEqual(untraced, run) {
						t.Fatalf("%s/%s/%d %+v: a traced Execute differs from Run by more than its %d-segment timeline", target.Name, p, n, opts, len(traced.Trace))
					}
					for _, trace := range []bool{false, true} {
						want := run
						if trace {
							want = traced
						}
						var wg sync.WaitGroup
						for g := 0; g < 2; g++ {
							wg.Add(1)
							go func() {
								defer wg.Done()
								for round := 0; round < 2; round++ {
									got, err := c.Execute(opts, trace)
									if err != nil {
										t.Errorf("%s/%s/%d %+v trace=%v: Execute: %v", target.Name, p, n, opts, trace, err)
									} else if !reflect.DeepEqual(got, want) {
										t.Errorf("%s/%s/%d %+v trace=%v goroutine %d round %d: Execute differs from a fresh run:\ngot:  %+v\nwant: %+v",
											target.Name, p, n, opts, trace, g, round, got.Counters, want.Counters)
									}
								}
							}()
						}
						wg.Wait()
					}
				}
			}
		}
	}
}
