package codegen_test

import (
	"testing"

	"configwall/internal/codegen"
	"configwall/internal/core"
	"configwall/internal/dialects/arith"
	"configwall/internal/dialects/fnc"
	"configwall/internal/dialects/memref"
	"configwall/internal/dialects/scf"
	"configwall/internal/ir"
	"configwall/internal/mem"
	"configwall/internal/riscv"
	"configwall/internal/sim"
)

// run compiles the module's entry function and executes it, returning the
// machine for register/memory inspection.
func run(t *testing.T, m *ir.Module, args ...int64) *sim.Machine {
	t.Helper()
	if err := ir.Verify(m); err != nil {
		t.Fatalf("module invalid: %v\n%s", err, ir.PrintModule(m))
	}
	prog, _, err := codegen.Compile(m, "main", codegen.Options{})
	if err != nil {
		t.Fatalf("compile: %v\n%s", err, ir.PrintModule(m))
	}
	mc := sim.NewMachine(mem.New(1<<22), riscv.FlatCost{PerInstr: 1, ModelName: "test"}, nil)
	for i, a := range args {
		mc.Regs[int(riscv.A0)+i] = a
	}
	mc.Regs[riscv.SP] = 1 << 21
	if err := mc.Run(prog); err != nil {
		t.Fatalf("run: %v\n%s", err, prog.Disassemble())
	}
	return mc
}

func newFunc(m *ir.Module, in []ir.Type, out []ir.Type) (fnc.Func, *ir.Builder) {
	f := fnc.NewFunc("main", ir.FuncType(in, out))
	m.Append(f.Op)
	return f, ir.AtEnd(f.Body())
}

func TestSumLoop(t *testing.T) {
	m := ir.NewModule()
	f, b := newFunc(m, nil, []ir.Type{ir.I64})
	lb := arith.NewConstant(b, 0, ir.Index)
	ub := arith.NewConstant(b, 10, ir.Index)
	step := arith.NewConstant(b, 1, ir.Index)
	zero := arith.NewConstant(b, 0, ir.I64)
	loop := scf.NewFor(b, lb, ub, step, zero)
	lbld := ir.AtEnd(loop.Body())
	iv := arith.NewIndexCast(lbld, loop.InductionVar(), ir.I64)
	sum := arith.NewAdd(lbld, loop.IterArg(0), iv)
	scf.NewYield(lbld, sum)
	fnc.NewReturn(b, loop.Op.Result(0))
	_ = f

	mc := run(t, m)
	if got := mc.Regs[riscv.A0]; got != 45 {
		t.Errorf("sum 0..9 = %d, want 45", got)
	}
}

func TestArithOps(t *testing.T) {
	cases := []struct {
		op   string
		a, b int64
		want int64
	}{
		{arith.OpAddI, 7, 5, 12},
		{arith.OpSubI, 7, 5, 2},
		{arith.OpMulI, 7, 5, 35},
		{arith.OpDivUI, 37, 5, 7},
		{arith.OpRemUI, 37, 5, 2},
		{arith.OpAndI, 0b1100, 0b1010, 0b1000},
		{arith.OpOrI, 0b1100, 0b1010, 0b1110},
		{arith.OpXOrI, 0b1100, 0b1010, 0b0110},
		{arith.OpShLI, 3, 4, 48},
		{arith.OpShRUI, 48, 4, 3},
	}
	for _, tc := range cases {
		t.Run(tc.op, func(t *testing.T) {
			m := ir.NewModule()
			_, b := newFunc(m, []ir.Type{ir.I64, ir.I64}, []ir.Type{ir.I64})
			fun := m.FindFunc("main")
			r := arith.NewBinary(b, tc.op, fun.Region(0).Block().Arg(0), fun.Region(0).Block().Arg(1))
			fnc.NewReturn(b, r)
			mc := run(t, m, tc.a, tc.b)
			if got := mc.Regs[riscv.A0]; got != tc.want {
				t.Errorf("%s(%d, %d) = %d, want %d", tc.op, tc.a, tc.b, got, tc.want)
			}
		})
	}
}

func TestCmpPredicates(t *testing.T) {
	cases := []struct {
		pred string
		a, b int64
		want int64
	}{
		{arith.PredEQ, 5, 5, 1}, {arith.PredEQ, 5, 6, 0},
		{arith.PredNE, 5, 5, 0}, {arith.PredNE, 5, 6, 1},
		{arith.PredSLT, -1, 1, 1}, {arith.PredSLT, 1, -1, 0},
		{arith.PredSLE, 5, 5, 1}, {arith.PredSLE, 6, 5, 0},
		{arith.PredSGT, 6, 5, 1}, {arith.PredSGT, 5, 5, 0},
		{arith.PredSGE, 5, 5, 1}, {arith.PredSGE, 4, 5, 0},
		{arith.PredULT, 1, ^int64(0), 1}, // unsigned: 1 < 2^64-1
		{arith.PredULE, 5, 5, 1},
	}
	for _, tc := range cases {
		t.Run(tc.pred, func(t *testing.T) {
			m := ir.NewModule()
			_, b := newFunc(m, []ir.Type{ir.I64, ir.I64}, []ir.Type{ir.I64})
			fun := m.FindFunc("main")
			cm := arith.NewCmp(b, tc.pred, fun.Region(0).Block().Arg(0), fun.Region(0).Block().Arg(1))
			r := arith.NewIndexCast(b, cm, ir.I64)
			fnc.NewReturn(b, r)
			mc := run(t, m, tc.a, tc.b)
			if got := mc.Regs[riscv.A0]; got != tc.want {
				t.Errorf("cmp %s(%d, %d) = %d, want %d", tc.pred, tc.a, tc.b, got, tc.want)
			}
		})
	}
}

func TestIfElse(t *testing.T) {
	build := func() *ir.Module {
		m := ir.NewModule()
		_, b := newFunc(m, []ir.Type{ir.I64}, []ir.Type{ir.I64})
		fun := m.FindFunc("main")
		x := fun.Region(0).Block().Arg(0)
		c10 := arith.NewConstant(b, 10, ir.I64)
		cond := arith.NewCmp(b, arith.PredSLT, x, c10)
		ifOp := scf.NewIf(b, cond, ir.I64)
		tb := ir.AtEnd(ifOp.Then())
		c1 := arith.NewConstant(tb, 111, ir.I64)
		scf.NewYield(tb, c1)
		eb := ir.AtEnd(ifOp.Else())
		c2 := arith.NewConstant(eb, 222, ir.I64)
		scf.NewYield(eb, c2)
		fnc.NewReturn(b, ifOp.Op.Result(0))
		return m
	}
	if got := run(t, build(), 5).Regs[riscv.A0]; got != 111 {
		t.Errorf("if(5<10) = %d, want 111", got)
	}
	if got := run(t, build(), 15).Regs[riscv.A0]; got != 222 {
		t.Errorf("if(15<10) = %d, want 222", got)
	}
}

func TestMemrefLoadStore(t *testing.T) {
	m := ir.NewModule()
	_, b := newFunc(m, nil, []ir.Type{ir.I64})
	buf := memref.NewAlloc(b, ir.MemRef(ir.I64, 4, 4))
	i1 := arith.NewConstant(b, 1, ir.Index)
	i2 := arith.NewConstant(b, 2, ir.Index)
	v := arith.NewConstant(b, 9876, ir.I64)
	memref.NewStore(b, v, buf, i1, i2)
	got := memref.NewLoad(b, buf, i1, i2)
	fnc.NewReturn(b, got)

	mc := run(t, m)
	if got := mc.Regs[riscv.A0]; got != 9876 {
		t.Errorf("load after store = %d, want 9876", got)
	}
}

func TestMemrefElementWidths(t *testing.T) {
	for _, elem := range []ir.Type{ir.I8, ir.I16, ir.I32, ir.I64} {
		t.Run(elem.String(), func(t *testing.T) {
			m := ir.NewModule()
			_, b := newFunc(m, nil, []ir.Type{ir.I64})
			buf := memref.NewAlloc(b, ir.MemRef(elem, 8))
			i3 := arith.NewConstant(b, 3, ir.Index)
			v := arith.NewConstant(b, -5, elem)
			memref.NewStore(b, v, buf, i3)
			got := memref.NewLoad(b, buf, i3)
			cast := arith.NewIndexCast(b, got, ir.I64)
			fnc.NewReturn(b, cast)
			mc := run(t, m)
			if got := mc.Regs[riscv.A0]; got != -5 {
				t.Errorf("%s roundtrip = %d, want -5 (sign-extended)", elem, got)
			}
		})
	}
}

func TestNestedLoops(t *testing.T) {
	// sum_{i<4} sum_{j<4} i*j = (0+1+2+3)^2 = 36
	m := ir.NewModule()
	_, b := newFunc(m, nil, []ir.Type{ir.I64})
	lb := arith.NewConstant(b, 0, ir.Index)
	ub := arith.NewConstant(b, 4, ir.Index)
	step := arith.NewConstant(b, 1, ir.Index)
	zero := arith.NewConstant(b, 0, ir.I64)
	outer := scf.NewFor(b, lb, ub, step, zero)
	ob := ir.AtEnd(outer.Body())
	inner := scf.NewFor(ob, lb, ub, step, outer.IterArg(0))
	ib := ir.AtEnd(inner.Body())
	ivI := arith.NewIndexCast(ib, outer.InductionVar(), ir.I64)
	ivJ := arith.NewIndexCast(ib, inner.InductionVar(), ir.I64)
	prod := arith.NewMul(ib, ivI, ivJ)
	sum := arith.NewAdd(ib, inner.IterArg(0), prod)
	scf.NewYield(ib, sum)
	scf.NewYield(ob, inner.Op.Result(0))
	fnc.NewReturn(b, outer.Op.Result(0))

	mc := run(t, m)
	if got := mc.Regs[riscv.A0]; got != 36 {
		t.Errorf("nested loop sum = %d, want 36", got)
	}
}

func TestSpilling(t *testing.T) {
	// Create more simultaneously-live values than there are registers: 40
	// loads kept alive until a final summation forces spills.
	m := ir.NewModule()
	_, b := newFunc(m, nil, []ir.Type{ir.I64})
	buf := memref.NewAlloc(b, ir.MemRef(ir.I64, 64))
	var vals []*ir.Value
	want := int64(0)
	for i := 0; i < 40; i++ {
		idx := arith.NewConstant(b, int64(i), ir.Index)
		v := arith.NewConstant(b, int64(i*i), ir.I64)
		memref.NewStore(b, v, buf, idx)
		vals = append(vals, memref.NewLoad(b, buf, idx))
		want += int64(i * i)
	}
	sum := vals[0]
	for _, v := range vals[1:] {
		sum = arith.NewAdd(b, sum, v)
	}
	fnc.NewReturn(b, sum)

	prog, layout, err := codegen.Compile(m, "main", codegen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if layout.FrameSlots == 0 {
		t.Error("expected spill slots for 40 live values, got none")
	}
	mc := sim.NewMachine(mem.New(1<<22), riscv.FlatCost{PerInstr: 1, ModelName: "test"}, nil)
	mc.Regs[riscv.SP] = 1 << 21
	if err := mc.Run(prog); err != nil {
		t.Fatal(err)
	}
	if got := mc.Regs[riscv.A0]; got != want {
		t.Errorf("spilled sum = %d, want %d", got, want)
	}
}

func TestSelect(t *testing.T) {
	build := func() *ir.Module {
		m := ir.NewModule()
		_, b := newFunc(m, []ir.Type{ir.I64}, []ir.Type{ir.I64})
		fun := m.FindFunc("main")
		x := fun.Region(0).Block().Arg(0)
		c0 := arith.NewConstant(b, 0, ir.I64)
		cond := arith.NewCmp(b, arith.PredSGT, x, c0)
		cPos := arith.NewConstant(b, 1, ir.I64)
		cNeg := arith.NewConstant(b, -1, ir.I64)
		r := arith.NewSelect(b, cond, cPos, cNeg)
		fnc.NewReturn(b, r)
		return m
	}
	if got := run(t, build(), 42).Regs[riscv.A0]; got != 1 {
		t.Errorf("select(42>0) = %d, want 1", got)
	}
	if got := run(t, build(), -42).Regs[riscv.A0]; got != -1 {
		t.Errorf("select(-42>0) = %d, want -1", got)
	}
}

func TestLoopWithZeroIterations(t *testing.T) {
	m := ir.NewModule()
	_, b := newFunc(m, nil, []ir.Type{ir.I64})
	lb := arith.NewConstant(b, 5, ir.Index)
	ub := arith.NewConstant(b, 5, ir.Index) // empty range
	step := arith.NewConstant(b, 1, ir.Index)
	init := arith.NewConstant(b, 77, ir.I64)
	loop := scf.NewFor(b, lb, ub, step, init)
	lbld := ir.AtEnd(loop.Body())
	c := arith.NewConstant(lbld, 0, ir.I64)
	scf.NewYield(lbld, c)
	fnc.NewReturn(b, loop.Op.Result(0))

	mc := run(t, m)
	if got := mc.Regs[riscv.A0]; got != 77 {
		t.Errorf("zero-trip loop result = %d, want initial value 77", got)
	}
}

func TestMemrefArgumentPassing(t *testing.T) {
	// The runner passes buffer base addresses in a-registers.
	m := ir.NewModule()
	_, b := newFunc(m, []ir.Type{ir.MemRef(ir.I64, 8)}, []ir.Type{ir.I64})
	fun := m.FindFunc("main")
	buf := fun.Region(0).Block().Arg(0)
	i0 := arith.NewConstant(b, 0, ir.Index)
	got := memref.NewLoad(b, buf, i0)
	fnc.NewReturn(b, got)

	memory := mem.New(1 << 22)
	memory.Write64(0x1000, 4242)
	prog, _, err := codegen.Compile(m, "main", codegen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mc := sim.NewMachine(memory, riscv.FlatCost{PerInstr: 1, ModelName: "test"}, nil)
	mc.Regs[riscv.A0] = 0x1000
	mc.Regs[riscv.SP] = 1 << 21
	if err := mc.Run(prog); err != nil {
		t.Fatal(err)
	}
	if got := mc.Regs[riscv.A0]; got != 4242 {
		t.Errorf("loaded %d, want 4242", got)
	}
}

func TestCompileErrors(t *testing.T) {
	t.Run("missing function", func(t *testing.T) {
		m := ir.NewModule()
		if _, _, err := codegen.Compile(m, "nope", codegen.Options{}); err == nil {
			t.Error("expected error for missing entry function")
		}
	})
	t.Run("unlowered accfg", func(t *testing.T) {
		m := ir.NewModule()
		_, b := newFunc(m, nil, nil)
		c := arith.NewConstant(b, 1, ir.I64)
		s := ir.NewOp("accfg.setup", []*ir.Value{c}, []ir.Type{ir.StateType{Accelerator: "x"}})
		s.SetAttr("accelerator", ir.StrAttr("x"))
		s.SetAttr("fields", ir.StringsAttr("f"))
		b.Insert(s)
		fnc.NewReturn(b)
		if _, _, err := codegen.Compile(m, "main", codegen.Options{}); err == nil {
			t.Error("expected error for unlowered accfg op")
		}
	})
}

// TestNestedIfLabelsPrintInBindOrder: an scf.if that ends its parent's else
// block binds its own labels and the parent's end label at one instruction.
// Disassemble prints them in the order they were bound, on every call.
func TestNestedIfLabelsPrintInBindOrder(t *testing.T) {
	m := ir.NewModule()
	_, b := newFunc(m, []ir.Type{ir.I64}, []ir.Type{ir.I64})
	x := m.FindFunc("main").Region(0).Block().Arg(0)
	outer := scf.NewIf(b, arith.NewCmp(b, arith.PredSLT, x, arith.NewConstant(b, 10, ir.I64)))
	scf.NewYield(ir.AtEnd(outer.Then()))
	eb := ir.AtEnd(outer.Else())
	inner := scf.NewIf(eb, arith.NewCmp(eb, arith.PredSLT, x, arith.NewConstant(eb, 20, ir.I64)))
	scf.NewYield(ir.AtEnd(inner.Then()))
	scf.NewYield(ir.AtEnd(inner.Else()))
	scf.NewYield(eb)
	fnc.NewReturn(b, x)
	if err := ir.Verify(m); err != nil {
		t.Fatalf("module invalid: %v\n%s", err, ir.PrintModule(m))
	}
	prog, _, err := codegen.Compile(m, "main", codegen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := `  addi x31, x10, 0
  li x30, 10
  slt x29, x31, x30
  beq x29, x0, .else1
  j .endif2
.else1:
  li x29, 20
  slt x30, x31, x29
  beq x30, x0, .else3
  j .endif4
.else3:
.endif4:
.endif2:
  addi x10, x31, 0
  halt
  halt
`
	for i := 0; i < 50; i++ {
		if got := prog.Disassemble(); got != want {
			t.Fatalf("call %d:\n%s\nwant\n%s", i, got, want)
		}
	}
}

// TestCompileAllocatesPerKindNotPerInstr: codegen sizes its buffers, its
// value map and its label table from the function before it emits, so
// compiling the tiled matmul allocates the same handful of times at 16³ and
// at 64³. A buffer grown by append, a formatted label or a map per label
// costs allocations in proportion to the program and fails here.
func TestCompileAllocatesPerKindNotPerInstr(t *testing.T) {
	const budget = 17 // measured 12 (gemmini) and 15 (opengemm) at both sizes; 32–33 and 59 with unsized buffers and formatted labels
	for _, tg := range []core.Target{core.GemminiTarget(), core.OpenGeMMTarget()} {
		for _, n := range []int{16, 64} {
			m, err := tg.MatmulMKN(n, n, n)
			if err != nil {
				t.Fatal(err)
			}
			if err := tg.PassPipeline(core.AllOptimizations).Run(m); err != nil {
				t.Fatal(err)
			}
			var instrs int
			allocs := testing.AllocsPerRun(20, func() {
				prog, _, err := codegen.Compile(m, "main", codegen.Options{})
				if err != nil {
					t.Fatal(err)
				}
				instrs = len(prog.Instrs)
			})
			t.Logf("%s %d³: %d ops, %d instructions, %.0f allocations", tg.Name, n, ir.CountOps(m), instrs, allocs)
			if allocs > budget {
				t.Errorf("%s %d³: %.0f allocations, budget %d", tg.Name, n, allocs, budget)
			}
		}
	}
}
