package sim_test

// Simulator-engine micro-benchmarks: the same program measured on the
// reference interpreter and the predecoded fast engine, reporting
// simulated host instructions per second. These isolate interpreter
// throughput from compile and accelerator-model cost, on loops no workload
// contains; the same comparison on real cells is the sim.ref_run_ns /
// sim.fast_run_ns rows of `go run ./bench -trace 1`. Compare engines with
//
//	go test -bench 'Sim_.*Engine' -benchtime 2s ./internal/sim | benchstat ...

import (
	"testing"

	"configwall/internal/accel"
	"configwall/internal/mem"
	"configwall/internal/riscv"
	"configwall/internal/sim"
)

// buildALULoop is the block-batching best case: a loop whose body is a
// long straight line of ALU work (the shape of the paper's address/field
// calculation code between configuration writes).
func buildALULoop(iters int64) *riscv.Program {
	a := riscv.NewAssembler()
	a.Emit(riscv.Instr{Op: riscv.LI, Rd: 28, Imm: iters})
	a.Emit(riscv.Instr{Op: riscv.LI, Rd: 5, Imm: 0x12345})
	a.Label("top")
	for i := 0; i < 4; i++ {
		a.Emit(riscv.Instr{Op: riscv.ADDI, Rd: 6, Rs1: 5, Imm: 17})
		a.Emit(riscv.Instr{Op: riscv.SLLI, Rd: 7, Rs1: 6, Imm: 3})
		a.Emit(riscv.Instr{Op: riscv.XOR, Rd: 8, Rs1: 7, Rs2: 5})
		a.Emit(riscv.Instr{Op: riscv.MUL, Rd: 9, Rs1: 8, Rs2: 6})
		a.Emit(riscv.Instr{Op: riscv.AND, Rd: 5, Rs1: 9, Rs2: 8})
		a.Emit(riscv.Instr{Op: riscv.SRLI, Rd: 5, Rs1: 5, Imm: 1})
		a.Emit(riscv.Instr{Op: riscv.OR, Rd: 5, Rs1: 5, Rs2: 6})
	}
	a.Emit(riscv.Instr{Op: riscv.ADDI, Rd: 28, Rs1: 28, Imm: -1})
	a.Emit(riscv.Instr{Op: riscv.BNE, Rs1: 28, Rs2: 0, Label: "top"})
	a.Emit(riscv.Instr{Op: riscv.HALT})
	p, err := a.Finish()
	if err != nil {
		panic(err)
	}
	return p
}

// buildMemLoop mixes loads and stores into the blocks (the memory-fast-path
// case).
func buildMemLoop(iters int64) *riscv.Program {
	a := riscv.NewAssembler()
	a.Emit(riscv.Instr{Op: riscv.LI, Rd: 28, Imm: iters})
	a.Emit(riscv.Instr{Op: riscv.LI, Rd: 10, Imm: 0x1000})
	a.Label("top")
	for i := int64(0); i < 4; i++ {
		a.Emit(riscv.Instr{Op: riscv.LD, Rd: 5, Rs1: 10, Imm: 8 * i})
		a.Emit(riscv.Instr{Op: riscv.ADDI, Rd: 5, Rs1: 5, Imm: 1})
		a.Emit(riscv.Instr{Op: riscv.SD, Rs1: 10, Rs2: 5, Imm: 8 * i})
		a.Emit(riscv.Instr{Op: riscv.LW, Rd: 6, Rs1: 10, Imm: 4 * i})
	}
	a.Emit(riscv.Instr{Op: riscv.ADDI, Rd: 28, Rs1: 28, Imm: -1})
	a.Emit(riscv.Instr{Op: riscv.BNE, Rs1: 28, Rs2: 0, Label: "top"})
	a.Emit(riscv.Instr{Op: riscv.HALT})
	p, err := a.Finish()
	if err != nil {
		panic(err)
	}
	return p
}

// buildConfigLoop interleaves device configuration writes with short
// calculation bursts (the configuration-wall shape itself: blocks are
// small and device ops frequent, the fast engine's worst case).
func buildConfigLoop(iters int64) *riscv.Program {
	a := riscv.NewAssembler()
	a.Emit(riscv.Instr{Op: riscv.LI, Rd: 28, Imm: iters})
	a.Label("top")
	for f := uint32(1); f <= 4; f++ {
		a.Emit(riscv.Instr{Op: riscv.ADDI, Rd: 6, Rs1: 28, Imm: int64(f)})
		a.Emit(riscv.Instr{Op: riscv.SLLI, Rd: 6, Rs1: 6, Imm: 4})
		a.Emit(riscv.Instr{Op: riscv.CUSTOM, Funct7: f, Rs1: 6, Rs2: 6, Class: riscv.ClassConfig})
	}
	a.Emit(riscv.Instr{Op: riscv.ADDI, Rd: 28, Rs1: 28, Imm: -1})
	a.Emit(riscv.Instr{Op: riscv.BNE, Rs1: 28, Rs2: 0, Label: "top"})
	a.Emit(riscv.Instr{Op: riscv.HALT})
	p, err := a.Finish()
	if err != nil {
		panic(err)
	}
	return p
}

// benchDevice accepts any funct7 as a non-launch staging write.
type benchDevice struct{}

func (benchDevice) Name() string                       { return "bench" }
func (benchDevice) Scheme() accel.Scheme               { return accel.Concurrent }
func (benchDevice) WriteConfig(uint32, uint64, uint64) {}
func (benchDevice) ConfigBytes(uint32) uint64          { return 16 }
func (benchDevice) IsLaunch(uint32) bool               { return false }
func (benchDevice) IsFence(uint32) bool                { return false }
func (benchDevice) StatusID() (uint32, bool)           { return 0, false }
func (benchDevice) Launch(*mem.Memory) (accel.Launch, error) {
	return accel.Launch{}, nil
}

func benchEngine(b *testing.B, engine sim.Engine, p *riscv.Program, dev accel.Device) {
	mc := sim.NewMachine(mem.New(1<<16), riscv.RocketCost(), dev)
	mc.Engine = engine
	mc.MaxInstrs = 1 << 40
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := mc.Run(p); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(mc.HostInstrs)*float64(b.N)/secs, "instrs/sec")
	}
}

const benchIters = 20_000

func BenchmarkSim_RefEngine_ALU(b *testing.B) {
	benchEngine(b, sim.EngineRef, buildALULoop(benchIters), nil)
}
func BenchmarkSim_FastEngine_ALU(b *testing.B) {
	benchEngine(b, sim.EngineFast, buildALULoop(benchIters), nil)
}
func BenchmarkSim_RefEngine_Mem(b *testing.B) {
	benchEngine(b, sim.EngineRef, buildMemLoop(benchIters), nil)
}
func BenchmarkSim_FastEngine_Mem(b *testing.B) {
	benchEngine(b, sim.EngineFast, buildMemLoop(benchIters), nil)
}
func BenchmarkSim_RefEngine_Config(b *testing.B) {
	benchEngine(b, sim.EngineRef, buildConfigLoop(benchIters), benchDevice{})
}
func BenchmarkSim_FastEngine_Config(b *testing.B) {
	benchEngine(b, sim.EngineFast, buildConfigLoop(benchIters), benchDevice{})
}

// BenchmarkSim_Decode isolates predecode cost (paid once per Run on the
// fast path) to show it is negligible against execution.
func BenchmarkSim_Decode(b *testing.B) {
	p := buildALULoop(benchIters)
	cost := riscv.RocketCost()
	for i := 0; i < b.N; i++ {
		_ = riscv.Decode(p, cost)
	}
	b.ReportMetric(float64(len(p.Instrs)), "static_instrs")
}
