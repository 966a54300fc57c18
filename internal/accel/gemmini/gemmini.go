// Package gemmini models a Gemmini-style weight-stationary systolic-array
// matrix-multiplication accelerator (paper §2.4): a 16x16 array of int8 MAC
// units driven by a Rocket-class RV64 host through RoCC custom instructions,
// with *sequential* configuration — the accelerator cannot be reconfigured
// while running, and the final instruction of the configuration sequence
// implicitly launches the computation ("launch-semantic" configuration).
package gemmini

import (
	"encoding/binary"
	"fmt"

	"configwall/internal/accel"
	"configwall/internal/mem"
)

// Name is the accelerator name used in accfg types and lowerings.
const Name = "gemmini"

// Dim is the systolic array dimension: DimxDim MACs.
const Dim = 16

// PeakOpsPerCycle is the peak throughput: Dim*Dim MACs, two ops each
// (paper §4.6: 16*16*2 = 512 ops/cycle).
const PeakOpsPerCycle = 2 * Dim * Dim

// RoCC funct7 values of the simulated gemmini_loop_ws instruction sequence.
// Each instruction carries two 64-bit registers = 16 configuration bytes.
// The sequence mirrors the granularity of Gemmini's real configuration
// flow: per-operand address/stride/scratchpad instructions and per-channel
// DMA configuration, which is what makes the weight-stationary kernel cost
// on the order of twenty RoCC instructions per invocation (§6.1).
const (
	FnConfigEx      uint32 = iota // flags: act, transposes, output modes
	FnConfigAcc                   // accumulator scale / accumulate mode
	FnConfigBounds                // I, J, K tile counts
	FnConfigPads                  // pad_I, pad_J, pad_K
	FnConfigAddrA                 // main-memory address of A
	FnConfigAddrB                 // main-memory address of B
	FnConfigAddrD                 // main-memory address of D
	FnConfigAddrC                 // main-memory address of C
	FnConfigStrideA               // row stride of A
	FnConfigStrideB               // row stride of B
	FnConfigStrideD               // row stride of D
	FnConfigStrideC               // row stride of C
	FnConfigSpadA                 // scratchpad base for A tiles (cost-only)
	FnConfigSpadB                 // scratchpad base for B tiles (cost-only)
	FnConfigSpadD                 // scratchpad base for D tiles (cost-only)
	FnConfigSpadC                 // scratchpad base for C tiles (cost-only)
	FnConfigMvin0                 // DMA load channel 0 shape (cost-only)
	FnConfigMvin1                 // DMA load channel 1 shape (cost-only)
	FnConfigMvin2                 // DMA load channel 2 shape (cost-only)
	FnConfigMvout                 // DMA store shape (cost-only)
	FnLoopWS                      // launch-semantic: starts the computation
	FnFence                       // synchronization fence: host blocks until idle
)

// Port is Gemmini's configuration interface: the full gemmini_loop_ws
// configuration sequence in issue order, the launch-semantic final
// instruction and the fence. The accfg-to-RoCC lowering walks this table to
// emit instructions and the simulator walks it to decode register writes;
// Table 1 of the paper is regenerated from it.
var Port = &accel.Port{
	Accel: Name,
	Mode:  accel.Sequential,
	Kind:  accel.RoCC,
	Writes: []accel.ConfigWrite{
		{ID: FnConfigEx, Name: "config_ex", Slots: []accel.FieldSlot{
			accel.Slot("act", 0, 0, 6),
			accel.Slot("A_transpose", 0, 6, 1),
			accel.Slot("B_transpose", 0, 7, 1),
			accel.Slot("full_C", 1, 0, 1),
			accel.Slot("low_D", 1, 1, 1),
		}},
		{ID: FnConfigAcc, Name: "config_acc", Slots: []accel.FieldSlot{
			accel.Slot("ex_accumulate", 0, 0, 1),
			accel.Slot("acc_scale", 1, 0, 32),
		}},
		{ID: FnConfigBounds, Name: "config_bounds", Slots: []accel.FieldSlot{
			accel.Slot("I", 0, 0, 16),
			accel.Slot("J", 0, 16, 16),
			accel.Slot("K", 1, 0, 16),
		}},
		{ID: FnConfigPads, Name: "config_pads", Slots: []accel.FieldSlot{
			accel.Slot("pad_I", 0, 0, 16),
			accel.Slot("pad_J", 0, 16, 16),
			accel.Slot("pad_K", 1, 0, 16),
		}},
		{ID: FnConfigAddrA, Name: "config_addr_a", Slots: []accel.FieldSlot{accel.Slot("A", 0, 0, 64)}},
		{ID: FnConfigAddrB, Name: "config_addr_b", Slots: []accel.FieldSlot{accel.Slot("B", 0, 0, 64)}},
		{ID: FnConfigAddrD, Name: "config_addr_d", Slots: []accel.FieldSlot{accel.Slot("D", 0, 0, 64)}},
		{ID: FnConfigAddrC, Name: "config_addr_c", Slots: []accel.FieldSlot{accel.Slot("C", 0, 0, 64)}},
		{ID: FnConfigStrideA, Name: "config_stride_a", Slots: []accel.FieldSlot{accel.Slot("stride_A", 0, 0, 64)}},
		{ID: FnConfigStrideB, Name: "config_stride_b", Slots: []accel.FieldSlot{accel.Slot("stride_B", 0, 0, 64)}},
		{ID: FnConfigStrideD, Name: "config_stride_d", Slots: []accel.FieldSlot{accel.Slot("stride_D", 0, 0, 64)}},
		{ID: FnConfigStrideC, Name: "config_stride_c", Slots: []accel.FieldSlot{accel.Slot("stride_C", 0, 0, 64)}},
		{ID: FnConfigSpadA, Name: "config_spad_a", Slots: []accel.FieldSlot{accel.Slot("spad_A", 0, 0, 32)}},
		{ID: FnConfigSpadB, Name: "config_spad_b", Slots: []accel.FieldSlot{accel.Slot("spad_B", 0, 0, 32)}},
		{ID: FnConfigSpadD, Name: "config_spad_d", Slots: []accel.FieldSlot{accel.Slot("spad_D", 0, 0, 32)}},
		{ID: FnConfigSpadC, Name: "config_spad_c", Slots: []accel.FieldSlot{accel.Slot("spad_C", 0, 0, 32)}},
		{ID: FnConfigMvin0, Name: "config_mvin0", Slots: []accel.FieldSlot{
			accel.Slot("mvin0_rows", 0, 0, 16),
			accel.Slot("mvin0_cols", 0, 16, 16),
			accel.Slot("mvin0_stride", 1, 0, 32),
		}},
		{ID: FnConfigMvin1, Name: "config_mvin1", Slots: []accel.FieldSlot{
			accel.Slot("mvin1_rows", 0, 0, 16),
			accel.Slot("mvin1_cols", 0, 16, 16),
			accel.Slot("mvin1_stride", 1, 0, 32),
		}},
		{ID: FnConfigMvin2, Name: "config_mvin2", Slots: []accel.FieldSlot{
			accel.Slot("mvin2_rows", 0, 0, 16),
			accel.Slot("mvin2_cols", 0, 16, 16),
			accel.Slot("mvin2_stride", 1, 0, 32),
		}},
		{ID: FnConfigMvout, Name: "config_mvout", Slots: []accel.FieldSlot{
			accel.Slot("mvout_rows", 0, 0, 16),
			accel.Slot("mvout_cols", 0, 16, 16),
			accel.Slot("mvout_stride", 1, 0, 32),
		}},
	},
	Launch: FnLoopWS,
	Sync:   FnFence,
}

// FieldMeanings maps each field to the Table 1 "meaning" column.
var FieldMeanings = map[string]string{
	"A": "Address in main memory of matrix A", "B": "Address in main memory of matrix B",
	"D": "Address in main memory of matrix D (bias)", "C": "Address in main memory of matrix C",
	"I": "Size of the output in row tiles", "J": "Size of the output in column tiles",
	"K":     "Size of the reduction dimension in tiles",
	"pad_I": "Padding applied to I", "pad_J": "Padding applied to J", "pad_K": "Padding applied to K",
	"stride_A": "Row stride to access A in memory", "stride_B": "Row stride to access B in memory",
	"stride_D": "Row stride to access D in memory", "stride_C": "Row stride to access C in memory",
	"act":         "Activation function applied on the output",
	"A_transpose": "Whether input matrix A is transposed", "B_transpose": "Whether input matrix B is transposed",
	"full_C": "Whether C is stored at full (32-bit) precision", "low_D": "Whether D is stored at low (8-bit) precision",
	"ex_accumulate": "Whether the execute pipeline accumulates into the output",
	"acc_scale":     "Scale factor applied when reading the accumulator",
	"spad_A":        "Scratchpad base address for A tiles", "spad_B": "Scratchpad base address for B tiles",
	"spad_D": "Scratchpad base address for D tiles", "spad_C": "Scratchpad base address for C tiles",
	"mvin0_rows": "DMA load channel 0 rows per transfer", "mvin0_cols": "DMA load channel 0 columns per transfer",
	"mvin0_stride": "DMA load channel 0 stride",
	"mvin1_rows":   "DMA load channel 1 rows per transfer", "mvin1_cols": "DMA load channel 1 columns per transfer",
	"mvin1_stride": "DMA load channel 1 stride",
	"mvin2_rows":   "DMA load channel 2 rows per transfer", "mvin2_cols": "DMA load channel 2 columns per transfer",
	"mvin2_stride": "DMA load channel 2 stride",
	"mvout_rows":   "DMA store rows per transfer",
	"mvout_cols":   "DMA store columns per transfer", "mvout_stride": "DMA store stride",
}

// CostParams tunes the systolic-array timing model.
type CostParams struct {
	// StartupCycles is the fixed launch latency (decode + DMA kickoff).
	StartupCycles uint64
	// DrainCycles is the pipeline drain per output tile row.
	DrainCycles uint64
}

// DefaultCost returns the default timing model.
func DefaultCost() CostParams {
	return CostParams{StartupCycles: 80, DrainCycles: 16}
}

// Model is the simulated device state. The embedded Port describes it to the
// simulator (accel.Device's ConfigPort).
type Model struct {
	*accel.Port
	cost CostParams
	// regs holds the raw (rs1, rs2) pair last written per configuration
	// funct7 (everything below FnLoopWS).
	regs [FnLoopWS][2]uint64
	mac  accel.MAC
}

// New returns a fresh Gemmini model with the given timing parameters.
func New(cost CostParams) *Model {
	return &Model{Port: Port, cost: cost}
}

// WriteConfig implements accel.Device. Only configuration instructions have
// a register pair; the payload of a launch, a fence or an unknown funct7 is
// dropped.
func (m *Model) WriteConfig(id uint32, lo, hi uint64) {
	if id < uint32(len(m.regs)) {
		m.regs[id] = [2]uint64{lo, hi}
	}
}

// slot is a FieldSlot resolved against Port: the register that holds the
// field and how to cut it out.
type slot struct {
	funct7 uint32
	reg    int
	offset uint
	mask   uint64
}

// The fields Launch decodes, resolved once at package init.
var (
	slotI, slotJ, slotK      = mustSlot("I"), mustSlot("J"), mustSlot("K")
	slotA, slotB             = mustSlot("A"), mustSlot("B")
	slotD, slotC             = mustSlot("D"), mustSlot("C")
	slotStrideA, slotStrideB = mustSlot("stride_A"), mustSlot("stride_B")
	slotStrideD, slotStrideC = mustSlot("stride_D"), mustSlot("stride_C")
	slotATrans, slotBTrans   = mustSlot("A_transpose"), mustSlot("B_transpose")
	slotAct                  = mustSlot("act")
)

func mustSlot(field string) slot {
	if w := Port.WriteFor(field); w != nil {
		for _, s := range w.Slots {
			if s.Field == field {
				return slot{w.ID, s.Reg, s.Offset, ^uint64(0) >> (64 - s.Bits)}
			}
		}
	}
	panic("gemmini: Port has no field " + field)
}

// Kernel returns the MAC kernel the model launches through, with the B
// tiles it keeps across launches.
func (m *Model) Kernel() *accel.MAC { return &m.mac }

// field extracts a field from the written registers.
func (m *Model) field(s slot) uint64 {
	return m.regs[s.funct7][s.reg] >> s.offset & s.mask
}

// job is a launch decoded from the registers: the loop bounds in tiles,
// the four matrix addresses and strides and the activation.
type job struct {
	i, j, k                            uint64
	a, b, c, d                         uint64
	strideA, strideB, strideC, strideD uint64
	act                                uint64
}

// rows, cols and depth are the launch's dimensions in elements.
func (jb job) rows() int  { return int(jb.i) * Dim }
func (jb job) cols() int  { return int(jb.j) * Dim }
func (jb job) depth() int { return int(jb.k) * Dim }

// decode reads the staged launch off the registers, or says why it cannot
// run.
func (m *Model) decode() (job, error) {
	jb := job{i: m.field(slotI), j: m.field(slotJ), k: m.field(slotK)}
	if jb.i == 0 || jb.j == 0 || jb.k == 0 {
		return jb, accel.ErrBadConfig(Name, "zero loop bounds I=%d J=%d K=%d", jb.i, jb.j, jb.k)
	}
	if m.field(slotATrans) != 0 || m.field(slotBTrans) != 0 {
		return jb, accel.ErrBadConfig(Name, "transposed operands not supported by this model")
	}
	jb.a, jb.b = m.field(slotA), m.field(slotB)
	jb.d, jb.c = m.field(slotD), m.field(slotC)
	jb.strideA, jb.strideB = m.field(slotStrideA), m.field(slotStrideB)
	jb.strideD, jb.strideC = m.field(slotStrideD), m.field(slotStrideC)
	jb.act = m.field(slotAct)
	if jb.a == 0 || jb.b == 0 || jb.c == 0 {
		return jb, accel.ErrBadConfig(Name, "null matrix address A=%#x B=%#x C=%#x", jb.a, jb.b, jb.c)
	}
	return jb, nil
}

// Footprint implements accel.Footprinter: the state is every register pair
// and the cost parameters; a launch reads A, B, and D when its address is
// set, and writes C.
func (m *Model) Footprint(fp *accel.Footprint) bool {
	jb, err := m.decode()
	if err != nil {
		return false
	}
	for _, r := range m.regs {
		fp.State = binary.LittleEndian.AppendUint64(fp.State, r[0])
		fp.State = binary.LittleEndian.AppendUint64(fp.State, r[1])
	}
	fp.State = binary.LittleEndian.AppendUint64(fp.State, m.cost.StartupCycles)
	fp.State = binary.LittleEndian.AppendUint64(fp.State, m.cost.DrainCycles)
	rows, cols, depth := uint64(jb.rows()), uint64(jb.cols()), uint64(jb.depth())
	fp.Reads = append(fp.Reads,
		accel.Rect{Addr: jb.a, Stride: jb.strideA, Rows: rows, Width: depth},
		accel.Rect{Addr: jb.b, Stride: jb.strideB, Rows: depth, Width: cols})
	if jb.d != 0 {
		fp.Reads = append(fp.Reads, accel.Rect{Addr: jb.d, Stride: jb.strideD, Rows: rows, Width: 4 * cols})
	}
	fp.Writes = append(fp.Writes, accel.Rect{Addr: jb.c, Stride: jb.strideC, Rows: rows, Width: cols})
	return true
}

// Launch implements accel.Device: decodes the weight-stationary matmul
// C = A*B (+ D) and executes it functionally over memory.
//
// Matrix layout: A is (16*I)x(16*K) int8, B is (16*K)x(16*J) int8, D (when
// its address is nonzero) is (16*I)x(16*J) int32, C is (16*I)x(16*J) int8
// after the activation, all with the configured row strides in bytes.
func (m *Model) Launch(mm *mem.Memory) (accel.Launch, error) {
	jb, err := m.decode()
	if err != nil {
		return accel.Launch{}, err
	}
	rows, cols, depth := jb.rows(), jb.cols(), jb.depth()

	// One hoisted bounds check per matrix row (mem.View for the A and D rows
	// read, mem.Region for the C row stored) instead of one checked access
	// per MAC operand, and the MACs themselves in the shared lane-paired
	// kernel (accel.MAC), which is bit-identical to the element-at-a-time
	// loop for every input. Bias, activation, saturation and the store
	// stay here.
	accRow := m.mac.Load(mm, jb.b, jb.strideB, depth, cols, 0)
	for r := 0; r < rows; r++ {
		if jb.d != 0 {
			drow := mm.View(jb.d+uint64(r)*jb.strideD, uint64(cols)*4)
			for cc := range accRow {
				accRow[cc] = int32(binary.LittleEndian.Uint32(drow[4*cc:]))
			}
		} else {
			clear(accRow)
		}
		m.mac.Row(accRow, mm.View(jb.a+uint64(r)*jb.strideA, uint64(depth)), 0)
		cAddr := jb.c + uint64(r)*jb.strideC
		crow := mm.Region(cAddr, uint64(cols))
		for cc, acc := range accRow {
			crow[cc] = saturate(applyAct(acc, jb.act))
		}
		m.mac.Stored(cAddr, uint64(cols))
	}

	ops := 2 * uint64(rows) * uint64(cols) * uint64(depth)
	cycles := m.cost.StartupCycles + jb.i*jb.j*jb.k*Dim + jb.i*jb.j*m.cost.DrainCycles
	return accel.Launch{Ops: ops, Cycles: cycles}, nil
}

func applyAct(v int32, act uint64) int32 {
	switch act {
	case 1: // ReLU
		if v < 0 {
			return 0
		}
	}
	return v
}

func saturate(v int32) uint8 {
	if v > 127 {
		return 127
	}
	if v < -128 {
		return 0x80 // two's-complement -128
	}
	return uint8(int8(v))
}

// Table1 renders the paper's Table 1: field, meaning, bit width.
func Table1() string {
	out := fmt.Sprintf("%-14s %-55s %s\n", "Field", "Meaning", "Bits")
	for _, w := range Port.Writes {
		for _, s := range w.Slots {
			out += fmt.Sprintf("%-14s %-55s %d\n", s.Field, FieldMeanings[s.Field], s.Bits)
		}
	}
	return out
}
