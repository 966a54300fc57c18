// Package opengemm models an OpenGeMM-style GeMM accelerator: an 8x8 mesh
// of int8 dot-product units (8 MACs each, 1024 ops/cycle peak) controlled by
// a tiny in-order RISC-V host through CSRs, with *concurrent* configuration:
// CSR writes land in staging registers while the accelerator runs and are
// committed at launch, so configuration overlaps computation (paper §2.2,
// §6.2).
package opengemm

import (
	"encoding/binary"

	"configwall/internal/accel"
	"configwall/internal/mem"
)

// Name is the accelerator name used in accfg types and lowerings.
const Name = "opengemm"

// Mesh geometry: MeshRow x MeshCol processing elements, each computing a
// TileK-deep int8 dot product per cycle.
const (
	MeshRow = 8
	MeshCol = 8
	TileK   = 8
)

// PeakOpsPerCycle is the peak throughput: 8*8 PEs * 8 MACs * 2 ops
// (paper §6.2: 1024 ops/cycle).
const PeakOpsPerCycle = 2 * MeshRow * MeshCol * TileK

// CSR addresses of the configuration port. Each CSR is 32 bits = 4
// configuration bytes.
const (
	CsrPtrA uint32 = 0x3c0 + iota
	CsrPtrB
	CsrPtrC
	CsrM // row tiles (units of MeshRow)
	CsrK // reduction tiles (units of TileK)
	CsrN // column tiles (units of MeshCol)
	CsrStrideA
	CsrStrideB
	CsrStrideC
	CsrSubtractions // packed zero points for A and B
	CsrFlags        // output mode flags
	CsrLaunch       // write 1 to launch
	CsrBusy         // read-only: 1 while computing
	CsrPerfCounter  // read-only: busy cycles of the last job
)

// Port is OpenGeMM's configuration interface: one whole-register CSR write
// per field, in canonical issue order, a launch CSR and the busy CSR the
// host polls.
var Port = &accel.Port{
	Accel: Name,
	Mode:  accel.Concurrent,
	Kind:  accel.CSR,
	Writes: []accel.ConfigWrite{
		accel.Register64(CsrPtrA, "ptr_a"),
		accel.Register64(CsrPtrB, "ptr_b"),
		accel.Register64(CsrPtrC, "ptr_c"),
		accel.Register64(CsrM, "m"),
		accel.Register64(CsrK, "k"),
		accel.Register64(CsrN, "n"),
		accel.Register64(CsrStrideA, "stride_a"),
		accel.Register64(CsrStrideB, "stride_b"),
		accel.Register64(CsrStrideC, "stride_c"),
		accel.Register64(CsrSubtractions, "subtractions"),
		accel.Register64(CsrFlags, "flags"),
	},
	Launch:      CsrLaunch,
	LaunchValue: 1,
	Sync:        CsrBusy,
}

// CostParams tunes the GeMM core timing model.
type CostParams struct {
	// PipelineCycles is the fixed fill/drain latency per launch.
	PipelineCycles uint64
}

// DefaultCost returns the default timing model.
func DefaultCost() CostParams { return CostParams{PipelineCycles: 5} }

// Model is the simulated device state. The embedded Port describes it to the
// simulator (accel.Device's ConfigPort).
type Model struct {
	*accel.Port
	cost CostParams
	// staging holds the configuration CSRs (CsrPtrA up to CsrFlags),
	// indexed by id - CsrPtrA.
	staging [CsrLaunch - CsrPtrA]uint32
	mac     accel.MAC
}

// New returns a fresh OpenGeMM model.
func New(cost CostParams) *Model {
	return &Model{Port: Port, cost: cost}
}

// WriteConfig implements accel.Device: CSR writes stage the low 32 bits.
// The value written to the launch CSR, or to an address outside the
// configuration port, is dropped.
func (m *Model) WriteConfig(id uint32, lo, _ uint64) {
	if i := id - CsrPtrA; i < uint32(len(m.staging)) {
		m.staging[i] = uint32(lo)
	}
}

// Kernel returns the MAC kernel the model launches through, with the B
// tiles it keeps across launches.
func (m *Model) Kernel() *accel.MAC { return &m.mac }

// csr returns the staged value of a configuration CSR.
func (m *Model) csr(id uint32) uint32 { return m.staging[id-CsrPtrA] }

// job is a launch decoded from the staged CSRs: the tile counts, the three
// matrix addresses and strides and the zero points.
type job struct {
	mTiles, kTiles, nTiles    uint64
	a, b, c                   uint64
	strideA, strideB, strideC uint64
	subA, subB                int32
}

// rows, cols and depth are the launch's dimensions in elements.
func (jb job) rows() int  { return int(jb.mTiles) * MeshRow }
func (jb job) cols() int  { return int(jb.nTiles) * MeshCol }
func (jb job) depth() int { return int(jb.kTiles) * TileK }

// decode commits the staged configuration, or says why it cannot run.
func (m *Model) decode() (job, error) {
	jb := job{mTiles: uint64(m.csr(CsrM)), kTiles: uint64(m.csr(CsrK)), nTiles: uint64(m.csr(CsrN))}
	if jb.mTiles == 0 || jb.kTiles == 0 || jb.nTiles == 0 {
		return jb, accel.ErrBadConfig(Name, "zero tile counts m=%d k=%d n=%d", jb.mTiles, jb.kTiles, jb.nTiles)
	}
	jb.a, jb.b, jb.c = uint64(m.csr(CsrPtrA)), uint64(m.csr(CsrPtrB)), uint64(m.csr(CsrPtrC))
	if jb.a == 0 || jb.b == 0 || jb.c == 0 {
		return jb, accel.ErrBadConfig(Name, "null pointer a=%#x b=%#x c=%#x", jb.a, jb.b, jb.c)
	}
	jb.strideA = uint64(m.csr(CsrStrideA))
	jb.strideB = uint64(m.csr(CsrStrideB))
	jb.strideC = uint64(m.csr(CsrStrideC))
	jb.subA = int32(int8(m.csr(CsrSubtractions)))
	jb.subB = int32(int8(m.csr(CsrSubtractions) >> 8))
	return jb, nil
}

// Footprint implements accel.Footprinter: the state is every staged CSR and
// the cost parameters; a launch reads A and B and writes C.
func (m *Model) Footprint(fp *accel.Footprint) bool {
	jb, err := m.decode()
	if err != nil {
		return false
	}
	for _, v := range m.staging {
		fp.State = binary.LittleEndian.AppendUint32(fp.State, v)
	}
	fp.State = binary.LittleEndian.AppendUint64(fp.State, m.cost.PipelineCycles)
	rows, cols, depth := uint64(jb.rows()), uint64(jb.cols()), uint64(jb.depth())
	fp.Reads = append(fp.Reads,
		accel.Rect{Addr: jb.a, Stride: jb.strideA, Rows: rows, Width: depth},
		accel.Rect{Addr: jb.b, Stride: jb.strideB, Rows: depth, Width: cols})
	fp.Writes = append(fp.Writes, accel.Rect{Addr: jb.c, Stride: jb.strideC, Rows: rows, Width: 4 * cols})
	return true
}

// Launch implements accel.Device: commits the staged configuration and
// executes C[m*8, n*8] (int32) = A[m*8, k*8] (int8) x B[k*8, n*8] (int8)
// with the configured byte strides.
func (m *Model) Launch(mm *mem.Memory) (accel.Launch, error) {
	jb, err := m.decode()
	if err != nil {
		return accel.Launch{}, err
	}
	rows, cols, depth := jb.rows(), jb.cols(), jb.depth()

	// Hoisted per-row bounds checks (mem.View for A, mem.Region for C) and
	// the MACs in the shared lane-paired kernel (see the Gemmini model for
	// the full rationale).
	accRow := m.mac.Load(mm, jb.b, jb.strideB, depth, cols, jb.subB)
	for r := 0; r < rows; r++ {
		clear(accRow)
		m.mac.Row(accRow, mm.View(jb.a+uint64(r)*jb.strideA, uint64(depth)), jb.subA)
		cAddr := jb.c + uint64(r)*jb.strideC
		crow := mm.Region(cAddr, uint64(cols)*4)
		for cc, acc := range accRow {
			binary.LittleEndian.PutUint32(crow[4*cc:], uint32(acc))
		}
		m.mac.Stored(cAddr, uint64(cols)*4)
	}

	ops := 2 * uint64(rows) * uint64(cols) * uint64(depth)
	cycles := jb.mTiles*jb.nTiles*jb.kTiles + m.cost.PipelineCycles
	return accel.Launch{Ops: ops, Cycles: cycles}, nil
}
