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

// Model is the simulated device state. The embedded Port is the descriptive
// half of accel.Device.
type Model struct {
	*accel.Port
	cost CostParams
	// staging holds the configuration CSRs (CsrPtrA up to CsrFlags),
	// indexed by id - CsrPtrA.
	staging [CsrLaunch - CsrPtrA]uint32
	mac     accel.MAC
	// Launches counts completed launches.
	Launches uint64
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

// Launch implements accel.Device: commits the staged configuration and
// executes C[m*8, n*8] (int32) = A[m*8, k*8] (int8) x B[k*8, n*8] (int8)
// with the configured byte strides.
func (m *Model) Launch(mm *mem.Memory) (accel.Launch, error) {
	mTiles := uint64(m.csr(CsrM))
	kTiles := uint64(m.csr(CsrK))
	nTiles := uint64(m.csr(CsrN))
	if mTiles == 0 || kTiles == 0 || nTiles == 0 {
		return accel.Launch{}, accel.ErrBadConfig(Name, "zero tile counts m=%d k=%d n=%d", mTiles, kTiles, nTiles)
	}
	a := uint64(m.csr(CsrPtrA))
	b := uint64(m.csr(CsrPtrB))
	c := uint64(m.csr(CsrPtrC))
	if a == 0 || b == 0 || c == 0 {
		return accel.Launch{}, accel.ErrBadConfig(Name, "null pointer a=%#x b=%#x c=%#x", a, b, c)
	}
	strideA := uint64(m.csr(CsrStrideA))
	strideB := uint64(m.csr(CsrStrideB))
	strideC := uint64(m.csr(CsrStrideC))
	subA := int32(int8(m.csr(CsrSubtractions)))
	subB := int32(int8(m.csr(CsrSubtractions) >> 8))

	rows := int(mTiles) * MeshRow
	cols := int(nTiles) * MeshCol
	depth := int(kTiles) * TileK

	// Hoisted per-row bounds checks (mem.View for A, mem.Region for C), the
	// MACs in the shared lane-paired kernel (see the Gemmini model for the
	// full rationale), and bulk traffic accounting matching the per-access
	// totals of the element-at-a-time loop bit for bit.
	accRow := m.mac.Load(mm, b, strideB, depth, cols, subB)
	for r := 0; r < rows; r++ {
		clear(accRow)
		m.mac.Row(accRow, mm.View(a+uint64(r)*strideA, uint64(depth)), subA)
		cAddr := c + uint64(r)*strideC
		crow := mm.Region(cAddr, uint64(cols)*4)
		for cc, acc := range accRow {
			binary.LittleEndian.PutUint32(crow[4*cc:], uint32(acc))
		}
		m.mac.Stored(cAddr, uint64(cols)*4)
	}
	elems := uint64(rows) * uint64(cols)
	mm.AddTraffic(2*elems*uint64(depth), 4*elems)

	ops := 2 * uint64(rows) * uint64(cols) * uint64(depth)
	cycles := mTiles*nTiles*kTiles + m.cost.PipelineCycles
	m.Launches++
	return accel.Launch{Ops: ops, Cycles: cycles}, nil
}
