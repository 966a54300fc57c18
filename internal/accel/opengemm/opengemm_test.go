package opengemm_test

import (
	"testing"

	"configwall/internal/accel"
	"configwall/internal/accel/opengemm"
	"configwall/internal/mem"
	"configwall/internal/workload"
)

func configure(m *opengemm.Model, vals map[uint32]uint32) {
	for addr, v := range vals {
		m.WriteConfig(addr, uint64(v), 0)
	}
}

func TestDeviceProperties(t *testing.T) {
	m := opengemm.New(opengemm.DefaultCost())
	if m.Name() != "opengemm" {
		t.Errorf("Name = %q", m.Name())
	}
	if m.Scheme() != accel.Concurrent {
		t.Error("opengemm must be concurrently configured")
	}
	if !m.IsLaunch(opengemm.CsrLaunch) || m.IsLaunch(opengemm.CsrPtrA) {
		t.Error("IsLaunch wrong")
	}
	if m.IsFence(opengemm.CsrLaunch) {
		t.Error("opengemm has no fence id")
	}
	id, ok := m.StatusID()
	if !ok || id != opengemm.CsrBusy {
		t.Error("StatusID must be the busy CSR")
	}
	if m.ConfigBytes(opengemm.CsrPtrA) != 4 {
		t.Errorf("ConfigBytes = %d, want 4 (32-bit CSR)", m.ConfigBytes(opengemm.CsrPtrA))
	}
}

// TestFieldMapCoversOrder: there is one field list now (Port.Writes), so
// what is left to check is that it is well formed (accel.Port.Validate, held
// over every registered port by core's TestPortsAreWellFormed) and covers
// the staging CSRs exactly.
func TestFieldMapCoversOrder(t *testing.T) {
	if err := opengemm.Port.Validate(); err != nil {
		t.Error(err)
	}
	if got, want := len(opengemm.Port.Writes), int(opengemm.CsrLaunch-opengemm.CsrPtrA); got != want {
		t.Fatalf("Port has %d writes, the staging file has %d CSRs", got, want)
	}
	for i, w := range opengemm.Port.Writes {
		if w.ID != opengemm.CsrPtrA+uint32(i) {
			t.Errorf("write %d (%s) goes to CSR %#x, want %#x", i, w.Name, w.ID, opengemm.CsrPtrA+uint32(i))
		}
	}
}

func TestLaunchComputesMatmul(t *testing.T) {
	const n = 16
	mm := mem.New(1 << 20)
	a := make([]int8, n*n)
	b := make([]int8, n*n)
	workload.FillMatrix(a, n, 3)
	workload.FillMatrix(b, n, 4)
	const aBase, bBase, cBase = 0x1000, 0x2000, 0x4000
	for i := range a {
		mm.Write8(aBase+uint64(i), uint8(a[i]))
		mm.Write8(bBase+uint64(i), uint8(b[i]))
	}
	dev := opengemm.New(opengemm.DefaultCost())
	configure(dev, map[uint32]uint32{
		opengemm.CsrPtrA: aBase, opengemm.CsrPtrB: bBase, opengemm.CsrPtrC: cBase,
		opengemm.CsrM: n / 8, opengemm.CsrK: n / 8, opengemm.CsrN: n / 8,
		opengemm.CsrStrideA: n, opengemm.CsrStrideB: n, opengemm.CsrStrideC: 4 * n,
	})
	job, err := dev.Launch(mm)
	if err != nil {
		t.Fatal(err)
	}
	if job.Ops != 2*n*n*n {
		t.Errorf("Ops = %d, want %d", job.Ops, 2*n*n*n)
	}
	golden := workload.MatmulInt8(a, b, n)
	for i, want := range golden {
		if got := int32(mm.Read32(cBase + uint64(4*i))); got != want {
			t.Fatalf("C[%d] = %d, want %d", i, got, want)
		}
	}
}

// TestLaunchTrafficCounters pins the traffic accounting of the
// row-buffered fast path to the per-access totals of the
// element-at-a-time model: one A and one B byte per MAC, 4 C bytes per
// output element.
func TestLaunchTrafficCounters(t *testing.T) {
	const n = 16
	mm := mem.New(1 << 20)
	const aBase, bBase, cBase = 0x1000, 0x2000, 0x4000
	dev := opengemm.New(opengemm.DefaultCost())
	configure(dev, map[uint32]uint32{
		opengemm.CsrPtrA: aBase, opengemm.CsrPtrB: bBase, opengemm.CsrPtrC: cBase,
		opengemm.CsrM: n / 8, opengemm.CsrK: n / 8, opengemm.CsrN: n / 8,
		opengemm.CsrStrideA: n, opengemm.CsrStrideB: n, opengemm.CsrStrideC: 4 * n,
	})
	mm.ResetCounters()
	if _, err := dev.Launch(mm); err != nil {
		t.Fatal(err)
	}
	if want := uint64(2 * n * n * n); mm.BytesRead != want {
		t.Errorf("BytesRead = %d, want %d", mm.BytesRead, want)
	}
	if want := uint64(4 * n * n); mm.BytesWritten != want {
		t.Errorf("BytesWritten = %d, want %d", mm.BytesWritten, want)
	}
}

func TestZeroPointSubtraction(t *testing.T) {
	const n = 8
	mm := mem.New(1 << 16)
	const aBase, bBase, cBase = 0x100, 0x200, 0x400
	// A = 3 everywhere, B = 5 everywhere, zero points a0=3, b0=5:
	// (3-3)*(5-5) summed = 0.
	for i := 0; i < n*n; i++ {
		mm.Write8(aBase+uint64(i), 3)
		mm.Write8(bBase+uint64(i), 5)
	}
	dev := opengemm.New(opengemm.DefaultCost())
	configure(dev, map[uint32]uint32{
		opengemm.CsrPtrA: aBase, opengemm.CsrPtrB: bBase, opengemm.CsrPtrC: cBase,
		opengemm.CsrM: 1, opengemm.CsrK: 1, opengemm.CsrN: 1,
		opengemm.CsrStrideA: n, opengemm.CsrStrideB: n, opengemm.CsrStrideC: 4 * n,
		opengemm.CsrSubtractions: 3 | 5<<8,
	})
	if _, err := dev.Launch(mm); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n*n; i++ {
		if got := int32(mm.Read32(cBase + uint64(4*i))); got != 0 {
			t.Fatalf("C[%d] = %d, want 0 with matching zero points", i, got)
		}
	}
}

func TestStagingSemantics(t *testing.T) {
	// Writes after a launch must not disturb the snapshot taken at launch
	// time in the returned job, but apply to the next launch.
	const n = 8
	mm := mem.New(1 << 16)
	const aBase, bBase, c1, c2 = 0x100, 0x200, 0x400, 0x800
	mm.Write8(aBase, 1)
	mm.Write8(bBase, 1)
	dev := opengemm.New(opengemm.DefaultCost())
	configure(dev, map[uint32]uint32{
		opengemm.CsrPtrA: aBase, opengemm.CsrPtrB: bBase, opengemm.CsrPtrC: c1,
		opengemm.CsrM: 1, opengemm.CsrK: 1, opengemm.CsrN: 1,
		opengemm.CsrStrideA: n, opengemm.CsrStrideB: n, opengemm.CsrStrideC: 4 * n,
	})
	if _, err := dev.Launch(mm); err != nil {
		t.Fatal(err)
	}
	// Retarget C and launch again.
	dev.WriteConfig(opengemm.CsrPtrC, c2, 0)
	if _, err := dev.Launch(mm); err != nil {
		t.Fatal(err)
	}
	if got := int32(mm.Read32(c1)); got != 1 {
		t.Errorf("first output = %d, want 1", got)
	}
	if got := int32(mm.Read32(c2)); got != 1 {
		t.Errorf("second output = %d, want 1", got)
	}
	if dev.Launches != 2 {
		t.Errorf("Launches = %d, want 2", dev.Launches)
	}
}

func TestLaunchErrors(t *testing.T) {
	mm := mem.New(1 << 12)
	t.Run("zero tiles", func(t *testing.T) {
		dev := opengemm.New(opengemm.DefaultCost())
		configure(dev, map[uint32]uint32{opengemm.CsrPtrA: 1, opengemm.CsrPtrB: 1, opengemm.CsrPtrC: 1})
		if _, err := dev.Launch(mm); err == nil {
			t.Error("expected error for zero tile counts")
		}
	})
	t.Run("null pointer", func(t *testing.T) {
		dev := opengemm.New(opengemm.DefaultCost())
		configure(dev, map[uint32]uint32{opengemm.CsrM: 1, opengemm.CsrK: 1, opengemm.CsrN: 1})
		if _, err := dev.Launch(mm); err == nil {
			t.Error("expected error for null pointers")
		}
	})
}

func TestCycleModel(t *testing.T) {
	mm := mem.New(1 << 20)
	dev := opengemm.New(opengemm.CostParams{PipelineCycles: 5})
	configure(dev, map[uint32]uint32{
		opengemm.CsrPtrA: 0x100, opengemm.CsrPtrB: 0x200, opengemm.CsrPtrC: 0x400,
		opengemm.CsrM: 1, opengemm.CsrK: 4, opengemm.CsrN: 1,
		opengemm.CsrStrideA: 64, opengemm.CsrStrideB: 64, opengemm.CsrStrideC: 256,
	})
	job, err := dev.Launch(mm)
	if err != nil {
		t.Fatal(err)
	}
	if job.Cycles != 1*1*4+5 {
		t.Errorf("Cycles = %d, want 9 (m*n*k + pipeline)", job.Cycles)
	}
	// Peak check: ops/cycles can never exceed the peak throughput.
	if float64(job.Ops)/float64(job.Cycles) > opengemm.PeakOpsPerCycle {
		t.Error("cycle model exceeds peak throughput")
	}
}
