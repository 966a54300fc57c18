package gemmini_test

import (
	"strings"
	"testing"
	"testing/quick"

	"configwall/internal/accel"
	"configwall/internal/accel/gemmini"
	"configwall/internal/mem"
	"configwall/internal/workload"
)

// writeFields packs field values into the model's registers per the
// Port table, mimicking what the lowering + simulator do.
func writeFields(m *gemmini.Model, fields map[string]uint64) {
	for _, ci := range gemmini.Port.Writes {
		var rs [2]uint64
		any := false
		for _, s := range ci.Slots {
			v, ok := fields[s.Field]
			if !ok {
				continue
			}
			any = true
			if s.Bits < 64 {
				v &= (1 << s.Bits) - 1
			}
			rs[s.Reg] |= v << s.Offset
		}
		if any {
			m.WriteConfig(ci.ID, rs[0], rs[1])
		}
	}
}

func TestDeviceProperties(t *testing.T) {
	m := gemmini.New(gemmini.DefaultCost())
	if m.Name() != "gemmini" {
		t.Errorf("Name = %q", m.Name())
	}
	if m.Scheme() != accel.Sequential {
		t.Error("gemmini must be sequentially configured")
	}
	if !m.IsLaunch(gemmini.FnLoopWS) || m.IsLaunch(gemmini.FnConfigBounds) {
		t.Error("IsLaunch wrong")
	}
	if !m.IsFence(gemmini.FnFence) || m.IsFence(gemmini.FnLoopWS) {
		t.Error("IsFence wrong")
	}
	if _, ok := m.StatusID(); ok {
		t.Error("gemmini has no status CSR")
	}
	if m.ConfigBytes(0) != 16 {
		t.Errorf("ConfigBytes = %d, want 16", m.ConfigBytes(0))
	}
}

// TestSequenceDescriptorConsistency: the structural checks (one write per
// field, slots inside their register and clear of each other) are
// accel.Port.Validate, held over every registered port by core's
// TestPortsAreWellFormed; what is Gemmini's own stays here.
func TestSequenceDescriptorConsistency(t *testing.T) {
	if err := gemmini.Port.Validate(); err != nil {
		t.Error(err)
	}
	for _, ci := range gemmini.Port.Writes {
		for _, s := range ci.Slots {
			if _, ok := gemmini.FieldMeanings[s.Field]; !ok {
				t.Errorf("field %q missing a Table 1 meaning", s.Field)
			}
			if ci2 := gemmini.Port.WriteFor(s.Field); ci2 == nil || ci2.ID != ci.ID {
				t.Errorf("WriteFor(%q) inconsistent", s.Field)
			}
		}
	}
}

func TestTable1Content(t *testing.T) {
	tbl := gemmini.Table1()
	for _, field := range []string{"A", "B", "D", "C", "I", "J", "K", "pad_I", "stride_A", "act", "A_transpose"} {
		if !strings.Contains(tbl, field) {
			t.Errorf("Table 1 missing paper field %q", field)
		}
	}
	// Paper bit widths: addresses 64, sizes 16, act 6, transposes 1.
	for _, row := range []string{"64", "16", "6", "1"} {
		if !strings.Contains(tbl, row) {
			t.Errorf("Table 1 missing bit width %s", row)
		}
	}
}

// TestFieldPackRoundTripProperty: packing a value into its slot and decoding
// it back through the model yields the truncated value (testing/quick).
func TestFieldPackRoundTripProperty(t *testing.T) {
	prop := func(raw uint64, pick uint8) bool {
		var fields []accel.FieldSlot
		for _, w := range gemmini.Port.Writes {
			fields = append(fields, w.Slots...)
		}
		f := fields[int(pick)%len(fields)]
		m := gemmini.New(gemmini.DefaultCost())
		want := raw
		if f.Bits < 64 {
			want &= (1 << f.Bits) - 1
		}
		writeFields(m, map[string]uint64{f.Field: raw})
		// Decode through a launch would need full config; use the packing
		// invariant instead: re-extract via the descriptor.
		ci := gemmini.Port.WriteFor(f.Field)
		var rs [2]uint64
		for _, s := range ci.Slots {
			if s.Field == f.Field {
				v := want
				rs[s.Reg] = v << s.Offset
				got := (rs[s.Reg] >> s.Offset)
				if s.Bits < 64 {
					got &= (1 << s.Bits) - 1
				}
				return got == want
			}
		}
		return false
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestLaunchComputesMatmul(t *testing.T) {
	const n = 32
	mm := mem.New(1 << 20)
	a := make([]int8, n*n)
	b := make([]int8, n*n)
	workload.FillMatrix(a, n, 7)
	workload.FillMatrix(b, n, 8)
	const aBase, bBase, cBase = 0x1000, 0x2000, 0x3000
	for i := range a {
		mm.Write8(aBase+uint64(i), uint8(a[i]))
		mm.Write8(bBase+uint64(i), uint8(b[i]))
	}

	dev := gemmini.New(gemmini.DefaultCost())
	writeFields(dev, map[string]uint64{
		"A": aBase, "B": bBase, "C": cBase, "D": 0,
		"I": n / 16, "J": n / 16, "K": n / 16,
		"stride_A": n, "stride_B": n, "stride_C": n,
	})
	job, err := dev.Launch(mm)
	if err != nil {
		t.Fatal(err)
	}
	if job.Ops != 2*n*n*n {
		t.Errorf("Ops = %d, want %d", job.Ops, 2*n*n*n)
	}
	if job.Cycles == 0 {
		t.Error("Cycles must be positive")
	}
	golden := workload.MatmulInt8(a, b, n)
	for i, want := range golden {
		got := int8(mm.Read8(cBase + uint64(i)))
		if got != workload.SaturateInt8(want) {
			t.Fatalf("C[%d] = %d, want %d", i, got, workload.SaturateInt8(want))
		}
	}
	if dev.Launches != 1 {
		t.Errorf("Launches = %d, want 1", dev.Launches)
	}
}

// TestLaunchTrafficCounters pins the memory-traffic accounting of the
// row-buffered fast path to the per-access totals of the element-at-a-time
// model it replaced: one A byte and one B byte per MAC, a 4-byte bias read
// per output element when D is configured, one C byte per output element.
func TestLaunchTrafficCounters(t *testing.T) {
	const n = 32
	mm := mem.New(1 << 20)
	const aBase, bBase, dBase, cBase = 0x1000, 0x2000, 0x8000, 0x3000
	dev := gemmini.New(gemmini.DefaultCost())
	for _, withBias := range []bool{false, true} {
		fields := map[string]uint64{
			"A": aBase, "B": bBase, "C": cBase, "D": 0,
			"I": n / 16, "J": n / 16, "K": n / 16,
			"stride_A": n, "stride_B": n, "stride_C": n, "stride_D": 4 * n,
		}
		if withBias {
			fields["D"] = dBase
		}
		writeFields(dev, fields)
		mm.ResetCounters()
		if _, err := dev.Launch(mm); err != nil {
			t.Fatal(err)
		}
		wantRead := uint64(2 * n * n * n)
		if withBias {
			wantRead += 4 * n * n
		}
		if mm.BytesRead != wantRead {
			t.Errorf("bias=%v: BytesRead = %d, want %d", withBias, mm.BytesRead, wantRead)
		}
		if mm.BytesWritten != n*n {
			t.Errorf("bias=%v: BytesWritten = %d, want %d", withBias, mm.BytesWritten, n*n)
		}
	}
}

func TestLaunchWithBiasAndRelu(t *testing.T) {
	const n = 16
	mm := mem.New(1 << 20)
	const aBase, bBase, dBase, cBase = 0x1000, 0x2000, 0x3000, 0x5000
	// A = I (identity), B = -1 everywhere, D = +2 bias: C = relu(B + 2).
	for i := 0; i < n; i++ {
		mm.Write8(aBase+uint64(i*n+i), 1)
		for j := 0; j < n; j++ {
			mm.Write8(bBase+uint64(i*n+j), 0xff)
			mm.Write32(dBase+uint64(4*(i*n+j)), 2)
		}
	}
	dev := gemmini.New(gemmini.DefaultCost())
	writeFields(dev, map[string]uint64{
		"A": aBase, "B": bBase, "D": dBase, "C": cBase,
		"I": 1, "J": 1, "K": 1,
		"stride_A": n, "stride_B": n, "stride_D": 4 * n, "stride_C": n,
		"act": 1, // ReLU
	})
	if _, err := dev.Launch(mm); err != nil {
		t.Fatal(err)
	}
	// -1 + 2 = 1, relu(1) = 1.
	for i := 0; i < n*n; i++ {
		if got := int8(mm.Read8(cBase + uint64(i))); got != 1 {
			t.Fatalf("C[%d] = %d, want 1", i, got)
		}
	}
}

func TestLaunchErrors(t *testing.T) {
	mm := mem.New(1 << 16)
	t.Run("zero bounds", func(t *testing.T) {
		dev := gemmini.New(gemmini.DefaultCost())
		writeFields(dev, map[string]uint64{"A": 1, "B": 1, "C": 1})
		if _, err := dev.Launch(mm); err == nil {
			t.Error("expected error for zero I/J/K")
		}
	})
	t.Run("null address", func(t *testing.T) {
		dev := gemmini.New(gemmini.DefaultCost())
		writeFields(dev, map[string]uint64{"I": 1, "J": 1, "K": 1})
		if _, err := dev.Launch(mm); err == nil {
			t.Error("expected error for null matrix addresses")
		}
	})
	t.Run("transpose unsupported", func(t *testing.T) {
		dev := gemmini.New(gemmini.DefaultCost())
		writeFields(dev, map[string]uint64{
			"A": 0x100, "B": 0x200, "C": 0x300, "I": 1, "J": 1, "K": 1,
			"A_transpose": 1,
		})
		if _, err := dev.Launch(mm); err == nil {
			t.Error("expected error for transposed operand")
		}
	})
}

func TestCostModelScaling(t *testing.T) {
	mm := mem.New(1 << 22)
	run := func(tiles uint64) uint64 {
		dev := gemmini.New(gemmini.DefaultCost())
		writeFields(dev, map[string]uint64{
			"A": 0x1000, "B": 0x40000, "C": 0x80000,
			"I": tiles, "J": tiles, "K": 1,
			"stride_A": 64, "stride_B": 64, "stride_C": 64,
		})
		job, err := dev.Launch(mm)
		if err != nil {
			t.Fatal(err)
		}
		return job.Cycles
	}
	small, large := run(1), run(4)
	if large <= small {
		t.Errorf("cycles must grow with tile count: %d vs %d", small, large)
	}
}
