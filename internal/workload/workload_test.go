package workload_test

import (
	"testing"
	"testing/quick"

	"configwall/internal/dialects/accfg"
	"configwall/internal/ir"
	"configwall/internal/workload"
)

func TestFillMatrixDeterministic(t *testing.T) {
	a := make([]int8, 64)
	b := make([]int8, 64)
	workload.FillMatrix(a, 8, 42)
	workload.FillMatrix(b, 8, 42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("FillMatrix not deterministic for equal seeds")
		}
	}
	workload.FillMatrix(b, 8, 43)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical matrices")
	}
}

func TestFillMatrixValueRange(t *testing.T) {
	a := make([]int8, 1024)
	workload.FillMatrix(a, 32, 1)
	for i, v := range a {
		if v < -16 || v > 15 {
			t.Fatalf("a[%d] = %d outside [-16, 15]", i, v)
		}
	}
}

// TestMatmulGoldenAgainstNaive cross-checks the (cache-blocked) golden
// matmul against a textbook triple loop (property-based over sizes/seeds).
func TestMatmulGoldenAgainstNaive(t *testing.T) {
	prop := func(seedA, seedB uint8, sizeSel uint8) bool {
		n := []int{8, 16, 24}[int(sizeSel)%3]
		a := make([]int8, n*n)
		b := make([]int8, n*n)
		workload.FillMatrix(a, n, uint64(seedA))
		workload.FillMatrix(b, n, uint64(seedB))
		got := workload.MatmulInt8(a, b, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				var want int32
				for k := 0; k < n; k++ {
					want += int32(a[i*n+k]) * int32(b[k*n+j])
				}
				if got[i*n+j] != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestSaturateInt8(t *testing.T) {
	cases := []struct {
		in   int32
		want int8
	}{
		{0, 0}, {127, 127}, {128, 127}, {100000, 127},
		{-128, -128}, {-129, -128}, {-100000, -128}, {-5, -5},
	}
	for _, tc := range cases {
		if got := workload.SaturateInt8(tc.in); got != tc.want {
			t.Errorf("SaturateInt8(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func countOps(m *ir.Module, name string) int { return ir.CountOpsNamed(m, name) }

func TestGemminiWorkloadShape(t *testing.T) {
	m, err := workload.GemminiTiledMatmulMKN(128, 128, 128)
	if err != nil {
		t.Fatal(err)
	}
	if err := ir.Verify(m); err != nil {
		t.Fatal(err)
	}
	if got := countOps(m, accfg.OpSetup); got != 1 {
		t.Errorf("setups = %d, want 1 (inside the tile loop)", got)
	}
	if got := countOps(m, accfg.OpLaunch); got != 1 {
		t.Errorf("launches = %d, want 1", got)
	}
	if got := countOps(m, "scf.for"); got != 2 {
		t.Errorf("loops = %d, want 2 (ti, tj)", got)
	}
	// The setup must cover every field of the gemmini descriptor that the
	// functional model needs.
	var setup accfg.Setup
	m.Walk(func(op *ir.Op) {
		if s, ok := accfg.AsSetup(op); ok {
			setup = s
		}
	})
	for _, f := range []string{"A", "B", "C", "D", "I", "J", "K", "stride_A", "stride_B", "stride_C"} {
		if setup.FieldValue(f) == nil {
			t.Errorf("gemmini workload missing field %q", f)
		}
	}
}

func TestOpenGeMMWorkloadShape(t *testing.T) {
	m, err := workload.OpenGeMMTiledMatmulMKN(64, 64, 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := ir.Verify(m); err != nil {
		t.Fatal(err)
	}
	if got := countOps(m, accfg.OpSetup); got != 1 {
		t.Errorf("setups = %d, want 1", got)
	}
	var setup accfg.Setup
	m.Walk(func(op *ir.Op) {
		if s, ok := accfg.AsSetup(op); ok {
			setup = s
		}
	})
	for _, f := range []string{"ptr_a", "ptr_b", "ptr_c", "m", "k", "n", "stride_a", "stride_b", "stride_c"} {
		if setup.FieldValue(f) == nil {
			t.Errorf("opengemm workload missing field %q", f)
		}
	}
}

func TestWorkloadSizeValidation(t *testing.T) {
	if _, err := workload.GemminiTiledMatmulMKN(20, 20, 20); err == nil {
		t.Error("gemmini size not a multiple of 16 must fail")
	}
	if _, err := workload.OpenGeMMTiledMatmulMKN(12, 12, 12); err == nil {
		t.Error("opengemm size not a multiple of 8 must fail")
	}
}

func TestWorkloadSmallestSizes(t *testing.T) {
	if _, err := workload.GemminiTiledMatmulMKN(16, 16, 16); err != nil {
		t.Errorf("gemmini 16x16: %v", err)
	}
	if _, err := workload.OpenGeMMTiledMatmulMKN(8, 8, 8); err != nil {
		t.Errorf("opengemm 8x8: %v", err)
	}
}
