package core

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"configwall/internal/mem"
)

// TestProductMemoComputesOncePerShape: however many goroutines build the
// same shape at once, one of them computes and all of them get its slice.
func TestProductMemoComputesOncePerShape(t *testing.T) {
	var pm productMemo
	var computes atomic.Int32
	const goroutines = 16
	got := make([][]int32, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = pm.get(16, 32, 8, func() []int32 {
				computes.Add(1)
				return make([]int32, 16*8)
			})
		}()
	}
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Errorf("product computed %d times, want 1", n)
	}
	for g := range got {
		if &got[g][0] != &got[0][0] {
			t.Errorf("goroutine %d got its own slice, want the shared entry", g)
		}
	}
	if other := pm.get(16, 8, 8, func() []int32 { return make([]int32, 16*8) }); &other[0] == &got[0][0] {
		t.Error("a different K shares the entry of (16, 32, 8)")
	}
}

// TestProductMemoBudget: a shape that would take the memo past its byte
// budget drops every entry, so the next request for an old shape computes
// again; a shape larger than the whole budget is never kept.
func TestProductMemoBudget(t *testing.T) {
	var pm productMemo
	computes := 0
	small := func() []int32 { computes++; return make([]int32, 1) }

	pm.get(64, 64, 64, small)
	pm.get(64, 64, 64, small)
	if computes != 1 {
		t.Fatalf("second request computed again (%d computes)", computes)
	}

	// 4·m·n bytes: two of these fit the budget, the third does not.
	const half = goldenMemoBudget / 4 / 2
	pm.get(1, 1, half-4096, small)
	pm.get(1, 2, half-4096, small)
	if pm.get(64, 64, 64, small); computes != 3 {
		t.Fatalf("memo dropped entries inside its budget (%d computes)", computes)
	}
	pm.get(1, 3, half-4096, small)
	if pm.bytes > goldenMemoBudget {
		t.Errorf("memo holds %d bytes, budget %d", pm.bytes, goldenMemoBudget)
	}
	if pm.get(64, 64, 64, small); computes != 5 {
		t.Errorf("shape cached before the drop was not recomputed (%d computes)", computes)
	}

	pm.get(2, 1, 2*half, small) // alone past the budget
	pm.get(2, 1, 2*half, small)
	if computes != 7 {
		t.Errorf("over-budget shape was kept (%d computes)", computes)
	}
	if len(pm.entries) != 0 {
		t.Errorf("%d entries survive an over-budget request", len(pm.entries))
	}
}

// TestGoldenRefereeBitesOnMemoHit: the second instance of a shape verifies
// against the memoized product, and still checks every element of C.
func TestGoldenRefereeBitesOnMemoHit(t *testing.T) {
	const m, k, n = 24, 40, 16 // a shape no other test or sweep builds
	build := func() Buffer {
		inst, err := matmulInstance(OpenGeMMTarget(), "test", m, k, n)
		if err != nil {
			t.Fatal(err)
		}
		return inst.Buffers[2]
	}
	const base = 0x1000
	mm := mem.New(1 << 16)
	if err := build().Verify(mm, base); err == nil {
		t.Fatal("all-zero C verified")
	}
	golden := goldenProducts.get(m, k, n, func() []int32 {
		t.Error("first Verify did not leave the product in the memo")
		return make([]int32, m*n)
	})
	for i, v := range golden {
		mm.Write32(base+uint64(4*i), uint32(v))
	}

	second := build()
	if err := second.Verify(mm, base); err != nil {
		t.Fatalf("C holding the golden product: %v", err)
	}
	last := m*n - 1
	mm.Write8(base+uint64(4*last), mm.Read8(base+uint64(4*last))^1)
	err := second.Verify(mm, base)
	if err == nil || !strings.HasPrefix(err.Error(), "C[383] = ") || !strings.Contains(err.Error(), ", want ") {
		t.Errorf("flipped last element: err = %v, want a C[383] mismatch", err)
	}
}
