package core_test

import (
	"reflect"
	"testing"

	"configwall/internal/core"
)

// TestSupportedSizes pins the feasibility probe against the built-in
// tiling rules: gemmini matmul needs multiples of 16, gemmini rectmm
// multiples of 32 (its K dimension is 2n and M is n/2), opengemm matmul
// multiples of 8.
func TestSupportedSizes(t *testing.T) {
	candidates := []int{0, 8, 16, 24, 32, 48, 64}
	cases := []struct {
		target, workload string
		want             []int
	}{
		{"gemmini", core.WorkloadMatmul, []int{16, 32, 48, 64}},
		{"gemmini", core.WorkloadRectMM, []int{32, 64}},
		{"opengemm", core.WorkloadMatmul, []int{8, 16, 24, 32, 48, 64}},
	}
	for _, tc := range cases {
		tgt, err := core.LookupTarget(tc.target)
		if err != nil {
			t.Fatal(err)
		}
		w, err := core.LookupWorkload(tc.workload)
		if err != nil {
			t.Fatal(err)
		}
		got := core.SupportedSizes(tgt, w, candidates)
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("SupportedSizes(%s, %s) = %v, want %v", tc.target, tc.workload, got, tc.want)
		}
	}
}

// TestSupportedSizesPanickingBuild: a workload whose Build panics at a
// probed size is reported as not supporting that size — the probe must not
// let the panic escape into the daemon's registry endpoint.
func TestSupportedSizesPanickingBuild(t *testing.T) {
	tgt, err := core.LookupTarget("opengemm")
	if err != nil {
		t.Fatal(err)
	}
	w := core.Workload{
		Name: "panics-at-16",
		Build: func(_ core.Target, n int) (core.Instance, error) {
			if n == 16 {
				panic("kaboom")
			}
			return core.Instance{}, nil
		},
	}
	if got, want := core.SupportedSizes(tgt, w, []int{8, 16, 24}), []int{8, 24}; !reflect.DeepEqual(got, want) {
		t.Errorf("SupportedSizes with a Build that panics at 16 = %v, want %v", got, want)
	}
}

// TestSupportedSizesBuildProbeAgreement: the closed-form tiling path and
// the real Build probe must agree on feasibility for the built-ins — the
// registry endpoint answers from the cheap path, the daemon executes the
// expensive one.
func TestSupportedSizesBuildProbeAgreement(t *testing.T) {
	for _, tName := range core.TargetNames() {
		tgt, err := core.LookupTarget(tName)
		if err != nil {
			t.Fatal(err)
		}
		for _, wName := range core.WorkloadNames() {
			w, err := core.LookupWorkload(wName)
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range []int{8, 16, 24, 32, 64} {
				cheap := len(core.SupportedSizes(tgt, w, []int{n})) == 1
				_, buildErr := w.Build(tgt, n)
				if cheap != (buildErr == nil) {
					t.Errorf("%s/%s n=%d: tiling feasibility %v but Build err = %v", tName, wName, n, cheap, buildErr)
				}
			}
		}
	}
}
