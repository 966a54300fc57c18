package core_test

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"configwall/internal/accel"
	"configwall/internal/core"
)

func TestBuiltinRegistrations(t *testing.T) {
	targets := core.TargetNames()
	for _, want := range []string{"gemmini", "opengemm"} {
		found := false
		for _, n := range targets {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("target %q not registered (have %v)", want, targets)
		}
	}
	workloads := core.WorkloadNames()
	for _, want := range []string{core.WorkloadMatmul, core.WorkloadRectMM, core.WorkloadMatvec} {
		found := false
		for _, n := range workloads {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("workload %q not registered (have %v)", want, workloads)
		}
	}
}

func TestRegisterTargetDuplicate(t *testing.T) {
	dup := core.GemminiTarget() // "gemmini" is registered at init
	if err := core.RegisterTarget(dup); err == nil {
		t.Error("duplicate target registration must fail")
	} else if !strings.Contains(err.Error(), "already registered") {
		t.Errorf("unexpected duplicate error: %v", err)
	}
	if err := core.RegisterTarget(core.Target{}); err == nil {
		t.Error("empty target name must fail")
	}
}

func TestRegisterWorkloadDuplicate(t *testing.T) {
	dup := core.Workload{
		Name:  core.WorkloadMatmul,
		Build: func(core.Target, int) (core.Instance, error) { return core.Instance{}, nil },
	}
	if err := core.RegisterWorkload(dup); err == nil {
		t.Error("duplicate workload registration must fail")
	}
	if err := core.RegisterWorkload(core.Workload{Name: "no-builder"}); err == nil {
		t.Error("workload without Build must fail")
	}
	if err := core.RegisterWorkload(core.Workload{
		Build: func(core.Target, int) (core.Instance, error) { return core.Instance{}, nil },
	}); err == nil {
		t.Error("empty workload name must fail")
	}
}

func TestLookupUnknownListsValidNames(t *testing.T) {
	if _, err := core.LookupTarget("not-a-target"); err == nil {
		t.Error("unknown target lookup must fail")
	} else if want := fmt.Sprintf("(registered: %v)", core.TargetNames()); !strings.Contains(err.Error(), want) || !strings.Contains(want, "gemmini opengemm") {
		t.Errorf("unknown-target error should list the registered names, sorted: %v, want ... %s", err, want)
	}
	if _, err := core.LookupWorkload("not-a-workload"); err == nil {
		t.Error("unknown workload lookup must fail")
	} else if want := fmt.Sprintf("(registered: %v)", core.WorkloadNames()); !strings.Contains(err.Error(), want) || !strings.Contains(want, "matmul matvec") {
		t.Errorf("unknown-workload error should list the registered names, sorted: %v, want ... %s", err, want)
	}
	if _, err := core.RunExperiment(core.Experiment{Target: "nope", Workload: "matmul"}, core.RunOptions{}); err == nil {
		t.Error("experiment with unknown target must fail")
	}
}

// targetSeq keeps the targets these tests register unique for the life of
// the process: the registry is global and CI runs the package with -count=2.
var targetSeq atomic.Int64

// TestRegisterTargetWhileLooking: writers publish fresh targets while
// readers resolve cells the way RunExperiment and serve's request decoding
// do. Under -race this is the proof that look-ups need no lock; every reader
// must keep seeing the built-ins, complete, and a writer must see its own
// target as soon as RegisterTarget returns.
func TestRegisterTargetWhileLooking(t *testing.T) {
	const writers, readers, rounds = 2, 4, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				name := fmt.Sprintf("regtest-%d", targetSeq.Add(1))
				if err := core.RegisterTarget(core.Target{Name: name, PeakOps: float64(i)}); err != nil {
					t.Error(err)
				}
				if got, err := core.LookupTarget(name); err != nil || got.Name != name || got.PeakOps != float64(i) {
					t.Errorf("LookupTarget(%s) right after RegisterTarget = %+v, %v", name, got, err)
				}
				if err := core.RegisterTarget(core.Target{Name: name}); err == nil {
					t.Errorf("second RegisterTarget(%s) succeeded", name)
				}
			}
		}()
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				tgt, err := core.LookupTarget("opengemm")
				if err != nil || tgt.NewDevice == nil || tgt.MatmulMKN == nil {
					t.Errorf("LookupTarget(opengemm) = %+v, %v", tgt, err)
				}
				if _, err := core.LookupWorkload(core.WorkloadMatmul); err != nil {
					t.Error(err)
				}
				names := core.TargetNames()
				for j := 1; j < len(names); j++ {
					if names[j-1] >= names[j] {
						t.Errorf("TargetNames not sorted and distinct: %v", names)
						break
					}
				}
				if _, err := core.RunExperiment(core.Experiment{Target: "opengemm", Workload: core.WorkloadMatmul, Pipeline: core.AllOptimizations, N: 8}, core.RunOptions{SkipVerify: true}); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
}

// TestLookupHitDoesNotAllocate pins the per-request path: serve resolves
// both names on every /v1/run, RunExperiment on every cold cell.
func TestLookupHitDoesNotAllocate(t *testing.T) {
	var tgt core.Target
	var w core.Workload
	if n := testing.AllocsPerRun(100, func() {
		tgt, _ = core.LookupTarget("gemmini")
		w, _ = core.LookupWorkload(core.WorkloadRectMM)
	}); n != 0 {
		t.Errorf("LookupTarget + LookupWorkload allocate %.0f times on a hit, want 0", n)
	}
	if tgt.Name != "gemmini" || w.Name != core.WorkloadRectMM {
		t.Errorf("looked up %q, %q", tgt.Name, w.Name)
	}
}

func TestMatmulWorkloadRejectsUnknownTarget(t *testing.T) {
	w, err := core.LookupWorkload(core.WorkloadMatmul)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Build(core.Target{Name: "mystery", OutputBytes: 4}, 16); err == nil {
		t.Error("matmul build for a target without a builder must fail")
	}
}

func TestGeomeanGuardsNonPositive(t *testing.T) {
	if g := core.Geomean([]float64{1, 4}); g != 2 {
		t.Errorf("Geomean(1,4) = %v, want 2", g)
	}
	for _, xs := range [][]float64{{0, 2}, {-1, 2}, {2, 0, 8}} {
		g := core.Geomean(xs)
		if g != 0 {
			t.Errorf("Geomean(%v) = %v, want 0 (undefined for non-positive inputs)", xs, g)
		}
		if g != g { // NaN check
			t.Errorf("Geomean(%v) produced NaN", xs)
		}
	}
}

// TestPortsAreWellFormed holds every registered target's configuration port
// to accel.Port.Validate (ids unique and distinct from Launch/Sync, every
// field in exactly one write, slots inside their register and clear of each
// other, CSR writes in rs1 only), to the name it is published under, and to
// the device model that embeds it.
func TestPortsAreWellFormed(t *testing.T) {
	checked := 0
	for _, name := range core.TargetNames() {
		tgt, err := core.LookupTarget(name)
		if err != nil {
			t.Fatal(err)
		}
		port := tgt.Port
		if port == nil {
			continue // the registry tests' bare targets
		}
		checked++
		if err := port.Validate(); err != nil {
			t.Error(err)
		}
		if port.Accel != name || accel.PortFor(name) != port {
			t.Errorf("target %s: port of %q, analyses see %p, want %p", name, port.Accel, accel.PortFor(name), port)
		}
		for _, w := range port.Writes {
			for _, s := range w.Slots {
				if got := port.WriteFor(s.Field); got == nil || got.ID != w.ID {
					t.Errorf("%s: WriteFor(%q) = %v, want write %s", name, s.Field, got, w.Name)
				}
			}
		}
		dev := tgt.NewDevice()
		if dev.Name() != name || dev.Scheme() != port.Mode || !dev.IsLaunch(port.Launch) || dev.IsLaunch(port.Writes[0].ID) {
			t.Errorf("%s: device %s/%s disagrees with its port", name, dev.Name(), dev.Scheme())
		}
		_, polled := dev.StatusID()
		if dev.IsFence(port.Sync) == polled || dev.ConfigBytes(port.Launch) != port.Kind.WriteBytes() {
			t.Errorf("%s: device synchronizes by fence %v and by poll %v, %d bytes per write", name, dev.IsFence(port.Sync), polled, dev.ConfigBytes(port.Launch))
		}
	}
	if checked < 2 {
		t.Errorf("checked %d ports, want at least gemmini and opengemm", checked)
	}
}

func TestRegisterTargetRejectsForeignPort(t *testing.T) {
	name := fmt.Sprintf("regtest-%d", targetSeq.Add(1))
	err := core.RegisterTarget(core.Target{Name: name, Port: core.GemminiTarget().Port})
	if err == nil || !strings.Contains(err.Error(), "gemmini") {
		t.Errorf("registering %s with gemmini's port: %v", name, err)
	}
	if _, err := core.LookupTarget(name); err == nil {
		t.Errorf("%s was registered all the same", name)
	}
}
