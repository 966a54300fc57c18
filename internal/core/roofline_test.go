package core_test

import (
	"context"
	"testing"

	"configwall/internal/core"
	"configwall/internal/roofline"
)

// TestCellsUnderTheirRoofline holds every runnable cell of the registered
// targets and workloads, every pipeline, n = 8…512, under its target's
// configuration roofline (Eq. 2 for a concurrently configured target, Eq.
// 3 for a sequential one) at the cell's measured I_OC and raw
// configuration bandwidth: a simulator that counts an operation it did not
// pay for, or a configuration byte it did not write, lifts a cell above
// the roof. Sizes a (target, workload) cannot build are left out through
// SupportedSizes, never by a failed run. The bound the figures draw from
// RooflineModel's host-cost bandwidth is another matter: the cells above
// it are logged (go test -v) and listed in DESIGN.md §2.
func TestCellsUnderTheirRoofline(t *testing.T) {
	sizes := []int{8, 16, 32, 64, 128, 256, 512}
	var cells []core.Experiment
	for _, tn := range core.TargetNames() {
		tg, err := core.LookupTarget(tn)
		if err != nil {
			t.Fatal(err)
		}
		for _, wn := range core.WorkloadNames() {
			w, err := core.LookupWorkload(wn)
			if err != nil {
				t.Fatal(err)
			}
			cells = append(cells, core.Sweep([]string{tn}, []string{wn}, core.Pipelines, core.SupportedSizes(tg, w, sizes))...)
		}
	}
	results, err := core.NewRunner(0).RunAll(context.Background(), cells, core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	aboveModel := 0
	for i, res := range results {
		tg, err := core.LookupTarget(cells[i].Target)
		if err != nil {
			t.Fatal(err)
		}
		roof := roofline.Sequential
		if tg.Concurrent() {
			roof = roofline.Concurrent
		}
		got := res.OpsPerCycle()
		if bound := roof(res.PeakOps, res.RawConfigBW(), res.MeasuredIOC()); got > bound {
			t.Errorf("%s: %.3f ops/cycle is above its roofline %.3f (raw BW %.3f B/cycle, I_OC %.3f ops/B)",
				cells[i], got, bound, res.RawConfigBW(), res.MeasuredIOC())
		}
		if model := tg.RooflineModel().Attainable(res.MeasuredIOC()); got > model {
			aboveModel++
			t.Logf("above RooflineModel: %s: %.3f > %.3f ops/cycle", cells[i], got, model)
		}
	}
	t.Logf("%d cells, %d above RooflineModel's bound", len(cells), aboveModel)
}
