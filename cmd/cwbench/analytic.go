package main

// Analytical-tier modes (DESIGN.md §10): -calibrate fits the
// simulation-free prediction tier against the simulator and emits the
// fitted constants plus the held-out error report; -fidelity switches the
// figure sweeps onto the analytical tier (screen = every cell predicted,
// topk = only the K most promising cells simulated).

import (
	"context"
	"fmt"
	"os"
	"sort"

	"configwall/internal/analytic"
	"configwall/internal/core"
)

// runCalibrate is the calibration subcommand: fit against the simulator,
// print the per-target roofline constants and the held-out error report,
// and write the model JSON. A band violation is an error — the committed
// band is the contract every later -fidelity consumer relies on.
func runCalibrate(r *core.Runner, path string) error {
	model, rep, err := analytic.Calibrate(context.Background(), r, analytic.Spec{Seed: analytic.DefaultSeed})
	if err != nil {
		return err
	}
	printConstants(model)
	fmt.Print(rep.String())
	if err := model.WriteFile(path); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "cwbench: calibrate: wrote %s\n", path)
	if !rep.Clean() {
		return fmt.Errorf("held-out error outside the documented band (geomean <= %.0f%%, per-cell <= %.0f%%)",
			100*rep.Band.Geomean, 100*rep.Band.PerCell)
	}
	return nil
}

// printConstants renders the fitted per-target constants deterministically
// (sorted target order, like every other cwbench table).
func printConstants(m *analytic.Model) {
	fmt.Printf("calibration: seed %d, schema %d, band: geomean <= %.0f%%, per-cell <= %.0f%%\n",
		m.Seed, m.Schema, 100*m.Band.Geomean, 100*m.Band.PerCell)
	names := make([]string, 0, len(m.Targets))
	for tn := range m.Targets {
		names = append(names, tn)
	}
	sort.Strings(names)
	for _, tn := range names {
		tm := m.Targets[tn]
		fmt.Printf("%s: peak %.0f ops/cycle, BW_config %.2f B/cycle, BW_memory %.0f B/cycle, concurrent-config=%t\n",
			tn, tm.Constants.PeakOps, tm.Constants.BWConfig, tm.Constants.BWMemory, tm.Constants.Concurrent)
		fmt.Printf("%s: train sizes %v, held-out sizes %v, %d fitted curves\n",
			tn, tm.TrainSizes, tm.HoldoutSizes, len(tm.Curves))
	}
}

// setupFidelity answers the selected artifacts' whole grid once through the
// analytical tier — Runner.RunTopK, k = 0 for screen: every cell predicted,
// the k best-predicted simulated — and points the figure sweeps at a
// private store-less runner preloaded with exactly those answers. What the
// figures print is then a function of (flags, model): nothing the
// simulating runner happens to hold (an in-process calibration leaves its
// training cells there) can leak into them, and predictions never reach a
// store.
func setupFidelity(b *bench, name, modelPath string, k int, only string, sharded bool) error {
	switch name {
	case "", "full":
		return nil
	case "screen":
		k = 0
	case "topk":
	default:
		return fmt.Errorf("unknown -fidelity %q (valid: full, screen, topk)", name)
	}
	if sharded {
		return fmt.Errorf("-shard precomputes simulated ground truth; it does not combine with -fidelity %s", name)
	}
	if modelPath == "" {
		fmt.Fprintf(os.Stderr, "cwbench: no -model given; calibrating in-process (seed %d)\n", analytic.DefaultSeed)
	}
	if _, _, err := analytic.Attach(context.Background(), b.runner, modelPath, analytic.DefaultSeed); err != nil {
		return err
	}
	grid := figureGrid(b, only)
	if name == "topk" && len(grid) == 0 {
		return fmt.Errorf("-fidelity topk: no experiment grid to rank (artifact %q has no sweep)", only)
	}
	answers, err := b.runner.RunTopK(context.Background(), grid, b.opts, k)
	if err != nil {
		return err
	}
	if name == "topk" {
		fmt.Fprintf(os.Stderr, "cwbench: fidelity topk: simulated %d of %d grid cells\n", min(k, len(grid)), len(grid))
	}
	b.figures = core.NewRunner(b.runner.Workers())
	for i, e := range grid {
		b.figures.Preload(e, b.opts, answers[i])
	}
	return nil
}
