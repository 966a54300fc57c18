package main

// Analytical-tier mode (DESIGN.md §10): -fidelity fits the
// simulation-free prediction tier against the simulator, prints its
// held-out error report to stderr, and switches the figure sweeps onto it
// (screen = every cell predicted, topk = only the K most promising cells
// simulated).

import (
	"context"
	"fmt"
	"os"

	"configwall/internal/analytic"
	"configwall/internal/core"
)

// setupFidelity answers the selected artifacts' whole grid once through the
// analytical tier — Runner.RunTopK, k = 0 for screen: every cell predicted,
// the k best-predicted simulated — and points the figure sweeps at a
// private runner preloaded with exactly those answers. What the figures
// print is then a function of the flags: nothing the simulating runner
// happens to hold (the calibration leaves its training cells there) can
// leak into them.
func setupFidelity(b *bench, name string, k int, only string) error {
	switch name {
	case "", "full":
		return nil
	case "screen":
		k = 0
	case "topk":
	default:
		return fmt.Errorf("unknown -fidelity %q (valid: full, screen, topk)", name)
	}
	fmt.Fprintf(os.Stderr, "cwbench: calibrating analytic tier (seed %d)\n", analytic.DefaultSeed)
	rep, err := analytic.Attach(context.Background(), b.runner, analytic.DefaultSeed)
	if err != nil {
		return err
	}
	fmt.Fprint(os.Stderr, rep)
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
