package core_test

import (
	"context"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"strings"
	"testing"

	"configwall/internal/core"
)

var update = flag.Bool("update", false, "rewrite testdata/cells.golden from this build")

const cellsGolden = "testdata/cells.golden"

// goldenCells is every runnable cell of the built-in targets and workloads
// at n = 8…512, every pipeline: the sizes a (target, workload) cannot build
// are left out through SupportedSizes.
func goldenCells(t *testing.T) []core.Experiment {
	t.Helper()
	sizes := []int{8, 16, 24, 32, 48, 64, 96, 128, 256, 512}
	var cells []core.Experiment
	for _, tn := range []string{"gemmini", "opengemm"} {
		tg, err := core.LookupTarget(tn)
		if err != nil {
			t.Fatal(err)
		}
		for _, wn := range []string{core.WorkloadMatmul, core.WorkloadRectMM, core.WorkloadMatvec} {
			w, err := core.LookupWorkload(wn)
			if err != nil {
				t.Fatal(err)
			}
			cells = append(cells, core.Sweep([]string{tn}, []string{wn}, core.Pipelines, core.SupportedSizes(tg, w, sizes))...)
		}
	}
	return cells
}

// TestCellsGolden holds what every runnable cell computes — its counters,
// its verdict, its program size and an FNV-64 hash of its disassembly — to
// testdata/cells.golden, one line per cell. A change to the compiler, the
// simulator or a device model that moves any of them shows here as the
// lines it moved; one that must not (an allocator, a memo, a refactor)
// leaves the file as it is. Rewrite it with -update only for a change that
// is meant to move a figure, and say which lines moved and why.
func TestCellsGolden(t *testing.T) {
	cells := goldenCells(t)
	lines := make([]string, len(cells))
	errs := make([]error, len(cells))
	err := core.ParallelEach(context.Background(), len(cells), 0, func(i int) {
		lines[i], errs[i] = goldenLine(cells[i])
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("%s: %v", cells[i], err)
		}
	}
	got := strings.Join(lines, "\n") + "\n"
	if *update {
		if err := os.WriteFile(cellsGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(cellsGolden)
	if err != nil {
		t.Fatal(err)
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(wantLines) != len(lines) {
		t.Fatalf("%d cells, %s has %d lines", len(lines), cellsGolden, len(wantLines))
	}
	for i := range lines {
		if lines[i] != wantLines[i] {
			t.Errorf("cell %d moved:\n got %s\nwant %s", i, lines[i], wantLines[i])
		}
	}
}

// goldenLine compiles and runs one cell and renders its golden line.
func goldenLine(e core.Experiment) (string, error) {
	tg, err := core.LookupTarget(e.Target)
	if err != nil {
		return "", err
	}
	w, err := core.LookupWorkload(e.Workload)
	if err != nil {
		return "", err
	}
	c, err := core.Compile(tg, w, e.Pipeline, e.N)
	if err != nil {
		return "", err
	}
	res, err := c.Execute(core.RunOptions{}, false)
	if err != nil {
		return "", err
	}
	h := fnv.New64a()
	h.Write([]byte(c.Prog.Disassemble()))
	return fmt.Sprintf("%s %+v verified=%t instrs=%d asm=%016x", e, res.Counters, res.Verified, res.ProgramInstrs, h.Sum64()), nil
}
