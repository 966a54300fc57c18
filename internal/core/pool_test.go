package core_test

// Tests for the pooled-arena discipline: Execute recycles the 64 MiB memory
// arena across calls (reset-not-reallocate) and hands a traced run's trace
// to its Result, so the invariants are (a) a run on a reused arena is
// bit-identical to a run on a fresh one, and (b) a published Result is
// immune to later runs.

import (
	"reflect"
	"testing"

	"configwall/internal/core"
	"configwall/internal/sim"
)

// TestPooledContextDeterminism: back-to-back runs of the same cell through
// the context pool must produce identical counters and traces — sequential
// runs draw the recycled context, so any dirty state surviving
// Memory.Reset, register clearing or trace truncation shows up as a
// mismatch here.
func TestPooledContextDeterminism(t *testing.T) {
	target := core.OpenGeMMTarget()
	first := tracedMatmul(t, target, core.AllOptimizations, 32, core.RunOptions{})
	// Interleave a different, bigger cell so the pooled arena and trace
	// buffer carry another run's footprint before the replay.
	tracedMatmul(t, target, core.Baseline, 64, core.RunOptions{})
	second := tracedMatmul(t, target, core.AllOptimizations, 32, core.RunOptions{})
	if first.Counters != second.Counters {
		t.Errorf("counters differ across pooled reuse:\nfirst:  %+v\nsecond: %+v", first.Counters, second.Counters)
	}
	if !reflect.DeepEqual(first.Trace, second.Trace) {
		t.Errorf("traces differ across pooled reuse: first %d segments, second %d", len(first.Trace), len(second.Trace))
	}
}

// TestResultTraceImmuneToPoolReuse: Results are cached and shared, so the
// trace a Result carries must be an owned copy — later runs recycling the
// pooled trace buffer must not mutate it (cross-cell trace leakage).
func TestResultTraceImmuneToPoolReuse(t *testing.T) {
	target := core.OpenGeMMTarget()
	res := tracedMatmul(t, target, core.OverlapOnly, 32, core.RunOptions{})
	if len(res.Trace) == 0 {
		t.Fatal("traced run recorded no segments")
	}
	snapshot := append([]sim.Segment(nil), res.Trace...)
	// Hammer the pool with other traced cells that would overwrite a
	// shared buffer.
	for _, n := range []int{16, 48, 64} {
		tracedMatmul(t, target, core.Baseline, n, core.RunOptions{})
	}
	if !reflect.DeepEqual(snapshot, res.Trace) {
		t.Error("published Result.Trace changed after later pooled runs (buffer aliasing)")
	}
}

// tracedMatmul is the traced run of the n x n matmul cell: Compile, then
// Execute with the timeline recorded, the one path that records one.
func tracedMatmul(t *testing.T, target core.Target, p core.Pipeline, n int, opts core.RunOptions) core.Result {
	t.Helper()
	w, err := core.LookupWorkload(core.WorkloadMatmul)
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.Compile(target, w, p, n)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Execute(opts, true)
	if err != nil {
		t.Fatal(err)
	}
	return res
}
