package core_test

// Tests for the pooled-arena discipline: Run recycles the 64 MiB memory
// arena across calls (reset-not-reallocate) and hands each run's trace to
// its Result, so the invariants are (a) a run on a reused arena is
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
	opts := core.RunOptions{RecordTrace: true}
	first, err := core.RunTiledMatmul(target, core.AllOptimizations, 32, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Interleave a different, bigger cell so the pooled arena and trace
	// buffer carry another run's footprint before the replay.
	if _, err := core.RunTiledMatmul(target, core.Baseline, 64, opts); err != nil {
		t.Fatal(err)
	}
	second, err := core.RunTiledMatmul(target, core.AllOptimizations, 32, opts)
	if err != nil {
		t.Fatal(err)
	}
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
	opts := core.RunOptions{RecordTrace: true}
	res, err := core.RunTiledMatmul(target, core.OverlapOnly, 32, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) == 0 {
		t.Fatal("traced run recorded no segments")
	}
	snapshot := append([]sim.Segment(nil), res.Trace...)
	// Hammer the pool with other traced cells that would overwrite a
	// shared buffer.
	for _, n := range []int{16, 48, 64} {
		if _, err := core.RunTiledMatmul(target, core.Baseline, n, opts); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(snapshot, res.Trace) {
		t.Error("published Result.Trace changed after later pooled runs (buffer aliasing)")
	}
}
