package store_test

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"configwall/internal/core"
	"configwall/internal/serve"
	"configwall/internal/store"
)

// crashExps are three distinct cells for the crash-consistency scenarios.
var crashExps = []core.Experiment{
	{Target: "opengemm", Workload: core.WorkloadMatmul, Pipeline: core.AllOptimizations, N: 8},
	{Target: "opengemm", Workload: core.WorkloadMatmul, Pipeline: core.AllOptimizations, N: 16},
	{Target: "opengemm", Workload: core.WorkloadMatmul, Pipeline: core.Baseline, N: 8},
}

// seedStore saves a real result for every crashExps cell and returns the
// results by index.
func seedStore(t *testing.T, s *store.DiskStore) []core.Result {
	t.Helper()
	var opts core.RunOptions
	results := make([]core.Result, len(crashExps))
	for i, e := range crashExps {
		res, err := core.RunExperiment(e, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Save(e, opts, res); err != nil {
			t.Fatal(err)
		}
		results[i] = res
	}
	return results
}

// TestTornEntryDegradesToMiss: an entry truncated mid-write (the torn
// state atomic rename normally rules out, forced here the way the fault
// injector forces it) must read as a miss, never an error — and a
// re-save must repair it.
func TestTornEntryDegradesToMiss(t *testing.T) {
	s := openStore(t)
	results := seedStore(t, s)
	var opts core.RunOptions

	path := s.EntryPath(crashExps[0], opts)
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()/2); err != nil {
		t.Fatal(err)
	}

	if _, ok, err := s.Load(crashExps[0], opts); ok || err != nil {
		t.Errorf("torn entry: Load ok=%v err=%v, want a clean miss", ok, err)
	}
	// The intact entries are unaffected.
	for _, e := range crashExps[1:] {
		if _, ok, err := s.Load(e, opts); !ok || err != nil {
			t.Errorf("intact entry %s: ok=%v err=%v, want a hit", e, ok, err)
		}
	}

	// A fresh save replaces the torn bytes and the entry reads back whole.
	if err := s.Save(crashExps[0], opts, results[0]); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.Load(crashExps[0], opts); !ok || err != nil {
		t.Errorf("repaired entry: ok=%v err=%v, want a hit", ok, err)
	}
}

// TestTornEntrySkippedByEnumeration: Each and Keys must silently skip a
// torn entry — warm-on-boot and sweep resume keep working on the
// survivors instead of aborting.
func TestTornEntrySkippedByEnumeration(t *testing.T) {
	s := openStore(t)
	seedStore(t, s)
	var opts core.RunOptions

	path := s.EntryPath(crashExps[1], opts)
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()/2); err != nil {
		t.Fatal(err)
	}

	keys, err := s.Keys()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 2 {
		t.Errorf("Keys() returned %d entries, want the 2 intact ones", len(keys))
	}
	seen := 0
	if err := s.Each(func(store.Entry) error { seen++; return nil }); err != nil {
		t.Fatalf("Each over a store with a torn entry: %v", err)
	}
	if seen != 2 {
		t.Errorf("Each visited %d entries, want 2", seen)
	}

	// Warm-on-boot over the damaged store: the runner preloads the two
	// intact cells and the torn one recomputes on demand — degraded to a
	// miss, never a boot failure.
	runner := core.NewRunnerWith(core.RunnerOptions{Store: s})
	sv, err := serve.New(serve.Options{Runner: runner})
	if err != nil {
		t.Fatal(err)
	}
	defer sv.Close()
	warmed, err := sv.WarmFromStore(context.Background(), s)
	if err != nil || warmed != 2 {
		t.Errorf("WarmFromStore preloaded %d cells (err %v), want 2", warmed, err)
	}
	if _, err := runner.Run(context.Background(), crashExps[1], opts); err != nil {
		t.Errorf("recomputing the torn cell: %v", err)
	}
}

// TestLeftoverTempFilesIgnored: a crash between CreateTemp and the
// rename leaves .tmp-* files behind; every read path must ignore them.
func TestLeftoverTempFilesIgnored(t *testing.T) {
	s := openStore(t)
	seedStore(t, s)
	var opts core.RunOptions

	// Simulate in-flight writes that never completed: tmp litter next to
	// a real entry and in a fresh fan-out directory.
	litter := []string{
		filepath.Join(filepath.Dir(s.EntryPath(crashExps[0], opts)), ".tmp-123456"),
		filepath.Join(s.Dir(), "zz", ".tmp-crashed"),
	}
	if err := os.MkdirAll(filepath.Join(s.Dir(), "zz"), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, p := range litter {
		if err := os.WriteFile(p, []byte(`{"schema":2,"key":"partial`), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	for _, e := range crashExps {
		if _, ok, err := s.Load(e, opts); !ok || err != nil {
			t.Errorf("entry %s with tmp litter: ok=%v err=%v, want a hit", e, ok, err)
		}
	}
	keys, err := s.Keys()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != len(crashExps) {
		t.Errorf("Keys() = %d entries, want %d (tmp litter excluded)", len(keys), len(crashExps))
	}
	n, err := s.Len()
	if err != nil {
		t.Fatal(err)
	}
	if n != len(crashExps) {
		t.Errorf("Len() = %d, want %d", n, len(crashExps))
	}
}

// TestGarbledEntryDegradesToMiss: arbitrary corruption (not just
// truncation) reads as a miss and is skipped by enumeration.
func TestGarbledEntryDegradesToMiss(t *testing.T) {
	s := openStore(t)
	seedStore(t, s)
	var opts core.RunOptions

	for i, garbage := range [][]byte{
		nil,                       // zero-length file (truncated at 0)
		[]byte("\x00\x01\x02"),    // binary noise
		[]byte(`{"schema":999}`),  // valid JSON, wrong schema
		[]byte(`{"key":"wrong"}`), // valid JSON, key/path mismatch
	} {
		path := s.EntryPath(crashExps[i%len(crashExps)], opts)
		orig, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, garbage, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok, err := s.Load(crashExps[i%len(crashExps)], opts); ok || err != nil {
			t.Errorf("garbled variant %d: Load ok=%v err=%v, want a clean miss", i, ok, err)
		}
		if _, err := s.Keys(); err != nil {
			t.Errorf("garbled variant %d: Keys errored: %v", i, err)
		}
		if err := os.WriteFile(path, orig, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
