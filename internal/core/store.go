package core

// The pluggable persistence seam of the runner: a Store keeps experiment
// results across processes so repeated figure sweeps, sharded grid runs and
// crash-interrupted sweeps never recompile a cell that already ran. The
// on-disk implementation lives in internal/store; core only defines the
// contract so the runner stays storage-agnostic.

import "fmt"

// Store persists experiment results keyed by (experiment, run-options). A
// Store must be safe for concurrent use; the runner may Load and Save from
// many worker goroutines at once.
//
// Load reports ok=false for any key it cannot produce a trustworthy result
// for — absent, written by an incompatible schema, or corrupted on disk —
// and reserves the error for operational failures the caller should see
// (permission denied, disk full). A cache must degrade to a miss, never
// block a sweep.
type Store interface {
	Load(e Experiment, opts RunOptions) (Result, bool, error)
	Save(e Experiment, opts RunOptions, res Result) error
}

// CacheStats counts how the runner satisfied experiment requests; use
// Runner.Snapshot to read them. Requests = MemHits + MemMisses, and every
// memory miss resolves to either a StoreHit or a fresh Run (Runs ==
// MemMisses - StoreHits when no store errors occur). Cells put in memory
// ahead of any request (Runner.Preload, which serve.Server.WarmFromStore
// calls per stored cell) are not requests and count as neither hits nor
// misses: a freshly warmed runner has served zero requests.
type CacheStats struct {
	// MemHits counts requests answered by the in-memory cell map.
	MemHits uint64
	// MemMisses counts requests that had to go past the in-memory map.
	MemMisses uint64
	// StoreHits counts memory misses answered by the persistent store.
	StoreHits uint64
	// StoreMisses counts memory misses the persistent store could not
	// answer (including corrupted or schema-mismatched entries).
	StoreMisses uint64
	// Runs counts experiments actually compiled and simulated.
	Runs uint64
	// Predictions counts requests answered by the analytical tier — no
	// compilation, no simulation, never memoized or persisted.
	Predictions uint64
	// Evictions counts cells dropped from the in-memory map by the LRU
	// bound.
	Evictions uint64
	// StoreErrors counts Load/Save operational failures (the sweep
	// continues; the affected cell is recomputed or stays unsaved).
	StoreErrors uint64
}

func (s CacheStats) String() string {
	return fmt.Sprintf("mem %d/%d hit, store %d/%d hit, %d runs, %d predicted, %d evictions, %d store errors",
		s.MemHits, s.MemHits+s.MemMisses, s.StoreHits, s.StoreHits+s.StoreMisses,
		s.Runs, s.Predictions, s.Evictions, s.StoreErrors)
}

// FingerprintKey returns the canonical cache-key string for one experiment
// cell under the given options. Every RunOptions knob that changes the
// produced Result must appear here; stores hash this string (together with
// their serialization schema version) to address entries. The pipeline is
// keyed numerically: Pipeline.String() collapses unnamed values to "base",
// which would alias an out-of-range pipeline onto Baseline's entry. The
// simulator engine is keyed even though both engines produce identical
// Results (the oracle enforces it): a cross-engine comparison that read
// one engine's cached cell for the other would vacuously pass.
func FingerprintKey(e Experiment, opts RunOptions) string {
	return fmt.Sprintf("target=%s;workload=%s;pipeline=%d;n=%d;trace=%t;skipverify=%t;engine=%d",
		e.Target, e.Workload, int(e.Pipeline), e.N, opts.RecordTrace, opts.SkipVerify, int(opts.Engine))
}
