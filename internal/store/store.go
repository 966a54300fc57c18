// Package store persists experiment results on disk so sweeps survive the
// process: a restarted daemon and a crash-interrupted sweep both skip cells
// that already ran. Entries are content-addressed — the file path is the
// SHA-256 of a fingerprint combining the serialization schema version with
// the experiment cell and run options — so a schema bump or any key change
// silently misses instead of deserializing stale bytes. Writes are atomic (temp file + rename) and
// loads tolerate corruption: a truncated, garbled or mismatched entry is a
// cache miss, never an aborted sweep.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"configwall/internal/core"
)

// SchemaVersion identifies the serialized envelope layout. Bump it whenever
// core.Result changes shape or a key stops naming the same cell: old
// entries then hash to different paths and are simply never found again.
//
// v2 added the experiment cell and run options to the envelope so the
// store could be enumerated at boot. Nothing enumerates it any more and
// the two fields are no longer written, but that needs no bump:
// decodeEnvelope accepts an entry by its schema and key alone, and JSON
// decoding ignores the extra fields, so a v3 entry written with them still
// loads.
//
// v3 changed no field: it retires every v2 entry because the engine
// numbering behind "engine=%d" in the key and Options.Engine in the
// envelope changed (the fast engine became the zero value), and a v2 cell
// simulated by the reference interpreter must not be served as a fast one.
//
// Dropping the option that skipped golden verification from the key
// needed no bump either: an entry keyed with it hashes to a path no current
// key reaches, so it is a miss, and every cell stored since was verified.
// Nor did dropping "trace=" from the key: every older entry spells it, so
// it hashes to a path no current key reaches and its cell recomputes.
// Nor did dropping the per-pass compile log from core.Result: JSON decoding
// ignores the field, and every other field of an entry that carries it
// means what it meant, so the entry loads as the same Result.
const SchemaVersion = 3

// envelope is the on-disk JSON document. Key is stored redundantly (the
// path already encodes it) so loads can reject hash collisions and
// hand-copied files.
type envelope struct {
	Schema int         `json:"schema"`
	Key    string      `json:"key"`
	Result core.Result `json:"result"`
}

// DiskStore is a content-addressed directory of experiment results
// implementing core.Store. It is safe for concurrent use by any number of
// goroutines and processes sharing the directory: writes are atomic
// renames, and concurrent writers of the same cell write identical bytes
// (the co-simulator is deterministic).
type DiskStore struct {
	dir string
}

// Open prepares a disk store rooted at dir, creating it if needed.
func Open(dir string) (*DiskStore, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &DiskStore{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *DiskStore) Dir() string { return s.dir }

// Fingerprint returns the full cache-key string for one cell, including the
// schema version. Its SHA-256 addresses the entry on disk.
func Fingerprint(e core.Experiment, opts core.RunOptions) string {
	return fmt.Sprintf("schema=%d;%s", SchemaVersion, core.FingerprintKey(e, opts))
}

// path maps a fingerprint to <dir>/<hh>/<hash>.json, fanned out over 256
// subdirectories to keep directory listings small on big grids.
func (s *DiskStore) path(fp string) string {
	sum := sha256.Sum256([]byte(fp))
	h := hex.EncodeToString(sum[:])
	return filepath.Join(s.dir, h[:2], h+".json")
}

// EntryPath returns the file path the entry for (e, opts) lives at —
// whether or not it exists yet. Crash-consistency tests and the fault
// injector use it to corrupt or truncate specific entries the way a torn
// write would; normal callers never need it.
func (s *DiskStore) EntryPath(e core.Experiment, opts core.RunOptions) string {
	return s.path(Fingerprint(e, opts))
}

// Load implements core.Store. Absent, corrupted, schema-mismatched or
// key-mismatched entries report ok=false with a nil error; only
// operational failures (e.g. permission denied) surface as errors.
func (s *DiskStore) Load(e core.Experiment, opts core.RunOptions) (core.Result, bool, error) {
	fp := Fingerprint(e, opts)
	data, err := os.ReadFile(s.path(fp))
	if os.IsNotExist(err) {
		return core.Result{}, false, nil
	}
	if err != nil {
		return core.Result{}, false, fmt.Errorf("store: load %s: %w", e, err)
	}
	if env, ok := decodeEnvelope(data, fp); ok {
		return env.Result, true, nil
	}
	// Corruption tolerance: treat undecodable or mismatched bytes as a miss
	// so the cell recomputes (and the rewrite replaces the entry).
	return core.Result{}, false, nil
}

// decodeEnvelope is Load's acceptance rule for an entry's bytes: they
// decode as an envelope of this schema filed under key.
func decodeEnvelope(data []byte, key string) (env envelope, ok bool) {
	err := json.Unmarshal(data, &env)
	return env, err == nil && env.Schema == SchemaVersion && env.Key == key
}

// Save implements core.Store: it marshals the result and atomically
// publishes it, so readers (including concurrent processes) only ever see
// complete entries.
func (s *DiskStore) Save(e core.Experiment, opts core.RunOptions, res core.Result) error {
	fp := Fingerprint(e, opts)
	data, err := json.Marshal(envelope{Schema: SchemaVersion, Key: fp, Result: res})
	if err != nil {
		return fmt.Errorf("store: save %s: %w", e, err)
	}
	path := s.path(fp)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("store: save %s: %w", e, err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return fmt.Errorf("store: save %s: %w", e, err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("store: save %s: %w", e, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: save %s: %w", e, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: save %s: %w", e, err)
	}
	return nil
}
