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
	"sort"

	"configwall/internal/core"
)

// SchemaVersion identifies the serialized envelope layout. Bump it whenever
// core.Result (or the envelope itself) changes shape: old entries then hash
// to different paths and are simply never found again.
//
// v2 added the experiment cell and run options to the envelope so the
// store is enumerable: Keys/Each can hand every entry back as a typed
// (experiment, options, result) record, which is what lets a serving
// daemon warm its runner from the store at boot without knowing which
// sweeps produced it.
//
// v3 changed no field: it retires every v2 entry because the engine
// numbering behind "engine=%d" in the key and Options.Engine in the
// envelope changed (the fast engine became the zero value), and a v2 cell
// simulated by the reference interpreter must not be served as a fast one.
const SchemaVersion = 3

// envelope is the on-disk JSON document. Key is stored redundantly (the
// path already encodes it) so loads can reject hash collisions and
// hand-copied files; Experiment and Options make the entry
// self-describing for enumeration.
type envelope struct {
	Schema     int             `json:"schema"`
	Key        string          `json:"key"`
	Experiment core.Experiment `json:"experiment"`
	Options    core.RunOptions `json:"options"`
	Result     core.Result     `json:"result"`
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

// decodeEnvelope is the one acceptance rule for an entry's bytes, Load's and
// Each's: they decode as an envelope of this schema filed under key.
func decodeEnvelope(data []byte, key string) (env envelope, ok bool) {
	err := json.Unmarshal(data, &env)
	return env, err == nil && env.Schema == SchemaVersion && env.Key == key
}

// Save implements core.Store: it marshals the result and atomically
// publishes it, so readers (including concurrent processes) only ever see
// complete entries.
func (s *DiskStore) Save(e core.Experiment, opts core.RunOptions, res core.Result) error {
	fp := Fingerprint(e, opts)
	data, err := json.Marshal(envelope{Schema: SchemaVersion, Key: fp, Experiment: e, Options: opts, Result: res})
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

// Entry is one enumerated store record: the fingerprint key addressing it
// plus the self-described experiment cell, run options and result.
type Entry struct {
	Key        string
	Experiment core.Experiment
	Options    core.RunOptions
	Result     core.Result
}

// Each calls fn for every complete, decodable entry in the store, in
// sorted fingerprint-key order. It is corruption-tolerant the way Load is:
// truncated, garbled, schema-mismatched, misplaced or in-flight temp files
// are silently skipped, never an error — only operational failures (an
// unreadable directory, a permission error, or fn itself failing) abort
// the walk. Entries stream one at a time (two passes: a cheap key index,
// then one full decode per callback), so enumerating a store of large
// trace-recording results never materializes more than one Result.
func (s *DiskStore) Each(fn func(Entry) error) error {
	index, err := s.index()
	if err != nil {
		return err
	}
	for _, kp := range index {
		data, err := os.ReadFile(kp.path)
		if err != nil {
			// The entry may have been replaced between the passes; a
			// vanished file is a skip, anything else is operational.
			if os.IsNotExist(err) {
				continue
			}
			return fmt.Errorf("store: enumerate %s: %w", kp.path, err)
		}
		if env, ok := decodeEnvelope(data, kp.key); ok {
			if err := fn(Entry{Key: env.Key, Experiment: env.Experiment, Options: env.Options, Result: env.Result}); err != nil {
				return err
			}
		}
	}
	return nil
}

// keyedPath locates one enumerable entry: its fingerprint key and file.
type keyedPath struct {
	key, path string
}

// index walks the store decoding only the envelope header of each file
// and returns the (key, path) pairs sorted by key. Undecodable,
// schema-mismatched and misplaced files are skipped exactly like Load.
func (s *DiskStore) index() ([]keyedPath, error) {
	var out []keyedPath
	err := filepath.WalkDir(s.dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || filepath.Ext(path) != ".json" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			// The file may be a temp entry renamed away mid-walk; a
			// vanished file is a skip, anything else is operational.
			if os.IsNotExist(err) {
				return nil
			}
			return fmt.Errorf("store: enumerate %s: %w", path, err)
		}
		var head struct {
			Schema int    `json:"schema"`
			Key    string `json:"key"`
		}
		if json.Unmarshal(data, &head) != nil || head.Schema != SchemaVersion {
			return nil
		}
		// Reject misplaced or hand-copied files exactly like Load: the
		// envelope's key must hash to the path it was found at.
		if s.path(head.Key) != path {
			return nil
		}
		out = append(out, keyedPath{key: head.Key, path: path})
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out, nil
}
