package store_test

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"configwall/internal/core"
	"configwall/internal/sim"
	"configwall/internal/store"
)

var exp = core.Experiment{Target: "opengemm", Workload: core.WorkloadMatmul, Pipeline: core.AllOptimizations, N: 16}

func openStore(t *testing.T) *store.DiskStore {
	t.Helper()
	s, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// entryPath finds the single stored entry file.
func entryPath(t *testing.T, s *store.DiskStore) string {
	t.Helper()
	var found string
	err := filepath.WalkDir(s.Dir(), func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && filepath.Ext(path) == ".json" {
			found = path
		}
		return nil
	})
	if err != nil || found == "" {
		t.Fatalf("no stored entry found (err=%v)", err)
	}
	return found
}

// TestRoundTripFidelity stores a real experiment result — including its
// trace — and checks the loaded copy is indistinguishable from the fresh
// one.
func TestRoundTripFidelity(t *testing.T) {
	opts := core.RunOptions{RecordTrace: true}
	fresh, err := core.RunExperiment(exp, opts)
	if err != nil {
		t.Fatal(err)
	}
	s := openStore(t)
	if err := s.Save(exp, opts, fresh); err != nil {
		t.Fatal(err)
	}
	loaded, ok, err := s.Load(exp, opts)
	if err != nil || !ok {
		t.Fatalf("Load: ok=%v err=%v", ok, err)
	}
	if !reflect.DeepEqual(fresh, loaded) {
		t.Errorf("round-tripped result differs:\nfresh:  %+v\nloaded: %+v", fresh, loaded)
	}
}

func TestLoadMissingIsMissNotError(t *testing.T) {
	s := openStore(t)
	_, ok, err := s.Load(exp, core.RunOptions{})
	if ok || err != nil {
		t.Errorf("empty store: ok=%v err=%v, want miss with nil error", ok, err)
	}
}

// TestOptionsChangeKey verifies the fingerprint separates cells that differ
// only in run options: a result stored with one option set must not answer
// a load with another.
func TestOptionsChangeKey(t *testing.T) {
	s := openStore(t)
	if err := s.Save(exp, core.RunOptions{}, core.Result{Target: exp.Target, N: exp.N}); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := s.Load(exp, core.RunOptions{RecordTrace: true}); ok {
		t.Error("load with different RecordTrace hit an entry stored without it")
	}
	if _, ok, _ := s.Load(exp, core.RunOptions{SkipVerify: true}); ok {
		t.Error("load with different SkipVerify hit an entry stored without it")
	}
	if _, ok, _ := s.Load(exp, core.RunOptions{}); !ok {
		t.Error("load with identical options missed")
	}
}

// TestSchemaMismatchInvalidates rewrites a stored entry with a foreign
// schema version; the load must degrade to a miss, not return stale data.
// The literal v2 envelope is what the previous layout wrote for this cell
// when the reference interpreter simulated it: "engine=0" and "Engine":0
// meant ref then and mean the fast engine now, so serving it would hand a
// ref-simulated cell to a fast-engine request.
func TestSchemaMismatchInvalidates(t *testing.T) {
	s := openStore(t)
	opts := core.RunOptions{}
	if err := s.Save(exp, opts, core.Result{Target: exp.Target}); err != nil {
		t.Fatal(err)
	}
	path := entryPath(t, s)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	marker := fmt.Sprintf(`"schema":%d`, store.SchemaVersion)
	bumped := strings.Replace(string(data), marker, `"schema":999`, 1)
	if bumped == string(data) {
		t.Fatalf("schema marker not found in %s", data)
	}
	const v2 = `{"schema":2,"key":"schema=2;target=opengemm;workload=matmul;pipeline=3;n=16;trace=false;skipverify=false;engine=0",` +
		`"experiment":{"Target":"opengemm","Workload":"matmul","Pipeline":3,"N":16},` +
		`"options":{"RecordTrace":false,"SkipVerify":false,"Engine":0,"Fidelity":0},` +
		`"result":{"Target":"opengemm","Workload":"matmul","Pipeline":3,"N":16,"Cycles":1}}`
	if want := "schema=2;" + core.FingerprintKey(exp, opts); !strings.Contains(v2, want) {
		t.Fatalf("literal v2 envelope does not carry this cell's key %q", want)
	}
	for name, foreign := range map[string]string{"future schema": bumped, "v2 envelope": v2} {
		if err := os.WriteFile(path, []byte(foreign), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok, err := s.Load(exp, opts); ok || err != nil {
			t.Errorf("%s: ok=%v err=%v, want miss with nil error", name, ok, err)
		}
		if keys, err := s.Keys(); len(keys) != 0 || err != nil {
			t.Errorf("%s: Keys = %v, %v; want the entry skipped", name, keys, err)
		}
	}
}

// TestCorruptedEntryIsMiss truncates and garbles a stored entry; both must
// load as misses (and never as errors that would abort a sweep).
func TestCorruptedEntryIsMiss(t *testing.T) {
	s := openStore(t)
	opts := core.RunOptions{}
	if err := s.Save(exp, opts, core.Result{Target: exp.Target}); err != nil {
		t.Fatal(err)
	}
	path := entryPath(t, s)
	for name, contents := range map[string][]byte{
		"truncated": []byte(`{"schema":1,"key":"tr`),
		"garbage":   []byte("\x00\xff not json at all"),
		"empty":     {},
	} {
		if err := os.WriteFile(path, contents, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok, err := s.Load(exp, opts); ok || err != nil {
			t.Errorf("%s entry: ok=%v err=%v, want miss with nil error", name, ok, err)
		}
	}
}

// TestKeyMismatchIsMiss plants an entry whose envelope key disagrees with
// its path (a hand-copied or collided file); it must not be trusted.
func TestKeyMismatchIsMiss(t *testing.T) {
	s := openStore(t)
	opts := core.RunOptions{}
	other := exp
	other.N = 32
	if err := s.Save(exp, opts, core.Result{Target: exp.Target}); err != nil {
		t.Fatal(err)
	}
	if err := s.Save(other, opts, core.Result{Target: other.Target}); err != nil {
		t.Fatal(err)
	}
	// Copy exp's file over other's path: key inside no longer matches.
	fpExp, fpOther := store.Fingerprint(exp, opts), store.Fingerprint(other, opts)
	if fpExp == fpOther {
		t.Fatal("fingerprints must differ")
	}
	var paths []string
	filepath.WalkDir(s.Dir(), func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && filepath.Ext(path) == ".json" {
			paths = append(paths, path)
		}
		return nil
	})
	if len(paths) != 2 {
		t.Fatalf("want 2 entries, found %d", len(paths))
	}
	a, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(paths[1], a, 0o644); err != nil {
		t.Fatal(err)
	}
	hits := 0
	for _, e := range []core.Experiment{exp, other} {
		if _, ok, _ := s.Load(e, opts); ok {
			hits++
		}
	}
	if hits != 1 {
		t.Errorf("after cross-copying entries, %d loads hit; want exactly 1 (the untouched file)", hits)
	}
}

// TestSharedDirectoryAcrossStores simulates resume: a second store opened
// on the same directory sees the first one's entries.
func TestSharedDirectoryAcrossStores(t *testing.T) {
	dir := t.TempDir()
	s1, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.RunOptions{}
	if err := s1.Save(exp, opts, core.Result{Target: exp.Target, N: exp.N}); err != nil {
		t.Fatal(err)
	}
	s2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	res, ok, err := s2.Load(exp, opts)
	if err != nil || !ok || res.Target != exp.Target || res.N != exp.N {
		t.Errorf("second store on same dir: ok=%v err=%v res=%+v", ok, err, res)
	}
	if n, err := s2.Len(); err != nil || n != 1 {
		t.Errorf("Len = %d, %v; want 1", n, err)
	}
}

// TestNoTempFilesLeftBehind: saves must leave only complete entries.
func TestNoTempFilesLeftBehind(t *testing.T) {
	s := openStore(t)
	if err := s.Save(exp, core.RunOptions{}, core.Result{}); err != nil {
		t.Fatal(err)
	}
	err := filepath.WalkDir(s.Dir(), func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.HasPrefix(filepath.Base(path), ".tmp-") {
			t.Errorf("leftover temp file %s", path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestOpenRejectsEmptyDir(t *testing.T) {
	if _, err := store.Open(""); err == nil {
		t.Error("Open(\"\") must error")
	}
}

// TestKeysAndEach saves several cells under distinct options and checks
// the enumeration returns every entry, sorted by fingerprint key, with
// the experiment/options/result round-tripped intact.
func TestKeysAndEach(t *testing.T) {
	s := openStore(t)
	cells := []struct {
		e    core.Experiment
		opts core.RunOptions
	}{
		{core.Experiment{Target: "opengemm", Workload: core.WorkloadMatmul, Pipeline: core.Baseline, N: 16}, core.RunOptions{}},
		{core.Experiment{Target: "opengemm", Workload: core.WorkloadMatmul, Pipeline: core.AllOptimizations, N: 32}, core.RunOptions{SkipVerify: true}},
		{core.Experiment{Target: "gemmini", Workload: core.WorkloadMatmul, Pipeline: core.Baseline, N: 16}, core.RunOptions{Engine: sim.EngineRef}},
	}
	want := map[string]core.Result{}
	for i, c := range cells {
		res := core.Result{Target: c.e.Target, Workload: c.e.Workload, N: c.e.N}
		res.Cycles = uint64(100 + i)
		if err := s.Save(c.e, c.opts, res); err != nil {
			t.Fatal(err)
		}
		want[store.Fingerprint(c.e, c.opts)] = res
	}

	keys, err := s.Keys()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != len(cells) {
		t.Fatalf("Keys returned %d entries, want %d", len(keys), len(cells))
	}
	if !sort.StringsAreSorted(keys) {
		t.Errorf("keys are not sorted: %v", keys)
	}

	seen := 0
	prev := ""
	err = s.Each(func(e store.Entry) error {
		if e.Key <= prev {
			t.Errorf("Each out of order: %q after %q", e.Key, prev)
		}
		prev = e.Key
		res, ok := want[e.Key]
		if !ok {
			t.Errorf("unexpected key %q", e.Key)
			return nil
		}
		if !reflect.DeepEqual(e.Result, res) {
			t.Errorf("entry %q: result did not round-trip", e.Key)
		}
		if got := store.Fingerprint(e.Experiment, e.Options); got != e.Key {
			t.Errorf("entry %q: experiment/options re-fingerprint to %q", e.Key, got)
		}
		seen++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != len(cells) {
		t.Errorf("Each visited %d entries, want %d", seen, len(cells))
	}
}

// TestEachSkipsCorruptAndForeign garbles one entry and plants a
// hand-copied file at a wrong path; enumeration must skip both, like Load.
func TestEachSkipsCorruptAndForeign(t *testing.T) {
	s := openStore(t)
	opts := core.RunOptions{}
	if err := s.Save(exp, opts, core.Result{Target: exp.Target}); err != nil {
		t.Fatal(err)
	}
	other := exp
	other.N = 32
	if err := s.Save(other, opts, core.Result{Target: other.Target}); err != nil {
		t.Fatal(err)
	}

	// Garble the first entry.
	var victim string
	fp := store.Fingerprint(exp, opts)
	err := filepath.WalkDir(s.Dir(), func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || filepath.Ext(path) != ".json" {
			return err
		}
		data, rerr := os.ReadFile(path)
		if rerr != nil {
			return rerr
		}
		if strings.Contains(string(data), fp) {
			victim = path
		}
		return nil
	})
	if err != nil || victim == "" {
		t.Fatalf("finding victim entry: %v", err)
	}
	if err := os.WriteFile(victim, []byte("\x00 garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Plant a valid envelope at a path its key does not hash to.
	foreign := filepath.Join(s.Dir(), "zz", "copied.json")
	if err := os.MkdirAll(filepath.Dir(foreign), 0o755); err != nil {
		t.Fatal(err)
	}
	survivor := ""
	err = filepath.WalkDir(s.Dir(), func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && filepath.Ext(path) == ".json" && path != victim {
			survivor = path
		}
		return err
	})
	if err != nil || survivor == "" {
		t.Fatalf("finding intact entry: %v", err)
	}
	data, err := os.ReadFile(survivor)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(foreign, data, 0o644); err != nil {
		t.Fatal(err)
	}

	keys, err := s.Keys()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 1 || keys[0] != store.Fingerprint(other, opts) {
		t.Errorf("Keys = %v, want only the intact entry", keys)
	}
}
