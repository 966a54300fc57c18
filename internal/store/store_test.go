package store_test

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
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

// jsonFiles counts the complete entry files under dir — every .json file,
// decodable or not; in-flight temp files have no extension.
func jsonFiles(t *testing.T, dir string) int {
	t.Helper()
	n := 0
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && filepath.Ext(path) == ".json" {
			n++
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestRoundTripFidelity stores a real experiment result and checks the
// loaded copy is indistinguishable from the fresh one: a timeline is not
// part of a cell, so neither carries one.
func TestRoundTripFidelity(t *testing.T) {
	opts := core.RunOptions{}
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
	if !fresh.Verified || loaded.Trace != nil {
		t.Errorf("loaded result: verified=%v, %d trace segments; want a verified cell without a timeline", loaded.Verified, len(loaded.Trace))
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
	if _, ok, _ := s.Load(exp, core.RunOptions{Engine: sim.EngineRef}); ok {
		t.Error("load with a different Engine hit an entry stored under the default one")
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
// ref-simulated cell to a fast-engine request. A v3 entry whose key still
// spells the retired skip-verify field is a miss too: it may hold a cell
// that was never verified. So is one whose key still spells the retired
// trace field, which every entry carried before a timeline stopped being
// part of a cell's name: the key changed, so the schema did not need to.
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
	// The old keys spell this cell with the trace and skip-verify fields the
	// key no longer carries; removing them must give this cell's current key.
	const retired = "trace=false;skipverify=false;"
	const v2Key = "schema=2;target=opengemm;workload=matmul;pipeline=3;n=16;" + retired + "engine=0"
	const v2 = `{"schema":2,"key":"` + v2Key + `",` +
		`"experiment":{"Target":"opengemm","Workload":"matmul","Pipeline":3,"N":16},` +
		`"options":{"RecordTrace":false,"SkipVerify":false,"Engine":0,"Fidelity":0},` +
		`"result":{"Target":"opengemm","Workload":"matmul","Pipeline":3,"N":16,"Cycles":1}}`
	if want := "schema=2;" + core.FingerprintKey(exp, opts); strings.Replace(v2Key, retired, "", 1) != want {
		t.Fatalf("literal v2 envelope does not carry this cell's key %q", want)
	}
	unverified := strings.Replace(string(data), "engine=0", retired+"engine=0", 1)
	untraced := strings.Replace(string(data), "engine=0", "trace=false;engine=0", 1)
	if unverified == string(data) || untraced == string(data) {
		t.Fatalf("engine key not found in %s", data)
	}
	for name, foreign := range map[string]string{"future schema": bumped, "v2 envelope": v2, "skip-verify key": unverified, "trace key": untraced} {
		if err := os.WriteFile(path, []byte(foreign), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok, err := s.Load(exp, opts); ok || err != nil {
			t.Errorf("%s: ok=%v err=%v, want miss with nil error", name, ok, err)
		}
	}
}

// TestEntryWithCellFieldsLoads: earlier v3 entries also carried the cell's
// experiment and options. Load accepts an entry by schema and key alone, so
// such an entry must still load as a hit with its result intact.
func TestEntryWithCellFieldsLoads(t *testing.T) {
	s := openStore(t)
	opts := core.RunOptions{}
	res := core.Result{Target: exp.Target, Workload: exp.Workload, N: exp.N}
	res.Cycles = 7
	if err := s.Save(exp, opts, res); err != nil {
		t.Fatal(err)
	}
	path := s.EntryPath(exp, opts)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), `"experiment"`) || strings.Contains(string(data), `"options"`) {
		t.Errorf("Save wrote the cell into the envelope: %s", data)
	}
	cell, err := json.Marshal(map[string]any{"experiment": exp, "options": opts})
	if err != nil {
		t.Fatal(err)
	}
	marker := `,"result":`
	if !strings.Contains(string(data), marker) {
		t.Fatalf("result marker not found in %s", data)
	}
	older := strings.Replace(string(data), marker, ","+string(cell[1:len(cell)-1])+marker, 1)
	if err := os.WriteFile(path, []byte(older), 0o644); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.Load(exp, opts)
	if !ok || err != nil || !reflect.DeepEqual(got, res) {
		t.Errorf("entry with cell fields: ok=%v err=%v result %+v, want a hit with %+v", ok, err, got, res)
	}
}

// TestEntryWithNullTraceLoads: a Result without a timeline is saved with no
// Trace key, an entry written while every entry carried "Trace":null still
// loads as the same result, and a timeline still encodes under that key.
func TestEntryWithNullTraceLoads(t *testing.T) {
	s := openStore(t)
	opts := core.RunOptions{}
	res := core.Result{Target: exp.Target, Workload: exp.Workload, N: exp.N}
	res.Cycles = 7
	if err := s.Save(exp, opts, res); err != nil {
		t.Fatal(err)
	}
	path := s.EntryPath(exp, opts)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), `"Trace"`) {
		t.Errorf("Save wrote a Trace key for a result without a timeline: %s", data)
	}
	marker := `"result":{`
	if !strings.Contains(string(data), marker) {
		t.Fatalf("result marker not found in %s", data)
	}
	older := strings.Replace(string(data), marker, marker+`"Trace":null,`, 1)
	if err := os.WriteFile(path, []byte(older), 0o644); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.Load(exp, opts)
	if !ok || err != nil || !reflect.DeepEqual(got, res) {
		t.Errorf(`entry with "Trace":null: ok=%v err=%v result %+v, want a hit with %+v`, ok, err, got, res)
	}

	res.Trace = []sim.Segment{{Kind: sim.SegAccelBusy, Start: 1, End: 9}}
	traced, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(traced), `"Trace":[{`) {
		t.Errorf("a timeline does not encode under the Trace key: %s", traced)
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
	if n := jsonFiles(t, s2.Dir()); n != 1 {
		t.Errorf("%d entry files, want 1", n)
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
