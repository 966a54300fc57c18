package store

import (
	"bytes"
	"os"
	"reflect"
	"testing"

	"configwall/internal/core"
)

// FuzzDecodeEnvelope holds decodeEnvelope, the one rule Load and Each accept
// an entry's bytes by: it never panics, an accepted envelope has this schema
// and the key it was asked for, and a Saved entry decodes to its result. The
// seeds are a Saved entry, its truncations (a torn write) and a foreign key.
//
//	go test -run '^$' -fuzz FuzzDecodeEnvelope -fuzztime 10s ./internal/store
func FuzzDecodeEnvelope(f *testing.F) {
	e := core.Experiment{Target: "opengemm", Workload: core.WorkloadMatmul, Pipeline: core.AllOptimizations, N: 16}
	opts := core.RunOptions{}
	res, err := core.RunExperiment(e, opts)
	if err != nil {
		f.Fatal(err)
	}
	s, err := Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	if err := s.Save(e, opts, res); err != nil {
		f.Fatal(err)
	}
	saved, err := os.ReadFile(s.EntryPath(e, opts))
	if err != nil {
		f.Fatal(err)
	}
	key := Fingerprint(e, opts)
	for _, n := range []int{len(saved), len(saved) - 1, len(saved) / 2, 16, 1, 0} {
		f.Add(saved[:n], key)
	}
	f.Add(saved, "schema=0;"+key)

	f.Fuzz(func(t *testing.T, data []byte, key string) {
		env, ok := decodeEnvelope(data, key)
		if ok && (env.Schema != SchemaVersion || env.Key != key) {
			t.Fatalf("accepted schema %d key %q, asked for schema %d key %q", env.Schema, env.Key, SchemaVersion, key)
		}
		if key == Fingerprint(e, opts) && bytes.Equal(data, saved) && (!ok || !reflect.DeepEqual(env.Result, res)) {
			t.Fatalf("a Saved entry decodes to ok=%v %+v, want its result %+v", ok, env.Result, res)
		}
	})
}
