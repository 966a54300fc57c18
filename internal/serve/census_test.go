package serve_test

import (
	"reflect"
	"testing"

	"configwall/internal/core"
	"configwall/internal/serve"
)

// TestOptionsCensus pins the fields of the option structs off the request
// path (core.RunOptions, on it, has TestRunOptionsIsTheCellName). Each is
// kept because a non-test caller outside bench/ or a CI step gives it a
// value of its own — the census table in DESIGN.md §7 names who — or because
// the frozen bench/ compiles against it. A field added here fails until the
// table has its row and its caller; one whose last caller goes leaves with
// it.
func TestOptionsCensus(t *testing.T) {
	census := []struct {
		options any
		fields  []string
	}{
		{serve.Options{}, []string{"Runner", "Concurrency", "QueueDepth", "QueueTimeout", "MaxSweepCells", "MaxN", "Fault"}},
		{core.RunnerOptions{}, []string{"Workers", "Store", "MaxCells", "OnStoreError"}},
		{serve.LoadGenOptions{}, []string{"Experiments", "Requests", "Clients", "ZipfS", "Seed", "Verify", "Retry429", "Retry"}},
		{serve.RetryPolicy{}, []string{"MaxAttempts", "BaseDelay", "MaxDelay", "Seed", "Sleep", "OnRetry"}},
		// The sweep body: the grid, and the cell's RunOptions on the wire.
		{serve.SweepRequest{}, []string{"Targets", "Workloads", "Pipelines", "Sizes", "Engine"}},
		// Not an option struct, but the same ratchet: what a target says of
		// its configuration interface is Port's, not three more fields here.
		{core.Target{}, []string{"Name", "Port", "PeakOps", "NewDevice", "Cost", "MatmulMKN", "MatmulTiling", "OutputBytes"}},
	}
	for _, c := range census {
		typ := reflect.TypeOf(c.options)
		var got []string
		for i := 0; i < typ.NumField(); i++ {
			got = append(got, typ.Field(i).Name)
		}
		if !reflect.DeepEqual(got, c.fields) {
			t.Errorf("%s has fields %v, the census has %v: give the new field a row (and a caller) in DESIGN.md §7, or drop it", typ, got, c.fields)
		}
	}
}
