package core_test

import (
	"context"
	"reflect"
	"testing"

	"configwall/internal/core"
)

// flipRunOptionsField returns the zero RunOptions with field i alone set to
// a non-zero value. A field kind it cannot flip fails the test: whoever adds
// the field teaches the test, and so meets the rule it enforces.
func flipRunOptionsField(t *testing.T, i int) core.RunOptions {
	t.Helper()
	var opts core.RunOptions
	f := reflect.ValueOf(&opts).Elem().Field(i)
	switch f.Kind() {
	case reflect.Bool:
		f.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		f.SetInt(1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		f.SetUint(1)
	default:
		t.Fatalf("RunOptions.%s: no rule to flip a %s field", reflect.TypeOf(opts).Field(i).Name, f.Kind())
	}
	return opts
}

// TestRunOptionsIsTheCellName: RunOptions is, with the Experiment, the name
// of a cell, so every field — reflected, so a field added later is held to
// it too — must change the store fingerprint and select a different memo
// cell. (internal/serve holds the same fields to the wire.) A per-request
// knob that is not part of the name fails here instead of silently not
// keying, or not travelling. The field list is pinned too: a timeline is
// not part of a cell's name, so tracing is Compiled.Execute's parameter and
// no field here.
func TestRunOptionsIsTheCellName(t *testing.T) {
	e := core.Experiment{Target: "opengemm", Workload: core.WorkloadMatmul, Pipeline: core.Baseline, N: 8}
	var base core.RunOptions
	typ := reflect.TypeOf(base)
	var fields []string
	for i := 0; i < typ.NumField(); i++ {
		fields = append(fields, typ.Field(i).Name)
	}
	if want := []string{"Engine"}; !reflect.DeepEqual(fields, want) {
		t.Errorf("RunOptions has fields %v, want %v: give a new field a row in DESIGN.md §7's census", fields, want)
	}
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		flipped := flipRunOptionsField(t, i)
		if core.FingerprintKey(e, base) == core.FingerprintKey(e, flipped) {
			t.Errorf("RunOptions.%s does not change FingerprintKey: two cells would share a store entry", name)
		}
		r := core.NewRunner(1)
		if _, err := r.Run(context.Background(), e, flipped); err != nil {
			t.Fatalf("RunOptions.%s: %v", name, err)
		}
		if _, ok := r.Peek(e, flipped); !ok {
			t.Errorf("RunOptions.%s: Peek missed the cell Run memoized under the same options", name)
		}
		if _, ok := r.Peek(e, base); ok {
			t.Errorf("RunOptions.%s does not key the memo: the zero options were served its cell", name)
		}
	}
}
