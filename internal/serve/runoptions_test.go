package serve

import (
	"net/http/httptest"
	"reflect"
	"testing"

	"configwall/internal/core"
)

// TestRunOptionsTravelTheWire is the wire half of core's
// TestRunOptionsIsTheCellName: for every field of core.RunOptions —
// reflected, so a field added later is held to it too — flipping it alone
// must change the URL Client.runURL builds, and that URL must parse and
// resolve on the server back to the same RunOptions. A field without a
// query parameter and a RunRequest field would name one cell on the client
// and another on the daemon.
func TestRunOptionsTravelTheWire(t *testing.T) {
	c := NewClient("http://daemon")
	e := core.Experiment{Target: "opengemm", Workload: core.WorkloadMatmul, Pipeline: core.AllOptimizations, N: 8}
	var base core.RunOptions
	typ := reflect.TypeOf(base)
	for i := -1; i < typ.NumField(); i++ {
		name, opts := "(zero value)", base
		if i >= 0 {
			name = typ.Field(i).Name
			f := reflect.ValueOf(&opts).Elem().Field(i)
			switch f.Kind() {
			case reflect.Bool:
				f.SetBool(true)
			case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
				f.SetInt(1)
			case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
				f.SetUint(1)
			default:
				t.Fatalf("RunOptions.%s: no rule to flip a %s field", name, f.Kind())
			}
			if c.runURL(e, opts) == c.runURL(e, base) {
				t.Errorf("RunOptions.%s does not change Client.runURL: the daemon cannot see it", name)
			}
		}
		rq, err := parseRunRequest(httptest.NewRecorder(), httptest.NewRequest("GET", c.runURL(e, opts), nil))
		if err != nil {
			t.Fatalf("RunOptions.%s: the server cannot parse the client's URL: %v", name, err)
		}
		gotExp, gotOpts, err := rq.resolve(defaultMaxN)
		if err != nil {
			t.Fatalf("RunOptions.%s: the server rejects the client's request: %v", name, err)
		}
		if gotExp != e || gotOpts != opts {
			t.Errorf("RunOptions.%s: sent %v %+v, the server resolved %v %+v", name, e, opts, gotExp, gotOpts)
		}
	}
}
