package serve

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// FuzzSweepRequest drives the /v1/sweep request decoder — decodeBody, then
// SweepRequest.resolve, the one place a sweep is validated — with arbitrary
// bodies, with and without an analytic model installed. It never panics,
// and a request it accepts expands to its full cross product, at most
// maxCells cells, every size in [1, maxN]. Seeded from serve_test.go's
// sweep bodies.
func FuzzSweepRequest(f *testing.F) {
	repeat := func(v string) string { return strings.TrimSuffix(strings.Repeat(v+",", 40), ",") }
	for _, body := range []string{
		`{"targets":["opengemm"],"workloads":["matmul"],"pipelines":["base","all"],"sizes":[8,16]}`,
		`{"targets":["opengemm"],"workloads":["matmul"],"pipelines":["base"],"sizes":[8]}`,
		`{"targets":["opengemm"],"workloads":["matmul"],"pipelines":["base","all"],"sizes":[8,12]}`,
		`{"targets":["opengemm"],"workloads":["matmul"],"pipelines":["base"],"sizes":[128]}`,
		`{"targets":["opengemm"],"workloads":["matmul"],"pipelines":["base"],"sizes":[8],"fidelity":"screen"}`,
		`{"targets":["opengemm"],"workloads":["matmul"],"pipelines":["base","all"],"sizes":[8,16],"fidelity":"topk","top_k":2}`,
		`{"targets":["opengemm"],"workloads":["matmul"],"pipelines":["base"],"sizes":[8],"fidelity":"warp9"}`,
		`{"targets":["opengemm"],"workloads":["matmul"],"pipelines":["base"],"sizes":[8],"top_k":3}`,
		`{"targets":["opengemm"],"workloads":["matmul"],"pipelines":["base"],"sizes":[8],"stream":false}`,
		`{"targets":["opengemm"],"workloads":["matmul"],"pipelines":["base"],"sizes":[8]}{}`,
		`{"targets":["gemmini"],"workloads":["matmul"],"pipelines":["all"],"sizes":[16],"engine":"ref","record_trace":true,"skip_verify":true}`,
		`{"targets":[` + repeat(`"gemmini"`) + `],"workloads":[` + repeat(`"matmul"`) +
			`],"pipelines":[` + repeat(`"all"`) + `],"sizes":[` + repeat("16") + `]}`,
		`{}`,
	} {
		f.Add(body, false)
		f.Add(body, true)
	}
	f.Fuzz(func(t *testing.T, body string, analytic bool) {
		const maxCells, maxN = 64, 128
		req := httptest.NewRequest(http.MethodPost, "/v1/sweep", strings.NewReader(body))
		var rq SweepRequest
		if err := decodeBody(httptest.NewRecorder(), req, &rq); err != nil {
			return
		}
		exps, _, err := rq.resolve(maxCells, maxN, analytic)
		if err != nil {
			return
		}
		if want := len(rq.Targets) * len(rq.Workloads) * len(rq.Pipelines) * len(rq.Sizes); len(exps) != want {
			t.Fatalf("accepted %q expands to %d cells, want the %d of its cross product", body, len(exps), want)
		}
		if len(exps) > maxCells {
			t.Fatalf("accepted %q expands to %d cells, above the cap of %d", body, len(exps), maxCells)
		}
		for _, e := range exps {
			if e.N < 1 || e.N > maxN {
				t.Fatalf("accepted %q has size %d outside [1, %d]", body, e.N, maxN)
			}
		}
	})
}
