package serve

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"

	"configwall/internal/core"
)

// FuzzSweepRequest drives the /v1/sweep request decoder — decodeBody, then
// SweepRequest.resolve, the one place a sweep is validated — with arbitrary
// bodies. It never panics, and a request it accepts expands to its full
// cross product, at most maxCells cells, every size in [1, maxN]. Seeded
// from serve_test.go's sweep bodies, including the retired "fidelity",
// "top_k", "skip_verify" and "record_trace" fields, which the decoder now
// rejects, and from one body per way resolve or the decoder refuses a grid.
// A body that carries "record_trace" is never accepted.
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
		`{"targets":["gemmini"],"workloads":["matmul"],"pipelines":["all"],"sizes":[16],"engine":"ref"}`,
		`{"targets":["gemmini"],"workloads":["matmul"],"pipelines":["all"],"sizes":[16],"engine":"ref","record_trace":true}`,
		`{"targets":["gemmini"],"workloads":["matmul"],"pipelines":["all"],"sizes":[16],"engine":"ref","record_trace":true,"skip_verify":true}`,
		`{"targets":[` + repeat(`"gemmini"`) + `],"workloads":[` + repeat(`"matmul"`) +
			`],"pipelines":[` + repeat(`"all"`) + `],"sizes":[` + repeat("16") + `]}`,
		`{}`,
		`{"targets":["tpu"],"workloads":["matmul"],"pipelines":["base"],"sizes":[8]}`,
		`{"targets":["opengemm"],"workloads":["conv"],"pipelines":["base"],"sizes":[8]}`,
		`{"targets":["opengemm"],"workloads":["matmul"],"pipelines":["turbo"],"sizes":[8]}`,
		`{"targets":["opengemm"],"workloads":["matmul"],"pipelines":["base"],"sizes":[0]}`,
		`{"targets":["opengemm"],"workloads":["matmul"],"pipelines":["base"],"sizes":[-8]}`,
		`{"targets":["opengemm"],"workloads":["matmul"],"pipelines":["base"],"sizes":[9223372036854775807]}`,
		`{"targets":["opengemm"],"workloads":["matmul"],"pipelines":["base"],"sizes":[8.5]}`,
		`{"targets":["opengemm"],"workloads":["matmul"],"pipelines":["base"],"sizes":[8],"engine":"warp"}`,
		`{"targets":["opengemm"],"workloads":["matmul"],"pipelines":["base"],"sizes":[8],"record_trace":"yes"}`,
		`{"targets":[],"workloads":["matmul"],"pipelines":["base"],"sizes":[8]}`,
		`{"targets":"opengemm","workloads":["matmul"],"pipelines":["base"],"sizes":[8]}`,
		`{"targets":["opengemm","gemmini"],"workloads":["matmul","rectmm","matvec"],"pipelines":["base","dedup","overlap","all"],"sizes":[16,32]}`,
		`null`,
	} {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body string) {
		const maxCells, maxN = 64, 128
		req := httptest.NewRequest(http.MethodPost, "/v1/sweep", strings.NewReader(body))
		var rq SweepRequest
		if err := decodeBody(httptest.NewRecorder(), req, &rq); err != nil {
			return
		}
		exps, _, err := rq.resolve(maxCells, maxN)
		if err != nil {
			return
		}
		if strings.Contains(body, `"record_trace"`) {
			t.Fatalf("accepted %q, which asks for a timeline", body)
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

// FuzzRunRequest drives the /v1/run request decoder — parseRunRequest, then
// RunRequest.resolve — with an arbitrary GET query and an arbitrary POST
// body. It never panics; a request it accepts names a registered target and
// workload and a size in [1, maxN]; and the fields of an accepted request,
// sent the other way (a GET's as a JSON body, a POST's as a query), resolve
// to the same (Experiment, RunOptions). A request that sends the retired
// trace option (GET "trace", POST "record_trace") is never accepted. Seeded
// from serve_test.go's run requests, including ones that send the retired
// trace and skip-verify fields both ways, which both decoders now reject.
func FuzzRunRequest(f *testing.F) {
	for _, seed := range [][2]string{
		{"target=opengemm&workload=matmul&pipeline=all&n=8", `{"target":"opengemm","workload":"matmul","pipeline":"all","n":8}`},
		{"target=opengemm&workload=matmul&pipeline=all&n=128", `{"target":"opengemm","workload":"matmul","pipeline":"all","n":128}`},
		{"target=gemmini&workload=rectmm&pipeline=dedup&n=32&engine=ref",
			`{"target":"gemmini","workload":"rectmm","pipeline":"dedup","n":32,"engine":"ref"}`},
		{"target=gemmini&workload=rectmm&pipeline=dedup&n=32&engine=ref&trace=true",
			`{"target":"gemmini","workload":"rectmm","pipeline":"dedup","n":32,"engine":"ref","record_trace":true}`},
		{"target=opengemm&workload=matmul&pipeline=all&n=8&trace=false",
			`{"target":"opengemm","workload":"matmul","pipeline":"all","n":8,"record_trace":false}`},
		{"target=gemmini&workload=rectmm&pipeline=dedup&n=32&engine=ref&trace=true&skipverify=1",
			`{"target":"gemmini","workload":"rectmm","pipeline":"dedup","n":32,"engine":"ref","record_trace":true,"skip_verify":true}`},
		{"target=opengemm&workload=panicky&pipeline=base&n=8", `{"target":"opengemm","workload":"panicky","pipeline":"base","n":8}`},
		{"target=tpu&workload=matmul&pipeline=all&n=8", `{"target":"tpu","workload":"matmul","pipeline":"all","n":8}`},
		{"workload=matmul&pipeline=all&n=8", `{"workload":"matmul","pipeline":"all","n":8}`},
		{"target=opengemm&workload=conv&pipeline=all&n=8", `{"target":"opengemm","workload":"conv","pipeline":"all","n":8}`},
		{"target=opengemm&workload=matmul&pipeline=turbo&n=8", `{"target":"opengemm","workload":"matmul","pipeline":"turbo","n":8}`},
		{"target=opengemm&workload=matmul&pipeline=all&n=8&engine=warp", `{"target":"opengemm","workload":"matmul","pipeline":"all","n":8,"engine":"warp"}`},
		{"target=opengemm&workload=matmul&pipeline=all&n=0", `{"target":"opengemm","workload":"matmul","pipeline":"all","n":0}`},
		{"target=opengemm&workload=matmul&pipeline=all&n=8&skip_verify=true", `{"target":"opengemm","workload":"matmul","pipeline":"all","n":8}{}`},
		{"", `{}`},
	} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, query, body string) {
		const maxN = 128
		get := &http.Request{Method: http.MethodGet, URL: &url.URL{Path: "/v1/run", RawQuery: query}}
		post := httptest.NewRequest(http.MethodPost, "/v1/run", strings.NewReader(body))
		for _, r := range []*http.Request{get, post} {
			rq, e, opts, err := resolveRun(r, maxN)
			if err != nil {
				continue
			}
			if r == get && get.URL.Query().Has("trace") || r == post && strings.Contains(body, `"record_trace"`) {
				t.Fatalf("%s %q %q accepted a request that asks for a timeline", r.Method, query, body)
			}
			if _, err := core.LookupTarget(e.Target); err != nil {
				t.Fatalf("%s %q %q accepted: %v", r.Method, query, body, err)
			}
			if _, err := core.LookupWorkload(e.Workload); err != nil {
				t.Fatalf("%s %q %q accepted: %v", r.Method, query, body, err)
			}
			if e.N < 1 || e.N > maxN {
				t.Fatalf("%s %q %q accepted size %d outside [1, %d]", r.Method, query, body, e.N, maxN)
			}
			other := sendOtherWay(t, r.Method, rq)
			_, e2, opts2, err := resolveRun(other, maxN)
			if err != nil || e2 != e || opts2 != opts {
				t.Fatalf("%s %q %q resolves to %v %+v, the same fields by %s to %v %+v (%v)", r.Method, query, body, e, opts, other.Method, e2, opts2, err)
			}
		}
	})
}

// resolveRun parses and resolves one /v1/run request as the handler does.
func resolveRun(r *http.Request, maxN int) (RunRequest, core.Experiment, core.RunOptions, error) {
	rq, err := parseRunRequest(httptest.NewRecorder(), r)
	if err != nil {
		return rq, core.Experiment{}, core.RunOptions{}, err
	}
	e, opts, err := rq.resolve(maxN)
	return rq, e, opts, err
}

// sendOtherWay spells rq's fields as the other method does: a GET's as a
// POST body, a POST's as a GET query.
func sendOtherWay(t *testing.T, method string, rq RunRequest) *http.Request {
	if method == http.MethodGet {
		body, err := json.Marshal(rq)
		if err != nil {
			t.Fatal(err)
		}
		return httptest.NewRequest(http.MethodPost, "/v1/run", strings.NewReader(string(body)))
	}
	q := url.Values{
		"target": {rq.Target}, "workload": {rq.Workload}, "pipeline": {rq.Pipeline},
		"n": {strconv.Itoa(rq.N)}, "engine": {rq.Engine},
	}
	return &http.Request{Method: http.MethodGet, URL: &url.URL{Path: "/v1/run", RawQuery: q.Encode()}}
}

// FuzzSweepStream drives the client's NDJSON reader (readSweepStream, what
// Client.Sweep runs on a 200 body) with arbitrary streams. It never panics,
// and a stream it accepts has exactly one trailer, with a status, as its
// last line, and fn ran exactly as many times as the trailer counts cells.
// Seeded from TestSweepRejectsTruncatedStreams's streams and a whole one.
func FuzzSweepStream(f *testing.F) {
	cell := `{"index":0,"experiment":{"target":"opengemm","workload":"matmul","pipeline":3,"n":8},"result":{}}`
	trailer := `{"done":true,"cells":1,"status":"ok"}`
	for _, stream := range []string{
		cell + "\n" + trailer + "\n",
		cell + "\n" + cell + "\n" + `{"done":true,"cells":2,"failed":1,"status":"error"}`,
		cell + "\n",
		cell + "\n" + `{"done":true,"cells":1}` + "\n",
		cell + "\n" + trailer + "\n" + cell + "\n",
		trailer + "\n",
		cell + "\n" + trailer[:12],
		"",
	} {
		f.Add(stream)
	}
	f.Fuzz(func(t *testing.T, stream string) {
		calls := 0
		sum, err := readSweepStream(strings.NewReader(stream), func(SweepEvent) error { calls++; return nil })
		if err != nil {
			return
		}
		var lines []string
		sc := bufio.NewScanner(strings.NewReader(stream))
		sc.Buffer(nil, 16<<20)
		for sc.Scan() {
			lines = append(lines, sc.Text())
		}
		trailers := 0
		for i, line := range lines {
			var ev SweepEvent
			if err := json.Unmarshal([]byte(line), &ev); err != nil {
				t.Fatalf("accepted %q with an undecodable line %d: %v", stream, i, err)
			}
			if ev.Done {
				trailers++
				if ev.Status == "" || i != len(lines)-1 {
					t.Fatalf("accepted %q with a trailer at line %d of %d, status %q", stream, i, len(lines), ev.Status)
				}
			}
		}
		if trailers != 1 || sum.Status == "" {
			t.Fatalf("accepted %q with %d trailers, status %q", stream, trailers, sum.Status)
		}
		if calls != sum.Cells {
			t.Fatalf("accepted %q: fn ran %d times for %d cells", stream, calls, sum.Cells)
		}
	})
}
