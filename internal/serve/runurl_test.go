package serve

import (
	"net/url"
	"strconv"
	"testing"

	"configwall/internal/core"
	"configwall/internal/sim"
)

// encodeRunURL builds the /v1/run URL through url.Values.Encode: the
// reference Client.runURL is held to, byte for byte.
func encodeRunURL(base string, e core.Experiment, opts core.RunOptions) string {
	q := url.Values{}
	q.Set("target", e.Target)
	q.Set("workload", e.Workload)
	q.Set("pipeline", e.Pipeline.String())
	q.Set("n", strconv.Itoa(e.N))
	if opts.Engine != 0 {
		q.Set("engine", opts.Engine.String())
	}
	return base + "/v1/run?" + q.Encode()
}

// TestRunURLMatchesValuesEncode holds the hand-written query byte-identical
// to url.Values.Encode: for every built-in target, workload and pipeline,
// for every non-zero option, and for names and sizes that need escaping or
// a sign.
func TestRunURLMatchesValuesEncode(t *testing.T) {
	c := NewClient("http://127.0.0.1:8080")
	var cells []core.Experiment
	for _, tn := range core.TargetNames() {
		for _, wn := range core.WorkloadNames() {
			for _, p := range core.Pipelines {
				cells = append(cells, core.Experiment{Target: tn, Workload: wn, Pipeline: p, N: 64})
			}
		}
	}
	for _, n := range []int{0, 7, 512, 1 << 40, -3} {
		cells = append(cells, core.Experiment{Target: "opengemm", Workload: core.WorkloadMatmul, Pipeline: core.DedupOnly, N: n})
	}
	for _, name := range []string{"", "a b", "x&y=z", "50%+1", "ü/?#", "tab\there"} {
		cells = append(cells,
			core.Experiment{Target: name, Workload: core.WorkloadMatmul, Pipeline: core.Baseline, N: 16},
			core.Experiment{Target: "gemmini", Workload: name, Pipeline: core.OverlapOnly, N: 16})
	}
	var optss []core.RunOptions
	for _, eng := range sim.Engines {
		optss = append(optss, core.RunOptions{Engine: eng})
	}
	for _, e := range cells {
		for _, opts := range optss {
			if got, want := c.runURL(e, opts), encodeRunURL(c.Base, e, opts); got != want {
				t.Errorf("runURL(%+v, %+v)\n got %s\nwant %s", e, opts, got, want)
			}
		}
	}
}
