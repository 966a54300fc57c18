package configwall_test

import (
	"context"
	"net/http/httptest"
	"reflect"
	"testing"
	"testing/quick"

	"configwall"
)

func TestPublicAPIEndToEnd(t *testing.T) {
	target := configwall.OpenGeMMTarget()
	res, err := configwall.RunTiledMatmul(target, configwall.AllOptimizations, 32, configwall.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Error("run not verified")
	}
	if res.OpsPerCycle() <= 0 || res.Utilization() <= 0 || res.Utilization() > 1 {
		t.Errorf("implausible performance: %f ops/cycle, %f utilization", res.OpsPerCycle(), res.Utilization())
	}
}

// TestPublicStoreAPI drives the persistence surface end to end through the
// exported names: one runner fills a disk store, then a second runner on the
// same directory answers the sweep with zero recomputation and equal
// results.
func TestPublicStoreAPI(t *testing.T) {
	opts := configwall.RunOptions{}
	exps := configwall.SweepExperiments(
		[]string{"opengemm"}, []string{configwall.WorkloadMatmul},
		configwall.Pipelines, []int{8, 16})
	dir := t.TempDir()

	sweep := func() ([]configwall.Result, configwall.CacheStats) {
		t.Helper()
		st, err := configwall.OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		r := configwall.NewRunnerWith(configwall.RunnerOptions{Store: st})
		results, err := r.RunAll(context.Background(), exps, opts)
		if err != nil {
			t.Fatal(err)
		}
		return results, r.Snapshot()
	}

	fresh, stats := sweep()
	if int(stats.Runs) != len(exps) {
		t.Errorf("first sweep ran %d cells, want %d (%s)", stats.Runs, len(exps), stats)
	}
	stored, stats := sweep()
	if stats.Runs != 0 {
		t.Errorf("sweep over a filled store recomputed %d cells, want 0 (%s)", stats.Runs, stats)
	}
	if int(stats.StoreHits) != len(exps) {
		t.Errorf("StoreHits = %d, want %d", stats.StoreHits, len(exps))
	}
	for i := range exps {
		if fresh[i].Cycles == 0 {
			t.Errorf("result %d (%s) is empty", i, exps[i])
		}
		if !reflect.DeepEqual(stored[i], fresh[i]) {
			t.Errorf("result %d (%s): stored %+v, fresh %+v", i, exps[i], stored[i], fresh[i])
		}
	}
}

func TestPublicRooflineHelpers(t *testing.T) {
	// The paper's §4.6 numbers through the public API.
	util := configwall.Sequential(512, 16.0/9.0, 204.8) / 512
	if util < 0.41 || util > 0.42 {
		t.Errorf("Sequential utilization = %f, want ~0.4156", util)
	}
	if configwall.Concurrent(512, 2, 1e9) != 512 {
		t.Error("Concurrent must saturate at peak")
	}
	bw := configwall.EffectiveConfigBW(2560, 775*3, 160*3)
	if bw < 0.91 || bw > 0.92 {
		t.Errorf("EffectiveConfigBW = %f, want ~0.913", bw)
	}
	if g := configwall.Geomean([]float64{1, 4}); g != 2 {
		t.Errorf("Geomean = %f, want 2", g)
	}
}

// TestSemanticPreservationProperty is the repository-level safety property:
// for random (target, pipeline, size) triples, the compiled-and-simulated
// program always matches the golden CPU matmul. The verification runs
// inside RunTiledMatmul; an optimization bug surfaces as an error.
func TestSemanticPreservationProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("property test skipped in -short mode")
	}
	targets := []configwall.Target{configwall.GemminiTarget(), configwall.OpenGeMMTarget()}
	prop := func(targetSel, pipeSel, sizeSel uint8) bool {
		target := targets[int(targetSel)%2]
		pipeline := configwall.Pipelines[int(pipeSel)%len(configwall.Pipelines)]
		var n int
		if target.Name == "gemmini" {
			n = []int{16, 32, 48}[int(sizeSel)%3]
		} else {
			n = []int{8, 16, 24, 40}[int(sizeSel)%4]
		}
		res, err := configwall.RunTiledMatmul(target, pipeline, n, configwall.RunOptions{})
		if err != nil {
			t.Logf("%s/%s/%d: %v", target.Name, pipeline, n, err)
			return false
		}
		return res.Verified
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 24}); err != nil {
		t.Error(err)
	}
}

func TestPipelineEnumeration(t *testing.T) {
	if len(configwall.Pipelines) != 4 {
		t.Fatalf("Pipelines = %d entries, want 4", len(configwall.Pipelines))
	}
	names := map[string]bool{}
	for _, p := range configwall.Pipelines {
		names[p.String()] = true
	}
	for _, want := range []string{"base", "dedup", "overlap", "all"} {
		if !names[want] {
			t.Errorf("missing pipeline %q", want)
		}
	}
}

// TestPublicServeAPI drives the serving surface end to end through the
// exported names: boot a server over a runner, query it with the client,
// replay a short load-generation burst, and load back from the store.
func TestPublicServeAPI(t *testing.T) {
	dir := t.TempDir()
	st, err := configwall.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	runner := configwall.NewRunnerWith(configwall.RunnerOptions{Store: st})
	sv, err := configwall.NewServer(configwall.ServerOptions{Runner: runner})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(sv)
	defer func() { ts.Close(); sv.Close() }()

	c := configwall.NewServeClient(ts.URL)
	exps := configwall.SweepExperiments(
		[]string{"opengemm"}, []string{configwall.WorkloadMatmul},
		[]configwall.Pipeline{configwall.Baseline, configwall.AllOptimizations}, []int{8})
	rep, err := configwall.LoadGen(context.Background(), c, configwall.LoadGenOptions{
		Experiments: exps, Requests: 200, Clients: 4, Verify: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 || rep.Mismatched != 0 {
		t.Fatalf("loadgen: %d errors, %d mismatches\n%s", rep.Errors, rep.Mismatched, rep)
	}
	if stats := runner.Snapshot(); stats.Runs != uint64(rep.Distinct) {
		t.Errorf("Runs = %d for %d distinct cells", stats.Runs, rep.Distinct)
	}

	// Every cell the server simulated is in the store behind it, and loads
	// back through the public API.
	stored := 0
	for _, e := range exps {
		if _, ok, err := st.Load(e, configwall.RunOptions{}); err != nil {
			t.Fatal(err)
		} else if ok {
			stored++
		}
	}
	if stored != rep.Distinct {
		t.Errorf("store holds %d of the cells, want %d (one per distinct cell)", stored, rep.Distinct)
	}
}
