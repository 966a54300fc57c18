package main

// Fail-fast UX tests: unknown -strategy/-target/-workload values must be
// rejected with the full list of valid names (the cwsim -engine /
// cwopt -p convention), so a misconfigured campaign dies before it spends
// a single simulation.

import (
	"strings"
	"testing"

	"configwall/internal/serve"
	"configwall/internal/tune"
)

// testInfo is a registry response like an in-process daemon's.
var testInfo = serve.RegistryInfo{
	Targets:   []string{"gemmini", "opengemm"},
	Workloads: []string{"matmul", "matvec", "rectmm"},
	Pipelines: []string{"base", "dedup", "overlap", "all"},
	Engines:   []string{"ref", "fast"},
	MaxN:      1024,
	Sizes: map[string]map[string][]int{
		"matmul": {"gemmini": {16, 32, 48, 64}, "opengemm": {8, 16, 24, 32, 48, 64}},
		"matvec": {"gemmini": {16, 32, 48, 64}, "opengemm": {8, 16, 24, 32, 48, 64}},
		"rectmm": {"gemmini": {32, 64}, "opengemm": {16, 32, 48, 64}},
	},
}

func TestResolveStrategiesUnknownListsValidNames(t *testing.T) {
	_, err := resolveStrategies("random,gradient")
	if err == nil {
		t.Fatal("resolveStrategies accepted an unknown strategy")
	}
	for _, name := range tune.StrategyNames() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list valid strategy %q", err, name)
		}
	}
	if _, err := resolveStrategies(""); err == nil {
		t.Error("resolveStrategies accepted an empty list")
	}
}

func TestBuildSpaceUnknownTargetListsValidNames(t *testing.T) {
	_, err := buildSpace(testInfo, "tpu", "", "", 0, 1)
	if err == nil {
		t.Fatal("buildSpace accepted an unknown target")
	}
	for _, name := range testInfo.Targets {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list valid target %q", err, name)
		}
	}
}

func TestBuildSpaceUnknownWorkloadListsValidNames(t *testing.T) {
	_, err := buildSpace(testInfo, "", "conv2d", "", 0, 1)
	if err == nil {
		t.Fatal("buildSpace accepted an unknown workload")
	}
	for _, name := range testInfo.Workloads {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list valid workload %q", err, name)
		}
	}
}

func TestBuildSpaceUnknownPipelineListsValidNames(t *testing.T) {
	_, err := buildSpace(testInfo, "", "", "hoist", 0, 1)
	if err == nil {
		t.Fatal("buildSpace accepted an unknown pipeline")
	}
	for _, name := range testInfo.Pipelines {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list valid pipeline %q", err, name)
		}
	}
}

func TestBuildSpaceValid(t *testing.T) {
	sp, err := buildSpace(testInfo, "opengemm", "matmul", "base,all", 32, 1)
	if err != nil {
		t.Fatal(err)
	}
	total := len(sp.Cells) + len(sp.Holdout)
	// opengemm matmul sizes ≤ 32: {8,16,24,32} × 2 pipelines.
	if total != 8 {
		t.Fatalf("space has %d cells, want 8", total)
	}
	for _, e := range sp.Cells {
		if e.Target != "opengemm" || e.Workload != "matmul" || e.N > 32 {
			t.Errorf("unexpected cell %s", e)
		}
	}
}
