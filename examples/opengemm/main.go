// OpenGeMM case study (paper §6.2): measure the tiled matmul on the
// concurrently-configured OpenGeMM-style platform under all four pipeline
// variants (base / dedup / overlap / all) and show the timelines that
// explain the speedup (paper Figures 7 and 12).
//
//	go run ./examples/opengemm
package main

import (
	"fmt"

	"configwall"
	"configwall/internal/core"
	"configwall/internal/trace"
)

func main() {
	target := configwall.OpenGeMMTarget()
	matmul, err := configwall.LookupWorkload(configwall.WorkloadMatmul)
	if err != nil {
		panic(err)
	}
	n := 64
	fmt.Println("OpenGeMM-style platform: 1024 ops/cycle peak, concurrent configuration")
	fmt.Printf("(staged CSR writes). Tiled %dx%d matmul, 8-by-K-by-8 tiles.\n\n", n, n)

	fmt.Printf("%-9s %12s %14s %10s %12s\n", "pipeline", "cycles", "ops/cycle", "% of peak", "config B")
	var results []configwall.Result
	for _, p := range configwall.Pipelines {
		cell, err := core.Compile(target, matmul, p, n)
		if err != nil {
			panic(err)
		}
		r, err := cell.Execute(configwall.RunOptions{}, true)
		if err != nil {
			panic(err)
		}
		results = append(results, r)
		fmt.Printf("%-9s %12d %14.1f %9.1f%% %12d\n",
			p, r.Cycles, r.OpsPerCycle(), 100*r.Utilization(), r.ConfigBytes)
	}
	base, full := results[0], results[len(results)-1]
	fmt.Printf("\nspeedup base -> all optimizations: %.2fx\n\n", full.OpsPerCycle()/base.OpsPerCycle())

	fmt.Println("baseline timeline (configuration serializes with compute):")
	fmt.Print(trace.Timeline(base.Trace, 0, base.Cycles/4, 100))
	fmt.Println("\noptimized timeline (configuration hidden under accelerator busy):")
	fmt.Print(trace.Timeline(full.Trace, 0, full.Cycles/4, 100))
	fmt.Printf("\noverlapped host cycles: baseline %d vs optimized %d\n",
		trace.OverlapCycles(base.Trace), trace.OverlapCycles(full.Trace))
}
