// Command cwsim compiles one registered workload and runs it on the
// co-simulator, printing the measured counters, the roofline position and
// optionally the execution timeline or the generated assembly:
//
//	cwsim -target opengemm -pipeline all -n 64 -timeline
//	cwsim -target gemmini -workload rectmm -pipeline base -n 128 -asm
//	cwsim -target opengemm -n 256 -engine ref   # reference interpreter
//	cwsim -list
//
// Targets and workloads resolve through the experiment registry, so
// platforms registered by external code are addressable by name.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"configwall/internal/core"
	"configwall/internal/ir"
	"configwall/internal/sim"
	"configwall/internal/trace"
)

func main() {
	targetName := flag.String("target", "opengemm", "accelerator platform ("+strings.Join(core.TargetNames(), "|")+")")
	workloadName := flag.String("workload", core.WorkloadMatmul, "workload ("+strings.Join(core.WorkloadNames(), "|")+")")
	pipelineName := flag.String("pipeline", "all", "pipeline: base | dedup | overlap | all")
	engineName := flag.String("engine", sim.Engine(0).String(), "simulator engine ("+strings.Join(sim.EngineNames(), "|")+"); identical results, different speed")
	n := flag.Int("n", 64, "workload sweep size")
	timeline := flag.Bool("timeline", false, "print the execution timeline (Figure 7 style)")
	asm := flag.Bool("asm", false, "print the compiled host program")
	irDump := flag.Bool("ir", false, "print the optimized IR before codegen")
	stats := flag.Bool("stats", false, "print per-pass statistics")
	list := flag.Bool("list", false, "list registered targets and workloads")
	flag.Parse()

	if *list {
		fmt.Println("targets:")
		for _, name := range core.TargetNames() {
			t, _ := core.LookupTarget(name)
			fmt.Printf("  %-12s %s configuration, %g ops/cycle peak\n", name, t.Port.Mode, t.PeakOps)
		}
		fmt.Println("workloads:")
		for _, name := range core.WorkloadNames() {
			w, _ := core.LookupWorkload(name)
			fmt.Printf("  %-12s %s\n", name, w.Description)
		}
		return
	}

	target, err := core.LookupTarget(*targetName)
	if err != nil {
		fatal("%v", err)
	}
	wl, err := core.LookupWorkload(*workloadName)
	if err != nil {
		fatal("%v", err)
	}
	pipeline, err := core.PipelineByName(*pipelineName)
	if err != nil {
		fatal("%v", err)
	}
	engine, err := sim.EngineByName(*engineName)
	if err != nil {
		fatal("%v", err)
	}

	start := time.Now()
	cell, err := core.Compile(target, wl, pipeline, *n)
	compileWall := time.Since(start)
	if err != nil {
		fatal("%v", err)
	}
	if *asm || *irDump {
		// The cell that would run: same module, same layout, same program.
		if *irDump {
			fmt.Print(ir.PrintModule(cell.Module))
		}
		if *asm {
			fmt.Print(cell.Prog.Disassemble())
		}
		return
	}

	start = time.Now()
	res, err := cell.Execute(core.RunOptions{RecordTrace: *timeline, Engine: engine})
	executeWall := time.Since(start)
	if err != nil {
		fatal("%v", err)
	}
	fmt.Printf("target            %s (%s configuration)\n", res.Target, target.Port.Mode)
	fmt.Printf("workload          %s\n", res.Workload)
	fmt.Printf("pipeline          %s\n", res.Pipeline)
	fmt.Printf("engine            %s (compile %s, execute %s, %.2fM host instrs/sec of execute)\n",
		engine, compileWall.Round(time.Microsecond), executeWall.Round(time.Microsecond), float64(res.HostInstrs)/executeWall.Seconds()/1e6)
	fmt.Printf("sweep size        %d (ops = %d)\n", res.N, res.AccelOps)
	fmt.Printf("total cycles      %d\n", res.Cycles)
	fmt.Printf("performance       %.1f ops/cycle (%.1f%% of %g peak)\n", res.OpsPerCycle(), 100*res.Utilization(), res.PeakOps)
	fmt.Printf("host instructions %d (%d configuration writes)\n", res.HostInstrs, res.ConfigInstrs)
	fmt.Printf("config bytes      %d\n", res.ConfigBytes)
	fmt.Printf("I_OC              %.1f ops/byte\n", res.MeasuredIOC())
	fmt.Printf("BW_config (raw)   %.3f bytes/cycle\n", res.RawConfigBW())
	fmt.Printf("BW_config (eff.)  %.3f bytes/cycle\n", res.EffectiveConfigBW())
	fmt.Printf("Eq.3 attainable   %.1f ops/cycle\n", res.AttainableEq3())
	fmt.Printf("host stall cycles %d, accel busy cycles %d\n", res.StallCycles, res.AccelBusyCycles)
	fmt.Printf("verified          %v\n", res.Verified)
	if *stats {
		fmt.Println("\nper-pass statistics:")
		for _, line := range res.PassStats {
			fmt.Println("  " + line)
		}
	}
	if *timeline {
		fmt.Println()
		fmt.Print(trace.Timeline(res.Trace, 0, res.Cycles, 100)) // 100 characters wide
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "cwsim: "+format+"\n", args...)
	os.Exit(1)
}
