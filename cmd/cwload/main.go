// Command cwload is the serving benchmark client: it replays a
// zipf-skewed experiment request mix against a running cwserve daemon —
// the traffic shape of configuration-search clients, which hammer the hot
// cells of the measurement cache with heavily overlapping queries — and
// reports throughput and latency percentiles.
//
//	cwload -url http://127.0.0.1:8080 -n 10000 -clients 32
//	cwload -url http://127.0.0.1:8080 -targets opengemm -pipelines base,all -sizes 16,32
//	cwload -url http://127.0.0.1:8080 -n 2000 -out loadgen-report.txt
//
// The universe of distinct cells is the cross product of -targets,
// -workloads, -pipelines and -sizes (targets default to every target the
// server registers, fetched from /v1/registry). With -verify (the
// default) every repeated response is checked byte-identical to the first
// response for its cell — the memoized simulator is deterministic, so any
// difference is a serving bug. Exit status is non-zero on any transport
// error, non-200 response or byte-identity mismatch.
//
// Workers behave like well-behaved configuration-search clients under
// backpressure: a 429 response is not an error — the worker waits as the
// client's retry policy says (the server's Retry-After hint under the
// policy's cap, serve.RetryPolicy's defaults) and re-sends. The latency
// summary reports how many backpressure retries the run absorbed; only
// requests still failing after the retries count as errors. The
// /v1/registry fetch heals through the same policy.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"configwall/internal/core"
	"configwall/internal/serve"
	"configwall/internal/sim"
)

func main() {
	url := flag.String("url", "http://127.0.0.1:8080", "base URL of the cwserve daemon")
	n := flag.Int("n", 10000, "total requests")
	clients := flag.Int("clients", 32, "concurrent client workers")
	targets := flag.String("targets", "", "comma-separated target mix (empty = every target from /v1/registry)")
	workloads := flag.String("workloads", core.WorkloadMatmul, "comma-separated workload mix")
	pipelines := flag.String("pipelines", "base,all", "comma-separated pipeline mix")
	sizes := flag.String("sizes", "16,32", "comma-separated size mix")
	engineName := flag.String("engine", sim.Engine(0).String(), "simulator engine ("+strings.Join(sim.EngineNames(), "|")+")")
	zipfS := flag.Float64("zipf", 1.4, "zipf skew parameter (> 1; larger = hotter hot set)")
	seed := flag.Int64("seed", 1, "request-mix seed")
	verify := flag.Bool("verify", true, "assert responses for one cell are byte-identical")
	out := flag.String("out", "", "also write the report to this file")
	flag.Parse()

	engine, err := sim.EngineByName(*engineName)
	if err != nil {
		fatal("%v", err)
	}

	ctx := context.Background()
	client := serve.NewClient(*url)

	targetList := splitCSV(*targets)
	if len(targetList) == 0 {
		info, err := client.Registry(ctx, serve.RetryPolicy{})
		if err != nil {
			fatal("fetching /v1/registry from %s: %v", *url, err)
		}
		targetList = info.Targets
	}
	pipeNames := splitCSV(*pipelines)
	pipes := make([]core.Pipeline, len(pipeNames))
	for i, pn := range pipeNames {
		if pipes[i], err = core.PipelineByName(pn); err != nil {
			fatal("%v", err)
		}
	}
	sizeList, err := parseInts(*sizes)
	if err != nil {
		fatal("bad -sizes: %v", err)
	}

	exps := core.Sweep(targetList, splitCSV(*workloads), pipes, sizeList)
	if len(exps) == 0 {
		fatal("empty experiment universe")
	}

	fmt.Printf("cwload: %d requests, %d clients, %d-cell universe, zipf s=%g seed=%d against %s\n",
		*n, *clients, len(exps), *zipfS, *seed, *url)
	rep, err := serve.LoadGen(ctx, client, serve.LoadGenOptions{
		Experiments: exps,
		Options:     core.RunOptions{Engine: engine},
		Requests:    *n,
		Clients:     *clients,
		ZipfS:       *zipfS,
		Seed:        *seed,
		Verify:      *verify,
		Retry429:    true,
	})
	if err != nil {
		fatal("%v", err)
	}
	fmt.Print(rep.String())
	if *out != "" {
		if err := os.WriteFile(*out, []byte(rep.String()), 0o644); err != nil {
			fatal("writing %s: %v", *out, err)
		}
	}
	if rep.Errors > 0 || rep.Mismatched > 0 {
		fatal("FAIL: %d errors, %d byte-identity mismatches", rep.Errors, rep.Mismatched)
	}
}

func splitCSV(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range splitCSV(s) {
		v, err := strconv.Atoi(part)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "cwload: "+format+"\n", args...)
	os.Exit(1)
}
