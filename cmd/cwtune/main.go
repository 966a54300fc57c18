// Command cwtune is the configuration-search client: it discovers the
// (target × workload × pipeline × size) space from a cwserve daemon's
// /v1/registry, runs a seeded campaign of pluggable search strategies
// under equal simulation budgets, and prints the deterministic comparison
// report — sims-to-best-config per strategy against an exhaustive-sweep
// ground truth, plus held-out validation of each winner (DESIGN.md §12).
//
//	cwtune -url http://127.0.0.1:8080 -seed 1 -budget 16
//	cwtune -target opengemm -max-size 64 -cache-dir .cwtune
//
// Without -url, cwtune boots an in-process daemon (loopback listener,
// optional persistent store) and, when the flash strategy is requested,
// calibrates the analytic surrogate at boot exactly like cwserve
// -analytic. All traffic — the /v1/registry fetch and every measurement,
// including the in-process mode — goes through the serve.Client
// retry/resume layer, so backpressure and transient faults are absorbed,
// and concurrent tuners sharing a daemon coalesce onto one simulation per
// distinct cell. Every winner is re-measured at the held-out sizes.
//
// The report on stdout is a pure function of (registry, seed, budget,
// flags): rerunning with equal inputs yields byte-identical output.
// Wall-clock timings and progress go to stderr only.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"strings"
	"time"

	"configwall/internal/analytic"
	"configwall/internal/core"
	"configwall/internal/serve"
	"configwall/internal/sim"
	"configwall/internal/store"
	"configwall/internal/tune"
)

func main() {
	url := flag.String("url", "", "cwserve base URL (empty = boot an in-process daemon)")
	seed := flag.Int64("seed", 1, "campaign seed: search randomness, the holdout split and retry jitter all derive from it")
	budget := flag.Int("budget", 0, "per-strategy simulation budget in distinct cells (0 = the full space)")
	strategyFlag := flag.String("strategy", "random,halving,flash", "comma-separated strategies to compare ("+strings.Join(tune.StrategyNames(), "|")+")")
	targetFlag := flag.String("target", "", "comma-separated target filter (empty = all registered)")
	workloadFlag := flag.String("workload", "", "comma-separated workload filter (empty = all registered)")
	pipelineFlag := flag.String("pipeline", "", "comma-separated pipeline filter (empty = all)")
	maxSize := flag.Int("max-size", 0, "drop cells with sweep size above this (0 = the registry's cap)")
	engine := flag.String("engine", sim.Engine(0).String(), "simulator engine ("+strings.Join(sim.EngineNames(), "|")+")")
	cacheDir := flag.String("cache-dir", "", "persistent store for the in-process daemon (ignored with -url)")
	flag.Parse()

	strategies, err := resolveStrategies(*strategyFlag)
	if err != nil {
		fatal("%v", err)
	}
	var opts core.RunOptions
	if opts.Engine, err = sim.EngineByName(*engine); err != nil {
		fatal("%v", err)
	}

	ctx := context.Background()
	var client *serve.Client
	if *url != "" {
		client = serve.NewClient(*url)
	} else {
		var shutdown func()
		if client, shutdown, err = bootDaemon(*cacheDir, needsAnalytic(strategies), *seed); err != nil {
			fatal("%v", err)
		}
		defer shutdown()
	}

	retry := serve.RetryPolicy{Seed: *seed}
	info, err := client.Registry(ctx, retry)
	if err != nil {
		fatal("registry: %v", err)
	}
	if needsAnalytic(strategies) && !info.Analytic {
		fatal("the flash strategy screens through the daemon's analytic tier, but %s has none (boot cwserve with -analytic)", client.Base)
	}
	space, err := buildSpace(info, *targetFlag, *workloadFlag, *pipelineFlag, *maxSize, *seed)
	if err != nil {
		fatal("%v", err)
	}
	logf("space: %d searchable cells, %d held out (sizes %v)", len(space.Cells), len(space.Holdout), space.HoldoutSizes)

	rep, err := tune.Run(ctx, tune.Config{
		Space:      space,
		Eval:       &tune.ClientEvaluator{Client: client, Retry: retry, Opts: opts},
		Strategies: strategies,
		Budget:     *budget,
		Seed:       *seed,
	})
	if err != nil {
		fatal("%v", err)
	}
	fmt.Print(rep.String())
	logf("%s", rep.WallSummary())
}

// resolveStrategies validates the -strategy list, failing fast with the
// full list of valid names on an unknown entry.
func resolveStrategies(csv string) ([]string, error) {
	names := splitList(csv)
	if len(names) == 0 {
		return nil, fmt.Errorf("no strategies requested (valid strategies: %s)", strings.Join(tune.StrategyNames(), ", "))
	}
	for _, n := range names {
		if _, err := tune.StrategyByName(n); err != nil {
			return nil, err
		}
	}
	return names, nil
}

// buildSpace turns the flag filters and the daemon's registry into the
// search space; unknown -target/-workload/-pipeline names fail fast with
// the registry's full valid list.
func buildSpace(info serve.RegistryInfo, targets, workloads, pipelines string, maxSize int, seed int64) (tune.Space, error) {
	return tune.SpaceFromRegistry(info, tune.Filters{
		Targets:   splitList(targets),
		Workloads: splitList(workloads),
		Pipelines: splitList(pipelines),
		MaxSize:   maxSize,
	}, seed)
}

// splitList splits a comma-separated flag value, dropping empty entries.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// needsAnalytic reports whether any requested strategy screens through
// the daemon's analytic surrogate.
func needsAnalytic(strategies []string) bool {
	for _, n := range strategies {
		if n == "flash" {
			return true
		}
	}
	return false
}

// bootDaemon starts the in-process serving daemon on a loopback listener:
// a store-backed runner (calibration and campaign cells persist across
// reruns with -cache-dir), the analytic tier when a strategy needs it,
// and the full serve.Server stack — so even a single-process tune goes
// through admission, coalescing and the retry client like production
// traffic. It returns a client for the daemon and a shutdown func.
func bootDaemon(cacheDir string, analyticTier bool, seed int64) (*serve.Client, func(), error) {
	ropts := core.RunnerOptions{}
	ropts.OnStoreError = func(op string, e core.Experiment, err error) {
		logf("store %s failed for %s (results non-durable): %v", op, e, err)
	}
	var st *store.DiskStore
	if cacheDir != "" {
		var err error
		if st, err = store.Open(cacheDir); err != nil {
			return nil, nil, err
		}
		ropts.Store = st
	}
	runner := core.NewRunnerWith(ropts)

	if analyticTier {
		logf("calibrating analytic surrogate (seed %d)", seed)
		if _, err := analytic.Attach(context.Background(), runner, seed); err != nil {
			return nil, nil, err
		}
	}

	sv, err := serve.New(serve.Options{Runner: runner})
	if err != nil {
		return nil, nil, err
	}
	if st != nil {
		warmed, err := sv.WarmFromStore(context.Background(), st)
		if err != nil {
			return nil, nil, fmt.Errorf("warming from %s: %w", cacheDir, err)
		}
		logf("warmed %d cells from %s", warmed, cacheDir)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	drain := sv.Serve(ln)
	shutdown := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		drain(ctx)
	}
	return serve.NewClient("http://" + ln.Addr().String()), shutdown, nil
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "cwtune: "+format+"\n", args...)
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "cwtune: "+format+"\n", args...)
	os.Exit(1)
}
