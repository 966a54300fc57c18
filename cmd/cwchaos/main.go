// Command cwchaos is the seeded chaos-campaign driver: it boots an
// in-process cwserve daemon over a fault-injected store and transport,
// replays a deterministic request mix through the self-healing client
// while panics, resets, timeouts, truncations and store failures fire on
// schedule, and asserts the robustness invariants of DESIGN.md §11:
//
//   - byte-identity: every eventually-successful response is
//     byte-identical to a fault-free run's response for that cell;
//   - no duplicate simulations: the runner simulated each distinct cell
//     exactly once, no matter how many faults and retries surrounded it;
//   - degraded, never broken: store failures cost durability (/healthz
//     reports "degraded", the error counters advance) but never fail a
//     request, and every tolerated store error is accounted for;
//   - reboot-safe: a fresh daemon loads on demand whatever the faulted
//     store managed to persist — torn entries degrade to misses — and
//     still answers every cell byte-identically;
//   - no leaks: recovered panics leak no admission slots, no in-flight
//     cells and no goroutines.
//
// Cells, sweeps and the /healthz and /metrics probes all cross the faulty
// transport under one serve.RetryPolicy. The whole campaign derives from
// -seed: the fault schedule, the zipf request mix and the retry jitter.
// The report on stdout is byte-identical across same-seed reruns
// (wall-clock timings go to stderr), so CI runs a campaign twice and diffs
// the two reports. Exit status is non-zero if any invariant is violated.
//
//	cwchaos -seed 1
//	cwchaos -seed 7 -n 5000 -sweeps 3
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"configwall/internal/core"
	"configwall/internal/fault"
	"configwall/internal/serve"
	"configwall/internal/store"
)

func main() {
	seed := flag.Int64("seed", 1, "campaign seed: fault schedule, request mix and retry jitter all derive from it")
	n := flag.Int("n", 1200, "zipf-mixed requests after the one-per-cell coverage pass")
	sweeps := flag.Int("sweeps", 2, "streaming sweeps (the first is cut mid-stream to force a resume)")
	flag.Parse()
	os.Exit(run(*seed, *n, *sweeps))
}

// campaign accumulates the deterministic report and the violations.
type campaign struct {
	report     strings.Builder
	violations []string
}

func (c *campaign) reportf(format string, args ...any) {
	fmt.Fprintf(&c.report, "cwchaos: "+format+"\n", args...)
}

func (c *campaign) violate(format string, args ...any) {
	c.violations = append(c.violations, fmt.Sprintf(format, args...))
}

func run(seed int64, n, sweeps int) int {
	ctx := context.Background()
	c := &campaign{}
	start := time.Now()

	// The experiment universe doubles as the sweep grid, so "no duplicate
	// simulations" has one exact expectation: Runs == len(universe).
	targets := []string{"opengemm"}
	workloads := []string{core.WorkloadMatmul}
	pipeNames := []string{"base", "all"}
	sizes := []int{8, 16, 24, 32}
	pipes := make([]core.Pipeline, len(pipeNames))
	for i, name := range pipeNames {
		var err error
		if pipes[i], err = core.PipelineByName(name); err != nil {
			fatal("%v", err)
		}
	}
	universe := core.Sweep(targets, workloads, pipes, sizes)
	var opts core.RunOptions

	// Fault-free reference bodies, computed on a private runner before any
	// fault plan exists.
	canonical, err := serve.CanonicalBodies(ctx, universe, opts)
	if err != nil {
		fatal("computing canonical bodies: %v", err)
	}
	logf("canonical bodies for %d cells in %v", len(universe), time.Since(start).Round(time.Millisecond))

	// Goroutine baseline: everything started after this point must be gone
	// by the end of the campaign.
	runtime.GC()
	goroutines0 := runtime.NumGoroutine()

	// The fault schedule. Store and serve sites see few passages (one
	// load/save per distinct cell, one run per computation), so their
	// rates are high; transport sites see every one of the thousands of
	// client attempts, so their rates are low and their budgets capped.
	plan := fault.New(seed, map[fault.Site]fault.Rule{
		fault.StoreSaveFail:        {Rate: 0.5, Max: 3},
		fault.StoreSaveTorn:        {Rate: 0.5, Max: 2},
		fault.StoreLoadErr:         {Rate: 0.5, Max: 3},
		fault.StoreLoadSlow:        {Rate: 0.5, Max: 3, Delay: 2 * time.Millisecond},
		fault.TransportReset:       {Rate: 0.01, Max: 6},
		fault.TransportTimeout:     {Rate: 0.01, Max: 4},
		fault.TransportUnavailable: {Rate: 0.01, Max: 4},
		fault.TransportTruncate:    {Rate: 0.01, Max: 6},
		fault.ServeHandlerPanic:    {Rate: 0.005, Max: 3},
		fault.ServeRunPanic:        {Rate: 1, Max: 2},
	})
	// The sweep phase gets its own transport plan with a deterministic
	// first-stream cut and a reset on the first resume, so the resume path
	// is exercised on every campaign regardless of the main plan's budget.
	sweepPlan := fault.New(seed+1, map[fault.Site]fault.Rule{
		fault.TransportTruncate: {Rate: 1, Max: 1},
		fault.TransportReset:    {Rate: 1, After: 1, Max: 1},
	})

	dir, err := os.MkdirTemp("", "cwchaos-*")
	if err != nil {
		fatal("%v", err)
	}
	defer os.RemoveAll(dir)
	disk, err := store.Open(dir)
	if err != nil {
		fatal("%v", err)
	}

	// One worker, one slot, one sequential client: every fault site's
	// passage order is deterministic, so the decision streams replay
	// exactly on a same-seed rerun.
	runner := core.NewRunnerWith(core.RunnerOptions{
		Workers: 1,
		Store:   &fault.Store{Inner: disk, Disk: disk, Plan: plan},
	})
	sv, err := serve.New(serve.Options{Runner: runner, Concurrency: 1, Fault: plan})
	if err != nil {
		fatal("%v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fatal("%v", err)
	}
	drain := sv.Serve(ln)
	base := "http://" + ln.Addr().String()
	logf("daemon on %s, store in %s", base, dir)

	client := serve.NewClient(base)
	client.HTTPClient = &http.Client{
		Transport: &fault.Transport{Base: http.DefaultTransport, Plan: plan, RetryAfter: 1},
	}
	requestRetries := 0
	pol := serve.RetryPolicy{
		MaxAttempts: 8,
		BaseDelay:   time.Millisecond,
		MaxDelay:    25 * time.Millisecond,
		Seed:        seed,
		OnRetry:     func(int, time.Duration, error) { requestRetries++ },
	}

	// Phase 1 — requests: a coverage pass (every cell once, so the sweeps
	// later replay from memory) then the zipf-skewed mix, every response
	// checked byte-identical to the fault-free reference.
	phaseStart := time.Now()
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.4, 1, uint64(len(universe)-1))
	seq := make([]int, 0, len(universe)+n)
	for i := range universe {
		seq = append(seq, i)
	}
	for i := 0; i < n; i++ {
		seq = append(seq, int(zipf.Uint64()))
	}
	identical := 0
	for i, cell := range seq {
		e := universe[cell]
		body, err := client.RunRawWithRetry(ctx, e, opts, pol)
		if err != nil {
			c.violate("request %d (%s) failed through all retries: %v", i, e, err)
			continue
		}
		if string(body) != string(canonical[core.FingerprintKey(e, opts)]) {
			c.violate("request %d (%s): body differs from the fault-free reference", i, e)
			continue
		}
		identical++
	}
	c.reportf("phase request: %d requests over %d cells, %d healed by retry, %d byte-identical",
		len(seq), len(universe), requestRetries, identical)
	logf("request phase in %v", time.Since(phaseStart).Round(time.Millisecond))

	// Phase 2 — sweeps with resume: the dedicated transport plan cuts the
	// first stream and resets the first resume; every delivered cell must
	// be byte-identical and delivered exactly once.
	phaseStart = time.Now()
	sweepClient := serve.NewClient(base)
	sweepClient.HTTPClient = &http.Client{
		Transport: &fault.Transport{Base: http.DefaultTransport, Plan: sweepPlan, RetryAfter: 1},
	}
	sweepRetries := 0
	sweepPol := pol
	sweepPol.OnRetry = func(int, time.Duration, error) { sweepRetries++ }
	rq := serve.SweepRequest{Targets: targets, Workloads: workloads, Pipelines: pipeNames, Sizes: sizes}
	sweepCells := 0
	for s := 0; s < sweeps; s++ {
		delivered := map[int]bool{}
		summary, err := sweepClient.SweepWithResume(ctx, rq, sweepPol, func(ev serve.SweepEvent) error {
			if ev.Error != "" {
				c.violate("sweep %d cell %v failed: %s", s, ev.Index, ev.Error)
				return nil
			}
			if ev.Index == nil || ev.Experiment == nil || ev.Result == nil {
				c.violate("sweep %d: malformed cell event", s)
				return nil
			}
			if delivered[*ev.Index] {
				c.violate("sweep %d cell %d delivered twice", s, *ev.Index)
				return nil
			}
			delivered[*ev.Index] = true
			body, err := json.Marshal(*ev.Result)
			if err != nil {
				return err
			}
			if string(body) != string(canonical[core.FingerprintKey(*ev.Experiment, opts)]) {
				c.violate("sweep %d cell %d (%s): result differs from the fault-free reference", s, *ev.Index, *ev.Experiment)
			}
			sweepCells++
			return nil
		})
		if err != nil {
			c.violate("sweep %d failed through all retries: %v", s, err)
			continue
		}
		if summary.Cells != len(universe) || summary.Failed != 0 || summary.Status != "ok" {
			c.violate("sweep %d trailer: cells=%d failed=%d status=%q, want %d/0/ok",
				s, summary.Cells, summary.Failed, summary.Status, len(universe))
		}
		if len(delivered) != len(universe) {
			c.violate("sweep %d delivered %d of %d cells", s, len(delivered), len(universe))
		}
	}
	c.reportf("phase sweep: %d sweeps x %d cells, %d cells delivered exactly once, %d stream drops resumed",
		sweeps, len(universe), sweepCells, sweepRetries)
	logf("sweep phase in %v", time.Since(phaseStart).Round(time.Millisecond))

	// Invariant — no duplicate simulations: faults and retries may re-ask
	// any question, but the memoized runner must have simulated each
	// distinct cell exactly once.
	counts := plan.Counts()
	stats := runner.Snapshot()
	if stats.Runs != uint64(len(universe)) {
		c.violate("runner simulated %d times for %d distinct cells", stats.Runs, len(universe))
	}
	c.reportf("simulations: %d for %d distinct cells", stats.Runs, len(universe))

	// Invariant — degraded, never broken: every injected store failure is
	// accounted for in StoreErrors, and /healthz reports exactly the
	// degradation the schedule caused.
	injectedStoreErrs := counts[fault.StoreSaveFail].Fired + counts[fault.StoreLoadErr].Fired
	if stats.StoreErrors != uint64(injectedStoreErrs) {
		c.violate("StoreErrors = %d, want the %d injected store failures", stats.StoreErrors, injectedStoreErrs)
	}
	wantHealth := "ok"
	if injectedStoreErrs > 0 {
		wantHealth = "degraded"
	}
	// The probes cross the same faulty transport and heal through the same
	// policy as the cells; their retries are not request-phase retries.
	probePol := pol
	probePol.OnRetry = nil
	health, err := client.Healthz(ctx, probePol)
	if err != nil {
		c.violate("healthz probe: %v", err)
	} else if health != wantHealth {
		c.violate("healthz = %q, want %q after %d injected store failures", health, wantHealth, injectedStoreErrs)
	}
	c.reportf("store: %d injected failures tolerated (save.fail %d, load.err %d), healthz %q",
		injectedStoreErrs, counts[fault.StoreSaveFail].Fired, counts[fault.StoreLoadErr].Fired, wantHealth)

	// Invariant — no leaked slots or in-flight cells, and the recovered
	// panic count matches the schedule exactly.
	injectedPanics := counts[fault.ServeHandlerPanic].Fired + counts[fault.ServeRunPanic].Fired
	checkMetrics(ctx, c, client, probePol, map[string]int{
		"cwserve_panics_recovered_total": injectedPanics,
		"cwserve_slots_busy":             0,
		"cwserve_inflight_cells":         0,
	})
	c.reportf("panics: %d injected (handler %d, run-path %d), all recovered, no slots or cells leaked",
		injectedPanics, counts[fault.ServeHandlerPanic].Fired, counts[fault.ServeRunPanic].Fired)

	// Drain the daemon the way cwserve does on SIGTERM.
	shutdownCtx, cancel := context.WithTimeout(ctx, 5*time.Second)
	err = drain(shutdownCtx)
	cancel()
	if err != nil {
		c.violate("drain: %v", err)
	}

	// Invariant — reboot-safe: a fresh fault-free runner loads on demand
	// whatever the faulted store persisted (torn entries degrade to
	// misses) and answers every cell byte-identically, recomputing the
	// casualties.
	disk2, err := store.Open(dir)
	if err != nil {
		c.violate("reopening the faulted store: %v", err)
	} else {
		runner2 := core.NewRunnerWith(core.RunnerOptions{Workers: 1, Store: disk2})
		rebootOK := 0
		for _, e := range universe {
			res, err := runner2.Run(ctx, e, opts)
			if err != nil {
				c.violate("reboot run %s: %v", e, err)
				continue
			}
			body, err := json.Marshal(res)
			if err != nil {
				c.violate("reboot run %s: %v", e, err)
				continue
			}
			if string(body) != string(canonical[core.FingerprintKey(e, opts)]) {
				c.violate("reboot run %s: body differs from the fault-free reference", e)
				continue
			}
			rebootOK++
		}
		// Every campaign cell has the zero RunOptions, so the store hits
		// count the universe's cells the faulted store still holds whole.
		c.reportf("reboot: warmed %d of %d cells from the faulted store, %d byte-identical after recompute",
			runner2.Snapshot().StoreHits, len(universe), rebootOK)
	}

	// Invariant — no goroutine leaks: everything the campaign started is
	// gone once the daemon has drained and idle connections are closed.
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	leaked := -1
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		runtime.GC()
		if g := runtime.NumGoroutine(); g <= goroutines0+2 {
			leaked = 0
			break
		}
		time.Sleep(25 * time.Millisecond)
	}
	if leaked != 0 {
		c.violate("goroutines leaked: %d at start, %d after drain", goroutines0, runtime.NumGoroutine())
	}
	c.reportf("goroutines: stable across the campaign")

	// The injected-fault tally (fired counts only: passage counts on the
	// serve sites race the cancelled first sweep's tail, so they go to
	// stderr with the rest of the non-deterministic detail).
	c.reportf("faults injected:")
	for _, line := range firedLines(counts) {
		c.reportf("  %s", line)
	}
	for _, line := range firedLines(sweepPlan.Counts()) {
		c.reportf("  sweep-phase %s", line)
	}
	logf("fault schedule detail:\n%s%s", plan.Summary(), sweepPlan.Summary())
	logf("campaign in %v", time.Since(start).Round(time.Millisecond))

	// The verdict. Everything above is derived from the seed alone, so a
	// same-seed rerun must print this report byte-for-byte.
	fmt.Printf("cwchaos: campaign seed=%d cells=%d requests=%d sweeps=%d\n", seed, len(universe), len(seq), sweeps)
	fmt.Print(c.report.String())
	for _, v := range c.violations {
		fmt.Printf("cwchaos: VIOLATION: %s\n", v)
	}
	fmt.Printf("cwchaos: %d invariant violations\n", len(c.violations))
	if len(c.violations) > 0 {
		return 1
	}
	return 0
}

// checkMetrics asserts exact values of un-labeled gauges/counters,
// re-probing briefly so the cancelled sweep's tail can finish releasing
// its slot before the zero-gauge assertions are judged.
func checkMetrics(ctx context.Context, c *campaign, client *serve.Client, pol serve.RetryPolicy, want map[string]int) {
	names := make([]string, 0, len(want))
	for name := range want {
		names = append(names, name)
	}
	sort.Strings(names)
	var bad []string
	for deadline := time.Now().Add(2 * time.Second); ; {
		body, err := client.Metrics(ctx, pol)
		if err != nil {
			c.violate("metrics probe: %v", err)
			return
		}
		bad = bad[:0]
		for _, name := range names {
			got, ok := metricValue(body, name)
			if !ok || got != fmt.Sprint(want[name]) {
				bad = append(bad, fmt.Sprintf("%s = %s, want %d", name, got, want[name]))
			}
		}
		if len(bad) == 0 || !time.Now().Before(deadline) {
			break
		}
		time.Sleep(25 * time.Millisecond)
	}
	for _, b := range bad {
		c.violate("metric %s", b)
	}
}

// metricValue extracts one un-labeled metric from a Prometheus text
// exposition.
func metricValue(body, name string) (string, bool) {
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, name+" ") {
			return strings.TrimPrefix(line, name+" "), true
		}
	}
	return "", false
}

// firedLines renders sorted, deterministic per-site injection counts.
func firedLines(counts map[fault.Site]fault.Count) []string {
	sites := make([]string, 0, len(counts))
	for site := range counts {
		sites = append(sites, string(site))
	}
	sort.Strings(sites)
	lines := make([]string, 0, len(sites))
	for _, site := range sites {
		lines = append(lines, fmt.Sprintf("%s x%d", site, counts[fault.Site(site)].Fired))
	}
	return lines
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "cwchaos: "+format+"\n", args...)
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "cwchaos: "+format+"\n", args...)
	os.Exit(1)
}
