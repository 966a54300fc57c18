// Command bench is the repository's one benchmark: five workloads over the
// cell engine, the differential oracle and the serving daemon, each output
// checked, end-to-end metrics on top and per-layer metrics underneath.
// README.md in this directory defines every workload and metric.
//
//	go run ./bench -seed 1                      every workload, untraced and traced, as a table
//	go run ./bench -workload serve_hot -trace 1 one run; the last line is its JSON result
//	go run ./bench -compare a.json b.json       two saved sets against the bounds
//	go run ./bench -spec                        print BENCHMARK.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func main() {
	name := flag.String("workload", "", "run this one workload and print its JSON result (default: all, as a table)")
	seed := flag.Int64("seed", 1, "orders the operations; never changes the universe")
	seconds := flag.Float64("seconds", runSeconds, "how long one run measures")
	trace := flag.Int("trace", 0, "1 for the traced run that reports the per-layer metrics")
	smoke := flag.Bool("smoke", false, "tiny universes: checks the plumbing, measures nothing")
	outDir := flag.String("out", filepath.Join("bench", "out"), "directory for traces, saved sets and temporary stores")
	compare := flag.Bool("compare", false, "compare two saved sets (arguments: a.json b.json) against the bounds")
	spec := flag.Bool("spec", false, "print BENCHMARK.json")
	flag.Parse()

	cfg := config{seed: *seed, seconds: *seconds, traced: *trace != 0, sc: fullScale, outDir: *outDir, smoke: *smoke}
	if *smoke {
		cfg.sc = smokeScale
	}
	var err error
	switch {
	case *spec:
		var out []byte
		if out, err = benchmarkJSON(); err == nil {
			_, err = os.Stdout.Write(out)
		}
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare needs two saved sets")
		} else {
			err = compareSets(os.Stdout, flag.Arg(0), flag.Arg(1))
		}
	case *name == "":
		err = runAll(cfg)
	default:
		err = runOne(cfg, *name)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// config is one run's settings.
type config struct {
	seed    int64
	seconds float64
	traced  bool
	smoke   bool
	sc      scale
	outDir  string
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run prints as the last line of its output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runOne runs one workload, prints what it saw and then its result, and
// fails when any output was wrong.
func runOne(cfg config, name string) error {
	w, err := lookupWorkload(name)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	res, notes, err := run(cfg, w)
	if err != nil {
		return err
	}
	for _, n := range notes {
		fmt.Println(n)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d operations failed their output check", name, res.Failed, res.Attempted)
	}
	return nil
}

// window is the measurement of a run of blocks.
type window struct {
	blocks   []blockResult
	ops      int
	failed   int
	cpu      time.Duration
	mallocs  uint64
	bytes    uint64
	gcCycles uint32
	gcPause  time.Duration
}

// cpuTime is the user and system CPU time the process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// measure runs blocks until d has passed, at least one for each of recs,
// which take turns: with (nil, rec) untraced and traced blocks alternate, so
// the two windows see the same minutes of the machine and their ratio is
// the recorder's cost, not the drift between two halves of a run. A window's
// k-th block draws its order from (seed, k), so a run's operation sequence
// depends on nothing but the seed.
func measure(inst instance, d time.Duration, seed int64, recs ...*recorder) []window {
	runtime.GC()
	debug.FreeOSMemory()
	ws := make([]window, len(recs))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpuBefore := cpuTime()
	start := time.Now()
	for i := 0; i < len(recs) || time.Since(start) < d; i++ {
		w := &ws[i%len(recs)]
		b := inst.block(blockSeed(seed, i/len(recs)), recs[i%len(recs)])
		runtime.ReadMemStats(&after)
		cpuAfter := cpuTime()
		w.blocks = append(w.blocks, b)
		w.ops += b.ops
		w.failed += b.failed
		w.cpu += cpuAfter - cpuBefore
		w.mallocs += after.Mallocs - before.Mallocs
		w.bytes += after.TotalAlloc - before.TotalAlloc
		w.gcCycles += after.NumGC - before.NumGC
		w.gcPause += time.Duration(after.PauseTotalNs - before.PauseTotalNs)
		before, cpuBefore = after, cpuAfter
	}
	return ws
}

// blockSeed derives block i's seed from the run's.
func blockSeed(seed int64, i int) int64 { return seed*1_000_003 + int64(i) }

// throughputs is the ops/s of every block.
func (w window) throughputs() []float64 {
	xs := make([]float64, len(w.blocks))
	for i, b := range w.blocks {
		xs[i] = float64(b.ops) / b.wall.Seconds()
	}
	return xs
}

// chunkBlocks is how many blocks the benchmark pools before it reads a
// latency percentile. A run reports the median over its chunks, so a burst
// of noise moves the chunks it hits and not the result. The tail percentile
// is fixed by what a chunk holds, never by how many blocks happened to fit
// in the run, so it cannot flip between two runs of one workload.
const chunkBlocks = 12

// latencies returns p50, p90 and the tail percentile in milliseconds, the
// percentile the tail was read at, and the sample count behind them.
// Operations the benchmark timed itself are pooled per chunk of blocks
// (a remainder joins the last chunk); serve.LoadGen times its own requests
// and reports a block's percentiles, so there a chunk is a block.
func (w window) latencies() (p50, p90, tail, tailP float64, samples int) {
	var c50, c90, cTail []float64
	if len(w.blocks[0].lat) == 0 {
		for _, b := range w.blocks {
			c50, c90, cTail = append(c50, ms(b.p50)), append(c90, ms(b.p90)), append(cTail, ms(b.p99))
		}
		return median(c50), median(c90), median(cTail), 0.99, w.ops
	}
	tailP = tailPercentile(chunkBlocks * w.blocks[0].ops)
	for start := 0; start < len(w.blocks); {
		end := start + chunkBlocks
		if len(w.blocks)-end < chunkBlocks {
			end = len(w.blocks)
		}
		var pooled []float64
		for _, b := range w.blocks[start:end] {
			for _, l := range b.lat {
				pooled = append(pooled, ms(l))
			}
		}
		asc := sorted(pooled)
		c50, c90, cTail = append(c50, percentile(asc, 0.50)), append(c90, percentile(asc, 0.90)), append(cTail, percentile(asc, tailP))
		start = end
	}
	return median(c50), median(c90), median(cTail), tailP, w.ops
}

// opLatencies is the wall time, in milliseconds, operation c took in each
// block.
func (w window) opLatencies(c int) []float64 {
	xs := make([]float64, len(w.blocks))
	for i, b := range w.blocks {
		xs[i] = ms(b.lat[c])
	}
	return xs
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// run sets the workload up, checks its outputs against direct calls and
// measures it: end to end with tracing off, or the traced run.
func run(cfg config, w workload) (result, []string, error) {
	ev := env{sc: cfg.sc, outDir: cfg.outDir}
	var notes []string
	note := func(format string, args ...any) { notes = append(notes, fmt.Sprintf(format, args...)) }

	// Set up several times and report the median; measure the last. A short
	// set-up is repeated until setupBudget is spent, because the median of
	// three 30 ms set-ups moved by a quarter between two sets of runs.
	var setups []float64
	var inst instance
	for begun := time.Now(); len(setups) < cfg.sc.setups || time.Since(begun) < cfg.sc.setupBudget; {
		if inst != nil {
			inst.close()
		}
		// Two collections empty every sync.Pool, so each set-up starts as a
		// fresh process does, without the last one's simulator arenas;
		// otherwise a set-up is fast or slow by where a collection fell.
		runtime.GC()
		runtime.GC()
		t0 := time.Now()
		var err error
		if inst, err = w.setup(ev); err != nil {
			return result{}, nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer inst.close()

	sim, refFailed, err := inst.reference()
	if err != nil {
		return result{}, nil, fmt.Errorf("%s reference: %w", w.name, err)
	}

	budget := time.Duration(cfg.seconds * float64(time.Second))
	res := result{Metrics: map[string]metricValue{}}
	var values map[string]float64
	var specs []metricSpec
	if !cfg.traced {
		win := measure(inst, budget, cfg.seed, nil)[0]
		res.Attempted, res.Failed = win.ops, win.failed+refFailed
		values = endToEndValues(win, median(setups), sim, note)
		specs = endToEnd
	} else {
		// Two thirds of the time in blocks, untraced and traced by turns;
		// the probes, sized by count, take about the last third.
		rec := newRecorder()
		wins := measure(inst, 2*budget/3, cfg.seed, nil, rec)
		plain, traced := wins[0], wins[1]
		values = map[string]float64{}
		probeFailed, err := inst.layers(values)
		if err != nil {
			return result{}, nil, fmt.Errorf("%s layer probes: %w", w.name, err)
		}
		res.Attempted = plain.ops + traced.ops
		res.Failed = plain.failed + traced.failed + refFailed + probeFailed
		layerValues(values, plain, traced, rec.spans)
		values["fail_ratio"] = float64(res.Failed) / float64(res.Attempted)
		specs = perLayer
		path := filepath.Join(cfg.outDir, "trace-"+w.name+".json")
		if err := rec.write(path); err != nil {
			return result{}, nil, err
		}
		note("%s: %d spans of %d traced operations in %s", w.name, len(rec.spans), traced.ops, path)
	}
	res.Correct = res.Failed == 0
	for _, s := range specs {
		v := values[s.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return result{}, nil, fmt.Errorf("%s: metric %s is %v", w.name, s.Name, v)
		}
		res.Metrics[s.Name] = metricValue{Value: v, Unit: s.Unit}
		note("%-12s %-26s %16.6g %s", w.name, s.Name, v, s.Unit)
	}
	return res, notes, nil
}

// endToEndValues turns an untraced window into the end-to-end metrics.
func endToEndValues(win window, setup float64, sim simStats, note func(string, ...any)) map[string]float64 {
	q1, med, q3 := quartiles(win.throughputs())
	p50, p90, tail, tailP, samples := win.latencies()
	ops := float64(win.ops)
	note("throughput over %d blocks: q1 %.6g, median %.6g, q3 %.6g ops/s", len(win.blocks), q1, med, q3)
	note("latency over %d samples; latency_p99_ms read at p%.0f (ten samples of a chunk beyond it)", samples, tailP*100)
	note("without a bound, from the traced run: here latency p50 %.6g ms, p90 %.6g ms, cpu %.6g ms per operation", p50, p90, ms(win.cpu)/ops)
	return map[string]float64{
		"setup_s":             setup,
		"throughput_ops_s":    med,
		"latency_p99_ms":      tail,
		"allocs_per_op":       float64(win.mallocs) / ops,
		"sim_cycles_total":    float64(sim.cycles),
		"sim_speedup_geomean": sim.speedup,
	}
}

// layerValues fills the per-layer metrics the windows and the spans give.
// A span named x is the metric x_ns: the median, per operation, of the time
// in that call. The instance's own probes have already filled their part.
func layerValues(m map[string]float64, plain, traced window, spans []span) {
	ops := float64(plain.ops)
	p50, p90, _, _, _ := plain.latencies()
	m["latency_p50_ms"], m["latency_p90_ms"] = p50, p90
	m["cpu_ms_per_op"] = ms(plain.cpu) / ops

	total, self := spanTimes(spans)
	for _, s := range perLayer {
		if stem, ok := strings.CutSuffix(s.Name, "_ns"); ok && len(total[stem]) > 0 {
			m[s.Name] = median(total[stem])
		}
	}
	if xs := self["sim.run"]; len(xs) > 0 {
		m["sim.self_ns"] = median(xs)
	}
	if xs := self["serve.request"]; len(xs) > 0 {
		m["serve.transport_ns"] = median(xs)
	}
	if m["sim.self_ns"] > 0 {
		m["sim.host_instrs_per_s"] = m["sim.host_instrs"] / m["sim.self_ns"] * 1e9
	}
	if p := m["passes.pipeline_ns"]; p > 0 {
		m["ir.verify_share"] = (p - m["passes.noverify_ns"]) / p
	}

	// The real call, untraced, against the sum of the replica's parts (its
	// operation span minus that span's self time), cell by cell: the cells
	// of a universe differ tenfold, so a gap between two pooled medians
	// says which cell each median fell on and little about the replica.
	if _, isCell := total["passes.pipeline"]; isCell {
		m["core.run_ns"] = p50 * float64(time.Millisecond)
		glue := median(self["op"]) / float64(time.Millisecond)
		gaps := make([]float64, len(plain.blocks[0].lat))
		for c := range gaps {
			run := median(plain.opLatencies(c))
			gaps[c] = (run - (median(traced.opLatencies(c)) - glue)) / run
		}
		m["core.replica_gap_ratio"] = median(gaps)
	}

	var tiers struct{ mem, store, runs, evictions, status429, retries float64 }
	for _, b := range plain.blocks {
		tiers.mem += float64(b.tiers.MemHits)
		tiers.store += float64(b.tiers.StoreHits)
		tiers.runs += float64(b.tiers.Runs)
		tiers.evictions += float64(b.tiers.Evictions)
		tiers.status429 += float64(b.status429)
		tiers.retries += float64(b.retries)
	}
	if tiers.mem+tiers.store+tiers.runs > 0 {
		m["core.mem_hit_ratio"] = tiers.mem / ops
		m["core.store_hit_ratio"] = tiers.store / ops
		m["core.run_ratio"] = tiers.runs / ops
		m["core.evictions"] = tiers.evictions / float64(len(plain.blocks))
	}
	m["serve.status_429"] = tiers.status429
	m["serve.retries"] = tiers.retries

	m["runtime.peak_rss_mb"] = peakRSSMB()
	m["runtime.alloc_mb_per_op"] = float64(plain.bytes) / ops / (1 << 20)
	m["runtime.gc_cycles"] = float64(plain.gcCycles)
	m["runtime.gc_pause_ms"] = ms(plain.gcPause)
	if t := median(traced.throughputs()); t > 0 {
		m["trace.overhead_ratio"] = median(plain.throughputs()) / t
	}
}

// peakRSSMB reads the process's peak resident set from /proc; 0 where
// there is no /proc.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
