package core

import (
	"bytes"
	"context"
	"reflect"
	"runtime"
	"testing"

	"configwall/internal/accel"
	"configwall/internal/accel/gemmini"
	"configwall/internal/accel/opengemm"
	"configwall/internal/mem"
)

// memoUniverse is every cell cwbench's figures run at their default sizes,
// then both sweep universes of the benchmark — every workload at n = 16…64
// and matmul at n = 128…512, on both built-in targets under every pipeline —
// each cell once, in that order.
func memoUniverse(t *testing.T) []Experiment {
	t.Helper()
	var cells []Experiment
	cells = append(cells, Figure10.Experiments(Figure10Sizes)...)
	cells = append(cells, Figure11.Experiments(Figure11Sizes)...)
	cells = append(cells, Figure12Experiments(Figure12Sizes)...)
	sweep := func(sizes []int, workloads []string) {
		for _, tn := range []string{gemmini.Name, opengemm.Name} {
			tg, err := LookupTarget(tn)
			if err != nil {
				t.Fatal(err)
			}
			for _, wn := range workloads {
				w, err := LookupWorkload(wn)
				if err != nil {
					t.Fatal(err)
				}
				for _, n := range SupportedSizes(tg, w, sizes) {
					for _, p := range Pipelines {
						cells = append(cells, Experiment{Target: tn, Workload: wn, Pipeline: p, N: n})
					}
				}
			}
		}
	}
	sweep([]int{16, 32, 48, 64}, WorkloadNames())
	sweep([]int{128, 256, 512}, []string{WorkloadMatmul})
	seen := map[Experiment]bool{}
	out := cells[:0]
	for _, e := range cells {
		if !seen[e] {
			seen[e] = true
			out = append(out, e)
		}
	}
	return out
}

// TestLaunchMemoMatchesUnmemoized: every figure and sweep cell returns the
// same Result from a fresh runner, whose cells replay launches through its
// memo, as from an unmemoized run — RunExperiment's compile and simulate.
// Run again in order through one memo, each cell also leaves the memory the
// unmemoized run leaves: every byte below the stack and of the stack
// frames. Both memos must have replayed. The runner's cells run one at a
// time, so that the ones a sibling's tail served, and launched nothing, are
// known.
func TestLaunchMemoMatchesUnmemoized(t *testing.T) {
	cells := memoUniverse(t)
	r := NewRunner(2)
	fromRunner := make([]Result, len(cells))
	var tailLaunches uint64
	for i, e := range cells {
		before := r.Snapshot().TailHits
		res, err := r.Run(context.Background(), e, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if r.Snapshot().TailHits != before {
			tailLaunches += res.Launches
		}
		fromRunner[i] = res
	}
	memo := accel.NewLaunchMemo()
	plain, memoed := mem.New(memorySize), mem.New(memorySize)
	var launches uint64
	for i, e := range cells {
		tg, err := LookupTarget(e.Target)
		if err != nil {
			t.Fatal(err)
		}
		w, err := LookupWorkload(e.Workload)
		if err != nil {
			t.Fatal(err)
		}
		c, err := Compile(tg, w, e.Pipeline, e.N)
		if err != nil {
			t.Fatal(err)
		}
		want, err := c.simulate(plain, RunOptions{}, false, nil)
		if err != nil || !want.Verified {
			t.Fatalf("%s: verified=%v err=%v", e, want.Verified, err)
		}
		launches += want.Launches
		if !reflect.DeepEqual(fromRunner[i], want) {
			t.Errorf("%s: runner result differs from the unmemoized run's:\n got %+v\nwant %+v", e, fromRunner[i], want)
		}
		got, err := c.simulate(memoed, RunOptions{}, false, memo)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: memoized result %+v, want %+v", e, got, want)
		}
		for _, span := range [][2]uint64{{0, stackBase}, {stackBase, memorySize}} {
			lo, end := span[0], max(plain.DirtyEnd(span[1]), memoed.DirtyEnd(span[1]))
			if end > lo && !bytes.Equal(memoed.View(lo, end-lo), plain.View(lo, end-lo)) {
				t.Errorf("%s: memoized memory differs from unmemoized in [%#x, %#x)", e, lo, end)
			}
		}
	}
	s := r.Snapshot()
	if s.LaunchHits+s.LaunchMisses+tailLaunches != launches {
		t.Errorf("runner memo saw %d hits + %d misses, tail-served cells %d launches; the cells launched %d times", s.LaunchHits, s.LaunchMisses, tailLaunches, launches)
	}
	if s.TailHits == 0 || tailLaunches == 0 {
		t.Errorf("%d cells served by a sibling's tail, with %d launches: want some", s.TailHits, tailLaunches)
	}
	// Every family runs all four pipelines, and each pipeline launches the
	// same jobs: the first of a family to launch misses, and the others that
	// run their own tail replay.
	if s.LaunchHits < launches/2 {
		t.Errorf("runner memo replayed %d of %d launches, want at least half", s.LaunchHits, launches)
	}
	t.Logf("runner: %d launches replayed, %d run, %d in %d tail-served cells", s.LaunchHits, s.LaunchMisses, tailLaunches, s.TailHits)
	// In order, the three later pipelines of a family replay every launch
	// of its first (and a few launches recur across families).
	if hits, misses := memo.Stats(); hits < 3*misses {
		t.Errorf("in order, the memo replayed %d and ran %d launches: want at least three of every four replayed", hits, misses)
	}
}

// TestTwoWorkersLeadOneFamily: two workers lead two pipelines of one family
// at once — both may miss, neither may see the other's half-recorded
// launch. Run under the race detector in CI.
func TestTwoWorkersLeadOneFamily(t *testing.T) {
	for _, tn := range []string{gemmini.Name, opengemm.Name} {
		cells := []Experiment{
			{Target: tn, Workload: WorkloadMatmul, Pipeline: Baseline, N: 128},
			{Target: tn, Workload: WorkloadMatmul, Pipeline: AllOptimizations, N: 128},
			{Target: tn, Workload: WorkloadMatmul, Pipeline: DedupOnly, N: 128},
			{Target: tn, Workload: WorkloadMatmul, Pipeline: OverlapOnly, N: 128},
		}
		got, err := NewRunner(2).RunAll(context.Background(), cells, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for i, e := range cells {
			want, err := RunExperiment(e, RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got[i], want) {
				t.Errorf("%s: result differs from RunExperiment's", e)
			}
		}
	}
}

// TestLaunchMemoAllocationBudget is the launch memo's allocation ratchet:
// the four pipelines of opengemm/matmul/64 on a fresh Runner(1), where the
// first misses every launch and the other three replay every launch. A cell
// that replays must allocate no more than the same cell missing on a fresh
// runner, and the family stays within its measured count + 10%.
func TestLaunchMemoAllocationBudget(t *testing.T) {
	const budget = 581 // measured 528 (662 before use lists grew into slabs, 1 032 before interning, 1 315 before codegen emitted once, 1 763 before slabs)
	family := Figure12Experiments([]int{64})
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	mallocs := func(r *Runner, e Experiment) float64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := r.Run(context.Background(), e, RunOptions{})
		runtime.ReadMemStats(&after)
		if err != nil || !res.Verified {
			t.Fatalf("%s: verified=%v err=%v", e, res.Verified, err)
		}
		return float64(after.Mallocs - before.Mallocs)
	}
	// Warm the golden product and the registries' lazy state.
	for _, e := range family {
		mallocs(NewRunner(1), e)
	}
	const rounds = 10
	var alone, replayed [4]float64
	var familyAllocs float64
	for range rounds {
		for p, e := range family {
			alone[p] += mallocs(NewRunner(1), e) / rounds
		}
		r := NewRunner(1)
		for p, e := range family {
			n := mallocs(r, e) / rounds
			replayed[p] += n
			familyAllocs += n
		}
		if s := r.Snapshot(); s.LaunchHits != 3*s.LaunchMisses {
			t.Fatalf("%d hits / %d misses: want the three later pipelines to replay every launch of the first", s.LaunchHits, s.LaunchMisses)
		}
	}
	t.Logf("%s: alone %.0f, in a family %.0f allocations per cell; family %.0f", family[0].Target, alone, replayed, familyAllocs)
	for p := 1; p < len(family); p++ {
		if replayed[p] > alone[p] {
			t.Errorf("%s: %.0f allocations replaying, %.0f missing alone: a hit may allocate no more than a miss", family[p], replayed[p], alone[p])
		}
	}
	if familyAllocs > budget {
		t.Errorf("family: %.0f allocations, budget %d", familyAllocs, budget)
	}
}
