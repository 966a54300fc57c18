package core

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"configwall/internal/accel/gemmini"
	"configwall/internal/accel/opengemm"
	"configwall/internal/mem"
)

// familyUniverse is every supported cell at n = 8…128: both built-in
// targets, every registered workload, every pipeline.
func familyUniverse(t *testing.T) []Experiment {
	t.Helper()
	var cells []Experiment
	for _, tn := range []string{gemmini.Name, opengemm.Name} {
		tg, err := LookupTarget(tn)
		if err != nil {
			t.Fatal(err)
		}
		for _, wn := range WorkloadNames() {
			w, err := LookupWorkload(wn)
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range SupportedSizes(tg, w, []int{8, 16, 24, 32, 48, 64, 96, 128}) {
				for _, p := range Pipelines {
					cells = append(cells, Experiment{Target: tn, Workload: wn, Pipeline: p, N: n})
				}
			}
		}
	}
	return cells
}

// TestFamilyMemoMatchesCompile: a cell a runner computes from its family
// memo, resumed from a snapshot or served by a sibling's tail, returns the
// Result RunExperiment's unshared compile returns, ProgramInstrs and
// Counters included, whatever order the cells of its family arrive in and
// however two workers interleave them.
func TestFamilyMemoMatchesCompile(t *testing.T) {
	cells := familyUniverse(t)
	if len(cells) != 152 {
		t.Fatalf("%d cells at n = 8…128, want 152", len(cells))
	}
	want := make([]Result, len(cells))
	for i, e := range cells {
		res, err := RunExperiment(e, RunOptions{})
		if err != nil || !res.Verified {
			t.Fatalf("%s: verified=%v err=%v", e, res.Verified, err)
		}
		want[i] = res
	}
	var hits, tailHits uint64
	for seed := int64(1); seed <= 6; seed++ {
		order := rand.New(rand.NewSource(seed)).Perm(len(cells))
		shuffled := make([]Experiment, len(cells))
		for i, c := range order {
			shuffled[i] = cells[c]
		}
		r := NewRunner(2)
		got, err := r.RunAll(context.Background(), shuffled, RunOptions{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for i, c := range order {
			if !reflect.DeepEqual(got[i], want[c]) {
				t.Errorf("seed %d: %s: runner result differs from RunExperiment's:\n got %+v\nwant %+v", seed, cells[c], got[i], want[c])
			}
		}
		s := r.Snapshot()
		if s.FamilyHits+s.FamilyMisses != uint64(len(cells)) {
			t.Errorf("seed %d: %d family hits + %d misses for %d computed cells", seed, s.FamilyHits, s.FamilyMisses, len(cells))
		}
		hits += s.FamilyHits
		tailHits += s.TailHits
	}
	// A family's first cell builds; most of the other three resume.
	if hits < 6*uint64(len(cells))/2 {
		t.Errorf("%d of %d cells resumed from a snapshot, want at least half", hits, 6*len(cells))
	}
	// On Gemmini the overlap pass changes nothing, so of dedup and all the
	// later to reach its lowering takes the earlier's tail.
	if tailHits == 0 {
		t.Errorf("no cell of %d took a sibling's tail", 6*len(cells))
	}
	t.Logf("%d of %d cells resumed from a snapshot, %d took a sibling's tail", hits, 6*len(cells), tailHits)
}

// TestFamilyMemoRecompute: a pipeline computed a second time in the same
// runner — its cell evicted, here by a one-cell LRU, before or after its
// siblings started — finds its family's snapshots gone or meant for others
// and compiles from scratch, to the same Result.
func TestFamilyMemoRecompute(t *testing.T) {
	family := func(p Pipeline) Experiment {
		return Experiment{Target: "gemmini", Workload: WorkloadMatmul, Pipeline: p, N: 32}
	}
	want := map[Pipeline]Result{}
	for _, p := range Pipelines {
		res, err := RunExperiment(family(p), RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want[p] = res
	}
	for _, order := range [][]Pipeline{
		{DedupOnly, Baseline, DedupOnly, OverlapOnly, DedupOnly, AllOptimizations, DedupOnly},
		{Baseline, DedupOnly, OverlapOnly, AllOptimizations, Baseline, AllOptimizations, OverlapOnly, DedupOnly},
		{AllOptimizations, DedupOnly, AllOptimizations, Baseline, AllOptimizations, OverlapOnly, DedupOnly},
	} {
		r := NewRunnerWith(RunnerOptions{Workers: 1, MaxCells: 1})
		for i, p := range order {
			got, err := r.Run(context.Background(), family(p), RunOptions{})
			if err != nil {
				t.Fatalf("%v, step %d (%s): %v", order, i, p, err)
			}
			if !reflect.DeepEqual(got, want[p]) {
				t.Errorf("%v, step %d (%s): result differs from RunExperiment's", order, i, p)
			}
		}
		if s := r.Snapshot(); s.Runs != uint64(len(order)) || s.FamilyHits == 0 {
			t.Errorf("%v: %d runs, %d family hits: want every step computed and some resumed", order, s.Runs, s.FamilyHits)
		}
	}

	// Evicted while it computes: two workers, a one-cell LRU and every
	// pipeline asked for over and over.
	var cells []Experiment
	for range 8 {
		for _, p := range Pipelines {
			cells = append(cells, family(p))
		}
	}
	rand.New(rand.NewSource(7)).Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })
	r := NewRunnerWith(RunnerOptions{Workers: 2, MaxCells: 1})
	got, err := r.RunAll(context.Background(), cells, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range cells {
		if !reflect.DeepEqual(got[i], want[e.Pipeline]) {
			t.Errorf("%s at %d: result differs from RunExperiment's", e, i)
		}
	}
}

// panicOnce is a matmul whose Build panics while armed is set, once.
type panicOnce struct{ armed atomic.Bool }

func (po *panicOnce) workload(t *testing.T) Workload {
	t.Helper()
	w, err := LookupWorkload(WorkloadMatmul)
	if err != nil {
		t.Fatal(err)
	}
	build := w.Build
	w.Build = func(tg Target, n int) (Instance, error) {
		if po.armed.CompareAndSwap(true, false) {
			panic("kaboom")
		}
		return build(tg, n)
	}
	return w
}

// TestFamilyMemoPanicInBuild: a cell whose Build panics holds nothing of
// its family, so every sibling still computes — one after the other, or all
// at once with the panicking one among them — to the Result an unshared
// compile gives.
func TestFamilyMemoPanicInBuild(t *testing.T) {
	const tn, n = "opengemm", 32
	var po panicOnce
	w := po.workload(t)
	tg, err := LookupTarget(tn)
	if err != nil {
		t.Fatal(err)
	}
	want := map[Pipeline]Result{}
	for _, p := range Pipelines {
		if want[p], err = Run(tg, w, p, n, RunOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	// compute runs one cell as a runner's compute does, with its panic
	// recovered into an error.
	compute := func(fm *familyMemo, p Pipeline) (res Result, err error) {
		defer func() {
			if v := recover(); v != nil {
				err = &PanicError{Exp: Experiment{Target: tn, Workload: w.Name, Pipeline: p, N: n}, Value: v}
			}
		}()
		return run(tg, w, p, n, RunOptions{}, nil, fm)
	}

	fm := newFamilyMemo()
	po.armed.Store(true)
	var pe *PanicError
	if _, err := compute(fm, Baseline); !errors.As(err, &pe) {
		t.Fatalf("armed Build: err = %v, want a panic", err)
	}
	for _, p := range append(Pipelines[1:], Baseline) {
		got, err := compute(fm, p)
		if err != nil || !reflect.DeepEqual(got, want[p]) {
			t.Errorf("%s after the panic: err = %v, or result differs from an unshared compile's", p, err)
		}
	}

	for round := range 20 {
		fm := newFamilyMemo()
		po.armed.Store(true)
		var wg sync.WaitGroup
		errs := make([]error, len(Pipelines))
		got := make([]Result, len(Pipelines))
		for i, p := range Pipelines {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i], errs[i] = compute(fm, p)
			}()
		}
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatalf("round %d: a sibling of the panicking cell never finished", round)
		}
		panics := 0
		for i, p := range Pipelines {
			switch {
			case errors.As(errs[i], &pe):
				panics++
			case errs[i] != nil || !reflect.DeepEqual(got[i], want[p]):
				t.Errorf("round %d: %s: err = %v, or result differs from an unshared compile's", round, p, errs[i])
			}
		}
		if panics != 1 {
			t.Errorf("round %d: %d cells panicked, want exactly the one that built first", round, panics)
		}
	}
}

// TestFamilyMemoAllocationBudget is the family memo's allocation ratchet:
// the four pipelines of gemmini/matmul/32 on a fresh Runner(1), in the
// order of Pipelines, at the measured count + 10%.
func TestFamilyMemoAllocationBudget(t *testing.T) {
	const budget = 386 // measured 351 (448 before use lists grew into slabs, 880 before interning, 1 066 before codegen emitted once, 1 707 before slabs, 2 590 before dedup's tail served overlap and all)
	var family []Experiment
	for _, p := range Pipelines {
		family = append(family, Experiment{Target: "gemmini", Workload: WorkloadMatmul, Pipeline: p, N: 32})
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runFamily := func() {
		r := NewRunner(1)
		for _, e := range family {
			if res, err := r.Run(context.Background(), e, RunOptions{}); err != nil || !res.Verified {
				t.Fatalf("%s: verified=%v err=%v", e, res.Verified, err)
			}
		}
		if s := r.Snapshot(); s.FamilyHits != 3 || s.TailHits != 2 {
			t.Fatalf("%d family hits, %d tail hits: want the three later pipelines resumed, and overlap and all served by dedup's tail", s.FamilyHits, s.TailHits)
		}
	}
	runFamily() // warm the golden product and the registries' lazy state
	allocs := testing.AllocsPerRun(10, runFamily)
	t.Logf("family: %.0f allocations", allocs)
	if allocs > budget {
		t.Errorf("family: %.0f allocations, budget %d", allocs, budget)
	}
}

// TestForkTable pins where the built-in pipelines fork and lower: the
// baseline shares nothing past the build, the three accfg pipelines share
// their opening seven passes, and dedup and all five more; each pipeline's
// last stop is its lowering.
func TestForkTable(t *testing.T) {
	want := [numPipelines][]int{Baseline: {1}, DedupOnly: {7, 12, 14}, OverlapOnly: {7, 10}, AllOptimizations: {7, 12, 15}}
	for _, tg := range []Target{GemminiTarget(), OpenGeMMTarget()} {
		ft := newForkTable(tg)
		if !reflect.DeepEqual(ft.stops, want) {
			t.Errorf("%s: stops %v, want %v", tg.Name, ft.stops, want)
		}
		for p, stops := range ft.stops {
			if lowering := ft.depth[p][p]; stops[len(stops)-1] != lowering {
				t.Errorf("%s: %s stops at %v, but lowers at %d", tg.Name, Pipeline(p), stops, lowering)
			}
		}
		if g := ft.group(DedupOnly, 12); g != 1<<DedupOnly|1<<AllOptimizations {
			t.Errorf("%s: dedup's group at 12 is %04b, want dedup and all", tg.Name, g)
		}
	}
}

// TestTailKeyKeepsPassListsApart: two pipelines whose modules reach the
// lowering by the same derivation share a tail only if they run the same
// passes from there on. The baseline lowers and stops; the accfg
// pipelines clean up after the lowering.
func TestTailKeyKeepsPassListsApart(t *testing.T) {
	tg := GemminiTarget()
	ft := newForkTable(tg)
	for _, derivation := range [][]string{nil, {"cse"}, {"canonicalize", "cse"}} {
		base, dedup, all := ft.tailKey(Baseline, derivation), ft.tailKey(DedupOnly, derivation), ft.tailKey(AllOptimizations, derivation)
		if base.equal(dedup) {
			t.Errorf("derivation %v: base's and dedup's tails share a key %+v", derivation, base)
		}
		if !dedup.equal(all) {
			t.Errorf("derivation %v: dedup's key %+v and all's %+v differ, yet both run the same passes from the lowering on", derivation, dedup, all)
		}
	}
	if ft.tailKey(DedupOnly, []string{"cse"}).equal(ft.tailKey(DedupOnly, []string{"canonicalize"})) {
		t.Error("two derivations share a key")
	}

	// A family whose dedup shared its tail under derivation D serves it to
	// all at D, and never to the baseline at D.
	fm := newFamilyMemo()
	f := fm.family(tg, WorkloadMatmul, DedupOnly, 32, RunOptions{})
	d := []string{"cse"}
	f.share(ft.tailKey(DedupOnly, d), Result{Target: tg.Name, ProgramInstrs: 7})
	if _, ok := f.tail(ft.tailKey(Baseline, d)); ok {
		t.Error("the baseline took dedup's tail")
	}
	res, ok := f.tail(ft.tailKey(AllOptimizations, d))
	if !ok || res.ProgramInstrs != 7 {
		t.Errorf("all at dedup's derivation: ok=%v, %+v; want dedup's Result", ok, res)
	}
	if _, _, tails := fm.Stats(); tails != 1 {
		t.Errorf("%d tail hits, want 1", tails)
	}
}

// failOnce is a matmul whose first built instance fails its golden verify
// once, while armed is set.
type failOnce struct{ armed atomic.Bool }

func (fo *failOnce) workload(t *testing.T) Workload {
	t.Helper()
	w, err := LookupWorkload(WorkloadMatmul)
	if err != nil {
		t.Fatal(err)
	}
	build := w.Build
	w.Build = func(tg Target, n int) (Instance, error) {
		inst, err := build(tg, n)
		for i, b := range inst.Buffers {
			if verify := b.Verify; verify != nil {
				inst.Buffers[i].Verify = func(m *mem.Memory, base uint64) error {
					if fo.armed.CompareAndSwap(true, false) {
						return errors.New("armed")
					}
					return verify(m, base)
				}
			}
		}
		return inst, err
	}
	return w
}

// TestTailOfAFailedCellIsNotShared: a cell whose run fails shares no tail.
// Its sibling with the same derivation (on Gemmini at n = 32, dedup and
// all) runs its own, to the Result an unshared compile gives, and then
// serves the third (overlap).
func TestTailOfAFailedCellIsNotShared(t *testing.T) {
	const n = 32
	var fo failOnce
	w := fo.workload(t)
	tg := GemminiTarget()
	fm := newFamilyMemo()
	fo.armed.Store(true)
	if _, err := run(tg, w, DedupOnly, n, RunOptions{}, nil, fm); err == nil {
		t.Fatal("armed verify: dedup ran clean")
	}
	for i, p := range []Pipeline{AllOptimizations, OverlapOnly} {
		want, err := Run(tg, w, p, n, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := run(tg, w, p, n, RunOptions{}, nil, fm)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("%s: err = %v, or result differs from an unshared compile's", p, err)
		}
		if _, _, tails := fm.Stats(); tails != uint64(i) {
			t.Errorf("after %s: %d tail hits, want %d", p, tails, i)
		}
	}
}

// TestTailBudget: a shared tail is charged to the family memo's budget and
// freed with its family once every pipeline has reached its lowering; a
// tail the budget has no room for is not kept, and its charge forgets every
// family.
func TestTailBudget(t *testing.T) {
	tg := GemminiTarget()
	fm := newFamilyMemo()
	f := fm.family(tg, WorkloadMatmul, DedupOnly, 32, RunOptions{})
	key := f.forks.tailKey(DedupOnly, nil)
	res := Result{ProgramInstrs: 7}
	before := fm.bytes
	f.reach(DedupOnly)
	f.share(key, res)
	if fm.bytes != before+tailBytes || len(f.tails) != 1 {
		t.Fatalf("one tail: memo charged %d → %d bytes, family holds %d tails; want +%d and one", before, fm.bytes, len(f.tails), tailBytes)
	}
	f.share(key, res)
	if fm.bytes != before+tailBytes || len(f.tails) != 1 {
		t.Errorf("the same key again: %d bytes, %d tails; want it shared once", fm.bytes, len(f.tails))
	}
	for _, p := range Pipelines {
		f.reach(p)
	}
	if fm.bytes != 0 || len(fm.families) != 0 || f.tails != nil {
		t.Errorf("every pipeline reached: memo holds %d bytes and %d families, the family %d tails; want none", fm.bytes, len(fm.families), len(f.tails))
	}
	f.share(f.forks.tailKey(AllOptimizations, []string{"cse"}), res)
	if len(f.tails) != 0 || fm.bytes != 0 {
		t.Errorf("a tail shared after every pipeline reached: %d tails, %d bytes; want none kept", len(f.tails), fm.bytes)
	}

	f = fm.family(tg, WorkloadMatmul, DedupOnly, 32, RunOptions{})
	fm.bytes = familyMemoBudget - tailBytes + 1
	f.share(key, res)
	if len(f.tails) != 0 || fm.bytes != 0 || len(fm.families) != 0 {
		t.Errorf("a tail past the budget: %d tails kept, memo holds %d bytes and %d families; want the memo forgotten", len(f.tails), fm.bytes, len(fm.families))
	}
}

// TestFamilyMemoSubsetTraffic: traffic that asks for a subset of a
// family's pipelines — a one-cell LRU running gemmini/matmul base, dedup,
// overlap, all and base again at n = 128 and 256, so the second base
// recomputes into a family no sibling joins — gets every Result an
// unshared compile gives, and leaves families with no cell in flight. A
// family in flight that charges past the budget forgets those, and keeps
// itself.
func TestFamilyMemoSubsetTraffic(t *testing.T) {
	r := NewRunnerWith(RunnerOptions{Workers: 1, MaxCells: 1})
	for _, n := range []int{128, 256} {
		for _, p := range []Pipeline{Baseline, DedupOnly, OverlapOnly, AllOptimizations, Baseline} {
			e := Experiment{Target: gemmini.Name, Workload: WorkloadMatmul, Pipeline: p, N: n}
			want, err := RunExperiment(e, RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			got, err := r.Run(context.Background(), e, RunOptions{})
			if err != nil || !reflect.DeepEqual(got, want) {
				t.Errorf("%s: err = %v, or result differs from RunExperiment's", e, err)
			}
		}
	}
	fm := r.families
	if len(fm.families) == 0 {
		t.Fatal("the recomputed baselines left no family behind")
	}
	for k, f := range fm.families {
		if f.inflight != 0 {
			t.Errorf("%+v: %d cells in flight after the runs returned, want 0", k, f.inflight)
		}
	}
	busy := fm.family(GemminiTarget(), WorkloadMatmul, DedupOnly, 64, RunOptions{})
	busy.mu.Lock()
	ok := busy.charge(familyMemoBudget - fm.bytes + 1)
	busy.mu.Unlock()
	if !ok || len(fm.families) != 1 || fm.families[busy.key] != busy || fm.bytes != busy.charged {
		t.Errorf("a family in flight charged past the budget: ok=%v, memo holds %d families and %d bytes (the family %d); want it kept alone",
			ok, len(fm.families), fm.bytes, busy.charged)
	}
	busy.reach(DedupOnly)
}

// TestFamilyMemoOverflowForgetsIdleFirst: a charge past the budget forgets
// the families with no cell in flight, the charging family among them when
// it has none; only when that leaves no room does it forget every family.
func TestFamilyMemoOverflowForgetsIdleFirst(t *testing.T) {
	tg := GemminiTarget()
	fm := newFamilyMemo()
	charge := func(f *family, cost int) bool {
		f.mu.Lock()
		defer f.mu.Unlock()
		return f.charge(cost)
	}
	idle := fm.family(tg, WorkloadMatmul, Baseline, 16, RunOptions{})
	idle.reach(Baseline)
	busy := fm.family(tg, WorkloadMatmul, Baseline, 32, RunOptions{})
	if !charge(busy, familyMemoBudget-fm.bytes+1) {
		t.Fatal("the idle family did not pay for the overflow")
	}
	if len(fm.families) != 1 || fm.families[busy.key] != busy || fm.bytes != busy.charged {
		t.Errorf("memo holds %d families and %d bytes; want the family in flight alone, %d bytes", len(fm.families), fm.bytes, busy.charged)
	}
	busy.reach(Baseline)
	if charge(busy, familyMemoBudget) || len(fm.families) != 0 || fm.bytes != 0 {
		t.Errorf("an idle family charged past the budget: memo holds %d families and %d bytes; want it forgotten", len(fm.families), fm.bytes)
	}

	a := fm.family(tg, WorkloadMatmul, Baseline, 16, RunOptions{})
	b := fm.family(tg, WorkloadMatmul, Baseline, 32, RunOptions{})
	if charge(a, familyMemoBudget) || len(fm.families) != 0 || fm.bytes != 0 {
		t.Errorf("no idle family to pay: memo holds %d families and %d bytes; want every family forgotten", len(fm.families), fm.bytes)
	}
	a.reach(Baseline)
	b.reach(Baseline)
}
