package trace_test

import (
	"math/rand"
	"strings"
	"testing"

	"configwall/internal/sim"
	"configwall/internal/trace"
)

func sampleSegments() []sim.Segment {
	return []sim.Segment{
		{Kind: sim.SegHostExec, Start: 0, End: 10},
		{Kind: sim.SegHostConfig, Start: 10, End: 20},
		{Kind: sim.SegAccelBusy, Start: 20, End: 50},
		{Kind: sim.SegHostStall, Start: 20, End: 50},
		{Kind: sim.SegHostExec, Start: 50, End: 60},
	}
}

// randomSegmentStream builds a plausible recorder output: a host track of
// contiguous non-empty segments (with deliberate same-kind runs so
// coalescing has work to do) and an accelerator track of busy intervals,
// interleaved the way Machine.record emits them.
func randomSegmentStream(rng *rand.Rand) []sim.Segment {
	var segs []sim.Segment
	hostKinds := []sim.SegmentKind{sim.SegHostExec, sim.SegHostConfig, sim.SegHostStall}
	now := uint64(rng.Intn(5))
	kind := hostKinds[rng.Intn(len(hostKinds))]
	for i, n := 0, 5+rng.Intn(60); i < n; i++ {
		// Frequently keep the previous kind to create mergeable runs, and
		// occasionally leave a gap so not everything is contiguous.
		if rng.Intn(3) == 0 {
			kind = hostKinds[rng.Intn(len(hostKinds))]
		}
		if rng.Intn(8) == 0 {
			now += 1 + uint64(rng.Intn(7))
		}
		d := 1 + uint64(rng.Intn(9))
		segs = append(segs, sim.Segment{Kind: kind, Start: now, End: now + d})
		now += d
		if rng.Intn(6) == 0 {
			busyStart := now - uint64(rng.Intn(int(d)))
			segs = append(segs, sim.Segment{Kind: sim.SegAccelBusy, Start: busyStart, End: busyStart + 1 + uint64(rng.Intn(20))})
		}
	}
	return segs
}

// TestCoalescePreservesObservables is the property test for trace-segment
// coalescing: for random recorder-shaped streams, the coalesced stream
// must be no longer than the raw one and must produce byte-identical
// Summarize, OverlapCycles and Timeline output.
func TestCoalescePreservesObservables(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		raw := randomSegmentStream(rng)
		merged := trace.Coalesce(raw)
		if len(merged) > len(raw) {
			t.Fatalf("trial %d: coalesced stream grew: %d -> %d", trial, len(raw), len(merged))
		}
		// Coalesced runs must actually be merged: no two adjacent output
		// segments may be contiguous and same-kind.
		for i := 1; i < len(merged); i++ {
			if merged[i].Kind == merged[i-1].Kind && merged[i].Start == merged[i-1].End {
				t.Fatalf("trial %d: unmerged adjacent segments %+v %+v", trial, merged[i-1], merged[i])
			}
		}
		if a, b := trace.Summarize(raw), trace.Summarize(merged); a != b {
			t.Fatalf("trial %d: Summarize differs:\nraw:    %+v\nmerged: %+v", trial, a, b)
		}
		if a, b := trace.OverlapCycles(raw), trace.OverlapCycles(merged); a != b {
			t.Fatalf("trial %d: OverlapCycles differs: raw %d, merged %d", trial, a, b)
		}
		var hi uint64
		for _, s := range raw {
			if s.End > hi {
				hi = s.End
			}
		}
		for _, width := range []int{1, 17, 80} {
			if a, b := trace.Timeline(raw, 0, hi, width), trace.Timeline(merged, 0, hi, width); a != b {
				t.Fatalf("trial %d width %d: Timeline differs:\nraw:\n%s\nmerged:\n%s", trial, width, a, b)
			}
		}
	}
}

func TestCoalesceDropsEmptyAndMergesRuns(t *testing.T) {
	raw := []sim.Segment{
		{Kind: sim.SegHostExec, Start: 0, End: 4},
		{Kind: sim.SegHostExec, Start: 4, End: 4}, // empty: dropped
		{Kind: sim.SegHostExec, Start: 4, End: 9},
		{Kind: sim.SegHostConfig, Start: 9, End: 12},
		{Kind: sim.SegHostExec, Start: 12, End: 14}, // same kind, gap at 14
		{Kind: sim.SegHostExec, Start: 15, End: 16}, // not contiguous: kept
	}
	got := trace.Coalesce(raw)
	want := []sim.Segment{
		{Kind: sim.SegHostExec, Start: 0, End: 9},
		{Kind: sim.SegHostConfig, Start: 9, End: 12},
		{Kind: sim.SegHostExec, Start: 12, End: 14},
		{Kind: sim.SegHostExec, Start: 15, End: 16},
	}
	if len(got) != len(want) {
		t.Fatalf("Coalesce = %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Coalesce[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestTimelineRendering(t *testing.T) {
	out := trace.Timeline(sampleSegments(), 0, 60, 60)
	if !strings.Contains(out, "host  |") || !strings.Contains(out, "accel |") {
		t.Fatalf("missing rows:\n%s", out)
	}
	lines := strings.Split(out, "\n")
	var host, acc string
	for _, l := range lines {
		if strings.HasPrefix(l, "host  |") {
			host = l
		}
		if strings.HasPrefix(l, "accel |") {
			acc = l
		}
	}
	if !strings.Contains(host, "E") || !strings.Contains(host, "C") {
		t.Errorf("host row missing activity: %s", host)
	}
	if !strings.Contains(acc, "#") {
		t.Errorf("accel row missing busy: %s", acc)
	}
	// The busy period occupies roughly the middle half of the plot.
	busyStart := strings.Index(acc, "#")
	if busyStart < 15 || busyStart > 30 {
		t.Errorf("busy starts at col %d, want ~20/60 of width", busyStart)
	}
}

func TestTimelineEmptyRanges(t *testing.T) {
	if out := trace.Timeline(nil, 10, 10, 50); out != "" {
		t.Error("empty range should render nothing")
	}
	if out := trace.Timeline(nil, 0, 100, 0); out != "" {
		t.Error("zero width should render nothing")
	}
}

func TestTimelineClipsToWindow(t *testing.T) {
	out := trace.Timeline(sampleSegments(), 15, 25, 10)
	if out == "" {
		t.Fatal("window render empty")
	}
	// Segments entirely outside the window must not appear: at 15..25 the
	// host exec segments (0..10 and 50..60) are invisible, so the host row
	// shows only configuration and idle.
	hostRow := ""
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, "host  |") {
			hostRow = l
		}
	}
	if strings.Contains(hostRow, "E") {
		t.Errorf("host row shows out-of-window segments: %s", hostRow)
	}
	if !strings.Contains(hostRow, "C") {
		t.Errorf("host row missing in-window config segment: %s", hostRow)
	}
}

func TestSummarize(t *testing.T) {
	s := trace.Summarize(sampleSegments())
	if s.HostExec != 20 {
		t.Errorf("HostExec = %d, want 20", s.HostExec)
	}
	if s.HostConfig != 10 {
		t.Errorf("HostConfig = %d, want 10", s.HostConfig)
	}
	if s.HostStall != 30 {
		t.Errorf("HostStall = %d, want 30", s.HostStall)
	}
	if s.AccelBusy != 30 {
		t.Errorf("AccelBusy = %d, want 30", s.AccelBusy)
	}
}

func TestOverlapCycles(t *testing.T) {
	segs := []sim.Segment{
		{Kind: sim.SegAccelBusy, Start: 0, End: 100},
		{Kind: sim.SegHostConfig, Start: 50, End: 80}, // 30 overlapped
		{Kind: sim.SegHostExec, Start: 90, End: 120},  // 10 overlapped
		{Kind: sim.SegHostStall, Start: 80, End: 90},  // stalls never count
	}
	if got := trace.OverlapCycles(segs); got != 40 {
		t.Errorf("OverlapCycles = %d, want 40", got)
	}
	if got := trace.OverlapCycles(nil); got != 0 {
		t.Errorf("OverlapCycles(nil) = %d, want 0", got)
	}
}

// overlapCyclesQuadratic is the replaced O(segments²) scan, kept as the
// reference oracle for the sweep implementation.
func overlapCyclesQuadratic(segs []sim.Segment) uint64 {
	var busy []sim.Segment
	for _, s := range segs {
		if s.Kind == sim.SegAccelBusy {
			busy = append(busy, s)
		}
	}
	var total uint64
	for _, s := range segs {
		if s.Kind != sim.SegHostExec && s.Kind != sim.SegHostConfig {
			continue
		}
		for _, b := range busy {
			lo, hi := s.Start, s.End
			if b.Start > lo {
				lo = b.Start
			}
			if b.End < hi {
				hi = b.End
			}
			if hi > lo {
				total += hi - lo
			}
		}
	}
	return total
}

// randomTimeline builds a machine-shaped random trace: host segments of
// mixed kinds walking forward in time, with non-overlapping accelerator
// busy intervals (the co-simulator's clock is monotonic and jobs
// serialize, so real traces never overlap busy segments).
func randomTimeline(rng *rand.Rand, n int) []sim.Segment {
	var segs []sim.Segment
	hostNow, accelNow := uint64(0), uint64(0)
	for i := 0; i < n; i++ {
		switch rng.Intn(5) {
		case 0: // accelerator job
			start := accelNow + uint64(rng.Intn(20))
			end := start + 1 + uint64(rng.Intn(50))
			segs = append(segs, sim.Segment{Kind: sim.SegAccelBusy, Start: start, End: end})
			accelNow = end
		case 1:
			hostNow += uint64(rng.Intn(10))
			end := hostNow + 1 + uint64(rng.Intn(30))
			segs = append(segs, sim.Segment{Kind: sim.SegHostStall, Start: hostNow, End: end})
			hostNow = end
		default:
			kind := sim.SegHostExec
			if rng.Intn(2) == 0 {
				kind = sim.SegHostConfig
			}
			hostNow += uint64(rng.Intn(5))
			end := hostNow + 1 + uint64(rng.Intn(25))
			segs = append(segs, sim.Segment{Kind: kind, Start: hostNow, End: end})
			hostNow = end
		}
	}
	return segs
}

// TestOverlapCyclesMatchesQuadratic cross-checks the sorted sweep against
// the quadratic oracle on randomized machine-shaped timelines.
func TestOverlapCyclesMatchesQuadratic(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		segs := randomTimeline(rng, 1+rng.Intn(120))
		want := overlapCyclesQuadratic(segs)
		if got := trace.OverlapCycles(segs); got != want {
			t.Fatalf("trial %d: OverlapCycles = %d, quadratic oracle = %d\nsegs: %+v", trial, got, want, segs)
		}
	}
}

// TestOverlapCyclesCoalescesOverlappingBusy: should a trace ever contain
// overlapping busy intervals, a hidden host cycle counts once (union
// semantics), not once per busy segment.
func TestOverlapCyclesCoalescesOverlappingBusy(t *testing.T) {
	segs := []sim.Segment{
		{Kind: sim.SegAccelBusy, Start: 0, End: 60},
		{Kind: sim.SegAccelBusy, Start: 40, End: 100}, // overlaps the first
		{Kind: sim.SegHostExec, Start: 30, End: 70},   // inside the union
	}
	if got := trace.OverlapCycles(segs); got != 40 {
		t.Errorf("OverlapCycles = %d, want 40 (union, not double-counted)", got)
	}
}
