// Package trace renders co-simulator timelines as ASCII art in the style of
// the paper's Figures 2 and 7: one row for the host (execution,
// configuration, stalls) and one for the accelerator (busy, idle), making
// configuration overhead and overlap visually inspectable.
package trace

import (
	"fmt"
	"sort"
	"strings"

	"configwall/internal/sim"
)

// Timeline renders the recorded segments between fromCycle and toCycle into
// width columns. Legend: host row E=execute C=configure .=stalled/idle;
// accelerator row #=busy .=idle.
func Timeline(segs []sim.Segment, fromCycle, toCycle uint64, width int) string {
	if toCycle <= fromCycle || width <= 0 {
		return ""
	}
	host := []byte(strings.Repeat(".", width))
	acc := []byte(strings.Repeat(".", width))
	// Column k covers the half-open time interval
	// [fromCycle + k*span/width, fromCycle + (k+1)*span/width); a segment
	// paints exactly the columns whose interval it intersects. The
	// all-integer form keeps the mapping exact (no float rounding) and
	// makes rendering invariant under segment coalescing: contiguous
	// same-kind segments paint the same columns merged or not, at every
	// width — including widths above the cycle span, where the previous
	// floor-based right edge left spurious idle gaps inside contiguous
	// activity.
	span := toCycle - fromCycle
	w := uint64(width)
	paint := func(row []byte, s sim.Segment, ch byte) {
		if s.End <= fromCycle || s.Start >= toCycle {
			return
		}
		a, b := s.Start, s.End
		if a < fromCycle {
			a = fromCycle
		}
		if b > toCycle {
			b = toCycle
		}
		lo := (a - fromCycle) * w / span
		hi := ((b-fromCycle)*w - 1) / span
		if hi > w-1 {
			hi = w - 1
		}
		for c := lo; c <= hi; c++ {
			row[c] = ch
		}
	}
	for _, s := range segs {
		switch s.Kind {
		case sim.SegHostExec:
			paint(host, s, 'E')
		case sim.SegHostConfig:
			paint(host, s, 'C')
		case sim.SegHostStall:
			paint(host, s, '.')
		case sim.SegAccelBusy:
			paint(acc, s, '#')
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "cycles %d..%d\n", fromCycle, toCycle)
	fmt.Fprintf(&sb, "host  |%s|\n", host)
	fmt.Fprintf(&sb, "accel |%s|\n", acc)
	sb.WriteString("legend: E=host execute  C=host configure  .=idle/stall  #=accelerator busy\n")
	return sb.String()
}

// Coalesce merges adjacent same-kind contiguous segments and drops empty
// ones, returning a new slice. It is the offline form of the merging the
// simulator performs at record time (Machine.record): for any stream of
// non-empty segments — the only kind the recorder emits — Summarize,
// OverlapCycles and Timeline produce identical output for the raw and the
// coalesced stream (see the property tests), so a coalesced trace is a
// drop-in, smaller replacement for a raw one.
func Coalesce(segs []sim.Segment) []sim.Segment {
	var out []sim.Segment
	for _, s := range segs {
		if s.End <= s.Start {
			continue
		}
		if n := len(out); n > 0 && out[n-1].Kind == s.Kind && out[n-1].End == s.Start {
			out[n-1].End = s.End
			continue
		}
		out = append(out, s)
	}
	return out
}

// Summary aggregates segment durations per kind.
type Summary struct {
	HostExec   uint64
	HostConfig uint64
	HostStall  uint64
	AccelBusy  uint64
}

// Summarize totals the recorded segments.
func Summarize(segs []sim.Segment) Summary {
	var s Summary
	for _, seg := range segs {
		d := seg.End - seg.Start
		switch seg.Kind {
		case sim.SegHostExec:
			s.HostExec += d
		case sim.SegHostConfig:
			s.HostConfig += d
		case sim.SegHostStall:
			s.HostStall += d
		case sim.SegAccelBusy:
			s.AccelBusy += d
		}
	}
	return s
}

// OverlapCycles estimates how many cycles of host activity were hidden
// behind accelerator execution: the overlap between host exec/config
// segments and the union of accelerator busy intervals.
//
// Instead of testing every host segment against every busy segment
// (quadratic in the trace length — painful on big-n timelines with tens of
// thousands of segments), the busy intervals are merged into a sorted
// disjoint set once, and each host segment binary-searches its first
// overlapping interval. Merged disjoint intervals have monotonic ends, so
// the search is sound and each host segment only walks intervals it
// actually overlaps.
func OverlapCycles(segs []sim.Segment) uint64 {
	busy := mergedBusyIntervals(segs)
	if len(busy) == 0 {
		return 0
	}
	var total uint64
	for _, s := range segs {
		if s.Kind != sim.SegHostExec && s.Kind != sim.SegHostConfig {
			continue
		}
		// First busy interval ending after the host segment starts.
		i := sort.Search(len(busy), func(i int) bool { return busy[i].End > s.Start })
		for ; i < len(busy) && busy[i].Start < s.End; i++ {
			lo, hi := max(s.Start, busy[i].Start), min(s.End, busy[i].End)
			if hi > lo {
				total += hi - lo
			}
		}
	}
	return total
}

// mergedBusyIntervals extracts the accelerator-busy segments as a sorted,
// disjoint interval set (overlapping or adjacent busy segments coalesce,
// so a cycle hidden behind two overlapping jobs still counts once).
func mergedBusyIntervals(segs []sim.Segment) []sim.Segment {
	var busy []sim.Segment
	for _, s := range segs {
		if s.Kind == sim.SegAccelBusy && s.End > s.Start {
			busy = append(busy, s)
		}
	}
	if len(busy) == 0 {
		return nil
	}
	sort.Slice(busy, func(i, j int) bool { return busy[i].Start < busy[j].Start })
	merged := busy[:1]
	for _, b := range busy[1:] {
		last := &merged[len(merged)-1]
		if b.Start <= last.End {
			if b.End > last.End {
				last.End = b.End
			}
			continue
		}
		merged = append(merged, b)
	}
	return merged
}
