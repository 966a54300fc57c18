package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one operation share Op;
// Parent is the id of the span that caused this one (-1 for an operation's
// root span). Times are nanoseconds since the recorder's epoch.
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Count is set on a coalesced span: the calls it stands for. A 512
	// cell launches its device thousands of times, and a span each would
	// cost more than the launches, so the launches of one simulation are
	// recorded as one span that starts at the first launch and is as long
	// as all of them together.
	Count int `json:"count,omitempty"`
}

// recorder keeps spans in memory until the run ends. A nil recorder is
// tracing switched off: every method is a no-op, so one operation body
// serves the traced and the untraced run.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its id. A negative op starts a new
// operation, named after this span's own id.
func (r *recorder) begin(name string, op, parent int) int {
	if r == nil {
		return -1
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	id := len(r.spans)
	if op < 0 {
		op = id
	}
	r.spans = append(r.spans, span{Name: name, ID: id, Parent: parent, Op: op, Start: now})
	r.mu.Unlock()
	return id
}

// end closes the span begin returned.
func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// coalesced records count calls that began at start and took total
// altogether as one child span of parent.
func (r *recorder) coalesced(name string, op, parent int, start time.Time, total time.Duration, count int) {
	if r == nil || count == 0 {
		return
	}
	s := int64(start.Sub(r.epoch))
	r.mu.Lock()
	r.spans = append(r.spans, span{Name: name, ID: len(r.spans), Parent: parent, Op: op, Start: s, End: s + int64(total), Count: count})
	r.mu.Unlock()
}

// write stores the spans as one JSON array.
func (r *recorder) write(path string) error {
	data, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// spanTimes groups span durations and self times by span name. A span's
// self time is its duration minus the part of its interval that its direct
// children cover; children that overlap each other (two workers under one
// parent) are merged first so the overlap is subtracted once.
func spanTimes(spans []span) (total, self map[string][]float64) {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	total, self = map[string][]float64{}, map[string][]float64{}
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			from, to := max(k.Start, edge), min(k.End, s.End)
			if to > from {
				covered += to - from
				edge = to
			}
		}
		d := s.End - s.Start
		total[s.Name] = append(total[s.Name], float64(d))
		self[s.Name] = append(self[s.Name], float64(d-covered))
	}
	return total, self
}
