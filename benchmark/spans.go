package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one call into a layer during the staged replay. Times are
// nanoseconds on the replay clock, which stops while the harness does
// its own bookkeeping (allocation counts, re-measurement). A
// re-measured span times work its parent does inside one call the
// harness cannot see into (PNG encode inside Client.Flush, RC4 inside
// Batch.WriteTo): the same work is run again on its own, off the
// clock, and laid at the start of the parent's interval.
type span struct {
	ID         int    `json:"id"`
	Parent     int    `json:"parent"` // 0: a root span, one per op
	Workload   string `json:"workload"`
	Op         int    `json:"op"`
	Name       string `json:"name"`
	Start      int64  `json:"start_ns"`
	End        int64  `json:"end_ns"`
	Remeasured bool   `json:"remeasured,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory until the benchmark ends.
type recorder struct {
	workload string
	spans    []span

	origin time.Time
	paused time.Duration
}

func newRecorder(workload string) *recorder {
	return &recorder{workload: workload, origin: time.Now()}
}

func (r *recorder) now() int64 { return int64(time.Since(r.origin) - r.paused) }

// offClock runs harness bookkeeping without charging it to any span.
func (r *recorder) offClock(f func()) {
	start := time.Now()
	f()
	r.paused += time.Since(start)
}

// begin opens a span and returns its id.
func (r *recorder) begin(name string, parent, op int) int {
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent,
		Workload: r.workload, Op: op, Name: name, Start: r.now()})
	return len(r.spans)
}

func (r *recorder) end(id int) { r.spans[id-1].End = r.now() }

// remeasured lays a child of dur nanoseconds at the start of parent.
func (r *recorder) remeasured(name string, parent int, dur int64) {
	p := r.spans[parent-1]
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Workload: r.workload,
		Op: p.Op, Name: name, Start: p.Start, End: p.Start + dur, Remeasured: true})
}

// selfTimes returns, per span id, the span's duration minus the part of
// its interval its child spans cover (children clipped to the parent,
// overlaps counted once).
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// selfByName sums self times per span name.
func selfByName(spans []span) map[string]int64 {
	self := selfTimes(spans)
	out := map[string]int64{}
	for _, s := range spans {
		out[s.Name] += self[s.ID]
	}
	return out
}

// writeSpans writes spans as NDJSON, one span per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
