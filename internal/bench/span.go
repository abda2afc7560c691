package bench

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"time"
)

// Span is one timed interval at a layer boundary. Spans of one request frame
// share Frame; Parent indexes the span that caused this one (-1 for a root).
// Start and End are nanoseconds from the tracer's origin.
type Span struct {
	Name   string
	Start  int64
	End    int64
	Parent int32
	Frame  int32
}

// Tracer keeps spans in a preallocated slice and writes them out when the
// run ends, so recording one costs two clock reads and a slot write. A nil
// Tracer records nothing: the spans-off pass that prices tracing runs the
// same code.
type Tracer struct {
	origin time.Time
	spans  []Span
}

// NewTracer preallocates room for capacity spans; recording past it grows
// the slice (amortised, and visible in span.overhead_share).
func NewTracer(capacity int) *Tracer {
	return &Tracer{origin: time.Now(), spans: make([]Span, 0, capacity)}
}

// Begin opens a span and returns its index, or -1 on a nil Tracer.
func (t *Tracer) Begin(name string, parent, frame int32) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, Span{Name: name, Start: int64(time.Since(t.origin)),
		Parent: parent, Frame: frame})
	return int32(len(t.spans) - 1)
}

// End closes the span Begin returned.
func (t *Tracer) End(i int32) {
	if t == nil || i < 0 {
		return
	}
	t.spans[i].End = int64(time.Since(t.origin))
}

// Spans returns everything recorded so far.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	return t.spans
}

// WriteJSONL writes one JSON object per span to path.
func (t *Tracer) WriteJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for i, s := range t.Spans() {
		fmt.Fprintf(w, "{\"id\":%d,\"name\":%q,\"start_ns\":%d,\"end_ns\":%d,\"parent\":%d,\"frame\":%d}\n",
			i, s.Name, s.Start, s.End, s.Parent, s.Frame)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("bench: write spans: %w", err)
	}
	return f.Close()
}

// SelfTimes returns, per span, its duration minus the part of its interval
// that its direct children cover. Overlapping children are not counted
// twice, and a child is clipped to its parent's interval.
func SelfTimes(spans []Span) []int64 {
	children := make(map[int32][]int32)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
		kids := children[int32(i)]
		if len(kids) == 0 {
			continue
		}
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, reach), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] -= covered
	}
	return self
}

// spanTotals sums span durations by name.
func spanTotals(spans []Span) map[string]int64 {
	out := make(map[string]int64)
	for _, s := range spans {
		out[s.Name] += s.End - s.Start
	}
	return out
}

// timeCalls runs fn total times in chunks of chunk calls, one span per chunk
// so the timer's own cost is amortised over the chunk, and returns the
// median chunk's nanoseconds per call: a chunk that lost the CPU to another
// process moves a mean and not the median.
func timeCalls(t *Tracer, name string, total, chunk int, fn func(i int)) float64 {
	if chunk > total {
		chunk = total
	}
	per := make([]float64, 0, total/chunk)
	for base := 0; base+chunk <= total; base += chunk {
		start := time.Now()
		sp := t.Begin(name, -1, -1)
		for i := base; i < base+chunk; i++ {
			fn(i)
		}
		t.End(sp)
		per = append(per, float64(time.Since(start))/float64(chunk))
	}
	return Median(per)
}
