package obsv

import (
	"math"
	"sort"
	"sync/atomic"
)

// refRecorder is the seqlock ring Recorder replaced, kept as the reference
// FuzzRecorderMatchesReference holds the owned ring to: a writer fetch-adds
// the cursor, zeroes the slot's publish tag, stores the event words one
// atomic at a time and stores the tag last; a drain copies between two tag
// reads, drops a slot whose tag moved, and sorts what it kept by tag. Its
// Tail reads filters by Recorder's rule (only a literal Filter{} means
// everything), so the two differ only in the ring.
type refRecorder struct {
	cursor atomic.Uint64
	slots  []refSlot
	mask   uint64
}

type refSlot struct {
	pub  atomic.Uint64 // 0 while being written, else ring position+1
	at   atomic.Int64
	qid  atomic.Int64
	fp   atomic.Uint64
	meta atomic.Uint64 // kind | reason<<8 | verdict<<16 | class<<32
	val  atomic.Uint64
	aux  atomic.Uint64
}

// newRefRecorder builds a reference of exactly size slots (a power of two).
func newRefRecorder(size int) *refRecorder {
	return &refRecorder{slots: make([]refSlot, size), mask: uint64(size - 1)}
}

func (r *refRecorder) Record(e Event) {
	pos := r.cursor.Add(1) - 1
	s := &r.slots[pos&r.mask]
	s.pub.Store(0)
	s.at.Store(e.At)
	s.qid.Store(e.QID)
	s.fp.Store(e.FP)
	s.meta.Store(uint64(e.Kind) | uint64(e.Reason)<<8 | uint64(e.Verdict)<<16 |
		uint64(uint32(e.Class))<<32)
	s.val.Store(math.Float64bits(e.Value))
	s.aux.Store(math.Float64bits(e.Aux))
	s.pub.Store(pos + 1)
}

func (r *refRecorder) Recorded() uint64 { return r.cursor.Load() }

func (r *refRecorder) Overwritten() uint64 {
	if c, size := r.cursor.Load(), r.mask+1; c > size {
		return c - size
	}
	return 0
}

func (r *refRecorder) Tail(n int, f Filter) []Event {
	if f == (Filter{}) {
		f = MatchAll
	}
	var out []Event
	var e Event
	limit := min(r.cursor.Load(), r.mask+1)
	for j := uint64(0); j < limit; j++ {
		s := &r.slots[j]
		p1 := s.pub.Load()
		if p1 == 0 {
			continue
		}
		e.At = s.at.Load()
		e.QID = s.qid.Load()
		e.FP = s.fp.Load()
		m := s.meta.Load()
		e.Kind = Kind(m & 0xFF)
		e.Reason = Reason(m >> 8 & 0xFF)
		e.Verdict = uint8(m >> 16 & 0xFF)
		e.Class = int32(uint32(m >> 32))
		e.Value = math.Float64frombits(s.val.Load())
		e.Aux = math.Float64frombits(s.aux.Load())
		if s.pub.Load() != p1 {
			continue // overwritten mid-copy
		}
		e.Seq = p1
		if f.match(&e) {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Seq < out[b].Seq })
	if n > 0 && len(out) > n {
		out = out[len(out)-n:]
	}
	return out
}
