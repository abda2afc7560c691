package metrics

import (
	"encoding/binary"
	"math"
	"sync/atomic"
	"testing"
)

// refLogG, refBucketIndex and refBucketUpper are the bucket layout as the
// striped histogram computed it before the table: a logarithm per record and
// a power per reported bound. FuzzStripedBucketIndexMatchesFormula holds the
// table to them.
var refLogG = math.Log(stripedGrowth)

func refBucketIndex(v float64) int {
	if v <= stripedBase {
		return 0
	}
	i := int(math.Log(v/stripedBase)/refLogG) + 1
	if i >= stripedBuckets {
		return stripedBuckets - 1
	}
	return i
}

func refBucketUpper(i int) float64 {
	if i == 0 {
		return stripedBase
	}
	return stripedBase * math.Pow(stripedGrowth, float64(i))
}

// refHistogram is the striped histogram the shard-owned one replaced, kept as
// the reference FuzzStripedHistogramMatchesReference holds it to: every
// field of a shard is its own atomic, sum/min/max are CAS loops on the float
// bits, and a merge derives each shard's count from the buckets it loaded.
type refHistogram struct {
	shards []refShard
	mask   uint32
}

type refShard struct {
	buckets [stripedBuckets]atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64
	minBits atomic.Uint64
	maxBits atomic.Uint64
	_       [64]byte
}

func newRefHistogram(shards int) *refHistogram {
	n := StripeShards(shards)
	h := &refHistogram{shards: make([]refShard, n), mask: uint32(n - 1)}
	for i := range h.shards {
		h.shards[i].minBits.Store(math.Float64bits(math.Inf(1)))
		h.shards[i].maxBits.Store(math.Float64bits(math.Inf(-1)))
	}
	return h
}

func (h *refHistogram) RecordAt(stripe uint32, v float64) {
	if math.IsNaN(v) || v < 0 {
		v = 0
	}
	const maxValue = 1e18
	if v > maxValue {
		v = maxValue
	}
	s := &h.shards[stripe&h.mask]
	for {
		old := s.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if s.sumBits.CompareAndSwap(old, next) {
			break
		}
	}
	for {
		old := s.minBits.Load()
		if v >= math.Float64frombits(old) {
			break
		}
		if s.minBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
	for {
		old := s.maxBits.Load()
		if v <= math.Float64frombits(old) {
			break
		}
		if s.maxBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
	s.buckets[refBucketIndex(v)].Add(1)
	s.count.Add(1)
}

func (h *refHistogram) MergeBuckets(dst *[StripedBuckets]int64) (count int64, sum float64) {
	*dst = [StripedBuckets]int64{}
	for i := range h.shards {
		s := &h.shards[i]
		if s.count.Load() == 0 {
			continue
		}
		for b := range s.buckets {
			n := s.buckets[b].Load()
			dst[b] += n
			count += n
		}
		sum += math.Float64frombits(s.sumBits.Load())
	}
	return count, sum
}

func (h *refHistogram) merge() merged {
	m := merged{min: math.Inf(1), max: math.Inf(-1)}
	m.count, m.sum = h.MergeBuckets(&m.buckets)
	for i := range h.shards {
		s := &h.shards[i]
		if v := math.Float64frombits(s.minBits.Load()); v < m.min {
			m.min = v
		}
		if v := math.Float64frombits(s.maxBits.Load()); v > m.max {
			m.max = v
		}
	}
	return m
}

func (h *refHistogram) Count() int64 {
	var n int64
	for i := range h.shards {
		n += h.shards[i].count.Load()
	}
	return n
}

func (h *refHistogram) Cumulative(f func(upperBound float64, cumulative int64)) (count int64, sum float64) {
	m := h.merge()
	var cum int64
	for i, n := range m.buckets {
		if n == 0 {
			continue
		}
		cum += n
		f(refBucketUpper(i), cum)
	}
	return m.count, m.sum
}

func refPercentile(m *merged, p float64) float64 {
	if m.count == 0 {
		return 0
	}
	if p <= 0 {
		return m.min
	}
	if p >= 100 {
		return m.max
	}
	rank := int64(math.Ceil(p / 100 * float64(m.count)))
	var seen int64
	for i, n := range m.buckets {
		seen += n
		if seen >= rank {
			u := refBucketUpper(i)
			if u > m.max {
				u = m.max
			}
			if u < m.min {
				u = m.min
			}
			return u
		}
	}
	return m.max
}

func (h *refHistogram) Snapshot() Snapshot {
	m := h.merge()
	if m.count == 0 {
		return Snapshot{}
	}
	return Snapshot{
		Count: m.count,
		Mean:  m.sum / float64(m.count),
		Min:   m.min,
		Max:   m.max,
		P50:   refPercentile(&m, 50),
		P90:   refPercentile(&m, 90),
		P95:   refPercentile(&m, 95),
		P99:   refPercentile(&m, 99),
		Sum:   m.sum,
	}
}

// FuzzStripedBucketIndexMatchesFormula: the table-driven bucket index equals
// the logarithm formula on every value RecordAt can pass it, and the table's
// upper bounds equal the power formula. The seeds put every bucket boundary
// to the test from both sides, so the seed corpus alone checks that no
// table cell hides a boundary.
func FuzzStripedBucketIndexMatchesFormula(f *testing.F) {
	for _, v := range []float64{0, math.Copysign(0, -1), 5e-324, 2.2250738585072014e-308,
		stripedBase, math.Nextafter(stripedBase, 1), 1e-7, 1.5e-4, 3e-4, 1,
		maxSample, math.Nextafter(maxSample, 0), math.Inf(1), math.NaN(), -1} {
		f.Add(v)
	}
	for i := 1; i < stripedBuckets; i++ {
		b := stripedLayout.lower[i]
		f.Add(b)
		f.Add(math.Nextafter(b, 0))
		f.Add(math.Nextafter(b, math.Inf(1)))
	}
	f.Fuzz(func(t *testing.T, v float64) {
		v = clampSample(v)
		if got, want := stripedBucketIndex(v), refBucketIndex(v); got != want {
			t.Fatalf("bucket(%v [%#x]) = %d, formula %d", v, math.Float64bits(v), got, want)
		}
		i := refBucketIndex(v)
		if got, want := stripedBucketUpper(i), refBucketUpper(i); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("upper(%d) = %v, formula %v", i, got, want)
		}
	})
}

// FuzzStripedHistogramMatchesReference feeds one value stream, with its
// stripes, to the shard-owned histogram and to refHistogram and requires
// bit-identical merged views. Each 9-byte record is a stripe byte and eight
// value bytes: with the stripe's top bit set the bytes are a raw float64
// (NaN, infinities, negatives, subnormals), otherwise their top 24 bits are
// nanoseconds, the range live service times fall in.
func FuzzStripedHistogramMatchesReference(f *testing.F) {
	seed := func(recs ...[9]byte) []byte {
		var out []byte
		for _, r := range recs {
			out = append(out, r[:]...)
		}
		return out
	}
	rec := func(stripe byte, bits uint64) (r [9]byte) {
		r[0] = stripe
		binary.LittleEndian.PutUint64(r[1:], bits)
		return r
	}
	f.Add([]byte{})
	f.Add(seed(rec(0, 150_000<<40), rec(1, 300_000<<40), rec(2, 100_000<<40), rec(3, 1<<40)))
	f.Add(seed(rec(0x80, math.Float64bits(math.NaN())), rec(0x81, math.Float64bits(-3)),
		rec(0x82, math.Float64bits(math.Inf(1))), rec(0x83, 1), rec(0x80, math.Float64bits(math.Copysign(0, -1))),
		rec(0x81, 0), rec(0x82, math.Float64bits(stripedBase)), rec(0x83, math.Float64bits(1e30))))
	f.Fuzz(func(t *testing.T, data []byte) {
		h, ref := NewStripedHistogram(4), newRefHistogram(4)
		for ; len(data) >= 9; data = data[9:] {
			bits := binary.LittleEndian.Uint64(data[1:9])
			v := float64(bits>>40) * 1e-9
			if data[0]&0x80 != 0 {
				v = math.Float64frombits(bits)
			}
			h.RecordAt(uint32(data[0]), v)
			ref.RecordAt(uint32(data[0]), v)
		}

		var got, want [StripedBuckets]int64
		gc, gs := h.MergeBuckets(&got)
		wc, ws := ref.MergeBuckets(&want)
		if got != want || gc != wc || math.Float64bits(gs) != math.Float64bits(ws) {
			t.Fatalf("MergeBuckets = (%d, %v, %v), reference (%d, %v, %v)", gc, gs, got, wc, ws, want)
		}
		if gn, wn := h.Count(), ref.Count(); gn != wn {
			t.Fatalf("Count = %d, reference %d", gn, wn)
		}
		if gs, ws := snapshotBits(h.Snapshot()), snapshotBits(ref.Snapshot()); gs != ws {
			t.Fatalf("Snapshot bits = %x, reference %x", gs, ws)
		}
		var gcum, wcum [][2]uint64
		gc, gs = h.Cumulative(func(le float64, n int64) { gcum = append(gcum, [2]uint64{math.Float64bits(le), uint64(n)}) })
		wc, ws = ref.Cumulative(func(le float64, n int64) { wcum = append(wcum, [2]uint64{math.Float64bits(le), uint64(n)}) })
		if len(gcum) != len(wcum) || gc != wc || math.Float64bits(gs) != math.Float64bits(ws) {
			t.Fatalf("Cumulative = (%d, %v, %d series), reference (%d, %v, %d series)", gc, gs, len(gcum), wc, ws, len(wcum))
		}
		for i := range gcum {
			if gcum[i] != wcum[i] {
				t.Fatalf("Cumulative series %d = %x, reference %x", i, gcum[i], wcum[i])
			}
		}
	})
}

// snapshotBits is a Snapshot with every float as its bit pattern, so that
// comparing two tells -0 from +0.
func snapshotBits(s Snapshot) [9]uint64 {
	return [9]uint64{uint64(s.Count), math.Float64bits(s.Mean), math.Float64bits(s.Min),
		math.Float64bits(s.Max), math.Float64bits(s.P50), math.Float64bits(s.P90),
		math.Float64bits(s.P95), math.Float64bits(s.P99), math.Float64bits(s.Sum)}
}
