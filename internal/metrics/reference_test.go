package metrics

import (
	"encoding/binary"
	"math"
	"sync/atomic"
	"testing"
)

// refLogG, refBucketIndex and refBucketUpper are the bucket layout as the
// concurrent histogram computed it before the table: a logarithm per record and
// a power per reported bound. FuzzStripedBucketIndexMatchesFormula holds the
// table to them.
var refLogG = math.Log(concGrowth)

func refBucketIndex(v float64) int {
	if v <= concBase {
		return 0
	}
	i := int(math.Log(v/concBase)/refLogG) + 1
	if i >= concBuckets {
		return concBuckets - 1
	}
	return i
}

func refBucketUpper(i int) float64 {
	if i == 0 {
		return concBase
	}
	return concBase * math.Pow(concGrowth, float64(i))
}

// refHistLogG, refHistBucketIndex and refHistBucketUpper are the sequential
// Histogram's bucket layout as it computed it before the table: a logarithm
// per record and a power per reported bound.
// FuzzHistogramBucketIndexMatchesFormula holds the table to them.
var refHistLogG = math.Log(1.05)

func refHistBucketIndex(v float64) int {
	if v <= 1e-6 {
		return 0
	}
	return int(math.Log(v/1e-6)/refHistLogG) + 1
}

func refHistBucketUpper(i int) float64 {
	if i == 0 {
		return 1e-6
	}
	return 1e-6 * math.Pow(1.05, float64(i))
}

// refHistogram is the per-field-atomic record the owned one replaced, kept
// as the reference FuzzStripedHistogramMatchesReference holds it to: every
// field is its own atomic, sum/min/max are CAS loops on the float bits, and
// a read derives the count from the buckets it loaded.
type refHistogram struct {
	buckets [concBuckets]atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64
	minBits atomic.Uint64
	maxBits atomic.Uint64
}

func newRefHistogram() *refHistogram {
	h := &refHistogram{}
	h.minBits.Store(math.Float64bits(math.Inf(1)))
	h.maxBits.Store(math.Float64bits(math.Inf(-1)))
	return h
}

func (h *refHistogram) Record(v float64) {
	if math.IsNaN(v) || v < 0 {
		v = 0
	}
	const maxValue = 1e18
	if v > maxValue {
		v = maxValue
	}
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			break
		}
	}
	for {
		old := h.minBits.Load()
		if v >= math.Float64frombits(old) {
			break
		}
		if h.minBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
	for {
		old := h.maxBits.Load()
		if v <= math.Float64frombits(old) {
			break
		}
		if h.maxBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
	h.buckets[refBucketIndex(v)].Add(1)
	h.count.Add(1)
}

func (h *refHistogram) Buckets(dst *[HistBuckets]int64) (count int64, sum float64) {
	for b := range h.buckets {
		n := h.buckets[b].Load()
		dst[b] = n
		count += n
	}
	return count, math.Float64frombits(h.sumBits.Load())
}

func (h *refHistogram) read() histState {
	s := histState{min: math.Float64frombits(h.minBits.Load()), max: math.Float64frombits(h.maxBits.Load())}
	s.count, s.sum = h.Buckets(&s.buckets)
	return s
}

func (h *refHistogram) Count() int64 { return h.count.Load() }

func (h *refHistogram) Cumulative(f func(upperBound float64, cumulative int64)) (count int64, sum float64) {
	m := h.read()
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

func refPercentile(m *histState, p float64) float64 {
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
	m := h.read()
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
// the logarithm formula on every value Record can pass it, and the table's
// upper bounds equal the power formula. The seeds put every bucket boundary
// to the test from both sides, so the seed corpus alone checks that no
// table cell hides a boundary.
func FuzzStripedBucketIndexMatchesFormula(f *testing.F) {
	for _, v := range []float64{0, math.Copysign(0, -1), 5e-324, 2.2250738585072014e-308,
		concBase, math.Nextafter(concBase, 1), 1e-7, 1.5e-4, 3e-4, 1,
		maxSample, math.Nextafter(maxSample, 0), math.Inf(1), math.NaN(), -1} {
		f.Add(v)
	}
	for i := 1; i < concBuckets; i++ {
		b := concLayout.lower[i]
		f.Add(b)
		f.Add(math.Nextafter(b, 0))
		f.Add(math.Nextafter(b, math.Inf(1)))
	}
	f.Fuzz(func(t *testing.T, v float64) {
		v = clampSample(v)
		if got, want := concLayout.index(v), refBucketIndex(v); got != want {
			t.Fatalf("bucket(%v [%#x]) = %d, formula %d", v, math.Float64bits(v), got, want)
		}
		i := refBucketIndex(v)
		if got, want := concLayout.upper[i], refBucketUpper(i); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("upper(%d) = %v, formula %v", i, got, want)
		}
	})
}

// FuzzHistogramBucketIndexMatchesFormula: the sequential Histogram's
// table-driven bucket index equals the logarithm formula on every value
// Record can pass it, and its upper bounds equal the power formula. The
// seeds are every bucket boundary and its two neighbouring floats, zero, the
// base, subnormals and the clamp at maxSample, so the seed corpus alone
// checks that no table cell hides a boundary.
func FuzzHistogramBucketIndexMatchesFormula(f *testing.F) {
	for _, v := range []float64{0, math.Copysign(0, -1), 5e-324, 2.2250738585072009e-308,
		2.2250738585072014e-308, 1e-6, math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1),
		1e-3, 1, 1e9, maxSample, math.Nextafter(maxSample, 0), math.Inf(1), math.NaN(), -1} {
		f.Add(v)
	}
	for i := 1; i < len(histLayout.lower); i++ {
		b := histLayout.lower[i]
		f.Add(b)
		f.Add(math.Nextafter(b, 0))
		f.Add(math.Nextafter(b, math.Inf(1)))
	}
	f.Fuzz(func(t *testing.T, v float64) {
		v = clampSample(v)
		i := refHistBucketIndex(v)
		if got := histLayout.index(v); got != i {
			t.Fatalf("bucket(%v [%#x]) = %d, formula %d", v, math.Float64bits(v), got, i)
		}
		if got, want := histLayout.upper[i], refHistBucketUpper(i); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("upper(%d) = %v, formula %v", i, got, want)
		}
	})
}

// FuzzStripedHistogramMatchesReference feeds one value stream to the owned
// record (ConcurrentHistogram) and to refHistogram and requires bit-identical
// views. Each 9-byte record is a form byte and eight value bytes: with the
// form byte's top bit set the bytes are a raw float64 (NaN, infinities,
// negatives, subnormals), otherwise their top 24 bits are nanoseconds, the
// range live service times fall in.
func FuzzStripedHistogramMatchesReference(f *testing.F) {
	seed := func(recs ...[9]byte) []byte {
		var out []byte
		for _, r := range recs {
			out = append(out, r[:]...)
		}
		return out
	}
	rec := func(form byte, bits uint64) (r [9]byte) {
		r[0] = form
		binary.LittleEndian.PutUint64(r[1:], bits)
		return r
	}
	f.Add([]byte{})
	f.Add(seed(rec(0, 150_000<<40), rec(1, 300_000<<40), rec(2, 100_000<<40), rec(3, 1<<40)))
	f.Add(seed(rec(0x80, math.Float64bits(math.NaN())), rec(0x81, math.Float64bits(-3)),
		rec(0x82, math.Float64bits(math.Inf(1))), rec(0x83, 1), rec(0x80, math.Float64bits(math.Copysign(0, -1))),
		rec(0x81, 0), rec(0x82, math.Float64bits(concBase)), rec(0x83, math.Float64bits(1e30))))
	f.Fuzz(func(t *testing.T, data []byte) {
		var h ConcurrentHistogram
		ref := newRefHistogram()
		for ; len(data) >= 9; data = data[9:] {
			bits := binary.LittleEndian.Uint64(data[1:9])
			v := float64(bits>>40) * 1e-9
			if data[0]&0x80 != 0 {
				v = math.Float64frombits(bits)
			}
			h.Record(v)
			ref.Record(v)
		}

		var got, want [HistBuckets]int64
		gc, gs := h.Buckets(&got)
		wc, ws := ref.Buckets(&want)
		if got != want || gc != wc || math.Float64bits(gs) != math.Float64bits(ws) {
			t.Fatalf("Buckets = (%d, %v, %v), reference (%d, %v, %v)", gc, gs, got, wc, ws, want)
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
