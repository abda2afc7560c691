package metrics

import "math"

// bucketLayout is a logarithmic bucket layout, the one both histograms use:
// bucket 0 holds every value at or below base, and a larger value v goes to
// bucket ⌊ln(v/base)/ln(growth)⌋ + 1, clamped to the last bucket (logIndex).
// The layout is built once from that formula, so that recording never takes
// a logarithm: a value's exponent and top mantissa bits pick a cell of an
// index table, and one compare against the next bucket boundary settles the
// bucket. A cell must span a smaller ratio than one bucket, so that it holds
// at most one boundary: 1 + 2^-mantissaBits < growth.
type bucketLayout struct {
	base float64
	logG float64
	// lower[i] is the smallest float64 the formula puts in bucket i or above
	// (lower[0] is unused: bucket 0 is everything at or below base).
	lower []float64
	// upper[i] is bucket i's reported upper bound, base·growth^i.
	upper []float64
	// cell[k] is the formula's bucket for the smallest value above base
	// whose bits>>shift are cellBase+k; the table ends at the cell of the
	// last bucket's lower boundary.
	cell     []uint16
	cellBase uint64
	shift    uint
}

// newBucketLayout builds the layout of buckets buckets from the formula. It
// finds each bucket's lower boundary by bisection over float64 bit patterns
// (positive floats order as their bits) up to maxSample, so the formula must
// reach the last bucket by maxSample, then tabulates each cell's first
// bucket.
func newBucketLayout(base, growth float64, buckets int, mantissaBits uint) bucketLayout {
	l := bucketLayout{
		base:  base,
		logG:  math.Log(growth),
		lower: make([]float64, buckets),
		upper: make([]float64, buckets),
		shift: 52 - mantissaBits,
	}
	baseBits, topBits := math.Float64bits(base), math.Float64bits(maxSample)
	for i := 1; i < buckets; i++ {
		lo, hi := baseBits, topBits // logIndex(lo) < i <= logIndex(hi)
		for hi-lo > 1 {
			mid := lo + (hi-lo)/2
			if l.logIndex(math.Float64frombits(mid)) >= i {
				hi = mid
			} else {
				lo = mid
			}
		}
		l.lower[i] = math.Float64frombits(hi)
	}
	l.upper[0] = base
	for i := 1; i < buckets; i++ {
		l.upper[i] = base * math.Pow(growth, float64(i))
	}
	l.cellBase = baseBits >> l.shift
	last := math.Float64bits(l.lower[buckets-1]) >> l.shift
	l.cell = make([]uint16, last-l.cellBase+1)
	for k := range l.cell {
		first := max((l.cellBase+uint64(k))<<l.shift, baseBits+1)
		l.cell[k] = uint16(l.logIndex(math.Float64frombits(first)))
	}
	return l
}

// logIndex is the bucket formula the layout is built from. It is defined
// for the values clampSample returns.
func (l *bucketLayout) logIndex(v float64) int {
	if v <= l.base {
		return 0
	}
	return min(int(math.Log(v/l.base)/l.logG)+1, len(l.lower)-1)
}

// index is logIndex for a clamped sample, read from the table.
//
//dbwlm:hotpath
func (l *bucketLayout) index(v float64) int {
	if v <= l.base {
		return 0
	}
	last := len(l.lower) - 1
	if v >= l.lower[last] {
		return last
	}
	i := int(l.cell[math.Float64bits(v)>>l.shift-l.cellBase])
	if v >= l.lower[i+1] {
		i++
	}
	return i
}
