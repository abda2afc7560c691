package le

import (
	"encoding/binary"
	"math"
	"math/rand/v2"
	"testing"
)

const pad = 0xAA

// roundTrip writes v at every offset 0..8 of a padded buffer and checks the
// bytes against encoding/binary's little-endian layout, the padding around
// them untouched, and the read-back value.
func roundTrip(t *testing.T, width int, v uint64, put func([]byte, int, uint64), get func([]byte, int) uint64) {
	t.Helper()
	for off := 0; off <= 8; off++ {
		b := make([]byte, 24)
		for i := range b {
			b[i] = pad
		}
		put(b, off, v)
		var want [8]byte
		binary.LittleEndian.PutUint64(want[:], v)
		for i := range b {
			switch {
			case i >= off && i < off+width:
				if b[i] != want[i-off] {
					t.Fatalf("width %d, offset %d, value %#x: byte %d is %#x, want %#x", width, off, v, i, b[i], want[i-off])
				}
			case b[i] != pad:
				t.Fatalf("width %d, offset %d: wrote byte %d outside the field", width, off, i)
			}
		}
		if got := get(b, off); got != v {
			t.Fatalf("width %d, offset %d: read %#x, wrote %#x", width, off, got, v)
		}
	}
}

func TestRoundTripEveryWidth(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	values := []uint64{0, 1, 0x0102030405060708, math.MaxUint64}
	for i := 0; i < 64; i++ {
		values = append(values, rng.Uint64())
	}
	for _, v := range values {
		roundTrip(t, 2, v&math.MaxUint16,
			func(b []byte, off int, v uint64) { PutU16(b, off, uint16(v)) },
			func(b []byte, off int) uint64 { return uint64(U16(b, off)) })
		roundTrip(t, 4, v&math.MaxUint32,
			func(b []byte, off int, v uint64) { PutU32(b, off, uint32(v)) },
			func(b []byte, off int) uint64 { return uint64(U32(b, off)) })
		roundTrip(t, 8, v, PutU64, U64)
		roundTrip(t, 8, v,
			func(b []byte, off int, v uint64) { PutF64(b, off, math.Float64frombits(v)) },
			func(b []byte, off int) uint64 { return math.Float64bits(F64(b, off)) })
	}
}

// TestF64KeepsNaNPayloads: a float64 round-trips bit for bit, so NaN payloads
// and signs survive, quiet or signaling.
func TestF64KeepsNaNPayloads(t *testing.T) {
	for _, bits := range []uint64{
		0x7ff8000000000000, // the canonical quiet NaN
		0x7ff8000000000001, // quiet NaN with a payload
		0x7ff0000000000001, // signaling NaN
		0xfff8deadbeef0001, // negative quiet NaN with a payload
		0x7ff0000000000000, // +Inf
		0x8000000000000000, // -0
	} {
		b := make([]byte, 11)
		PutF64(b, 3, math.Float64frombits(bits))
		if got := math.Float64bits(F64(b, 3)); got != bits {
			t.Errorf("F64 round trip of %#016x gave %#016x", bits, got)
		}
	}
}
