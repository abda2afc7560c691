// Package le is the little-endian byte packing the wire codec (internal/wire)
// and the trace codec (internal/trace) share. It is hand-rolled so the
// codecs' hot paths stay inside the static analyzer's allocation-free
// allowlist (encoding/binary's package surface includes reflective readers
// the hotpath analyzer would otherwise have to trust). The explicit bounds
// check at the top of each helper lets the compiler elide the per-byte checks.
package le

import "math"

//dbwlm:hotpath
func PutU16(b []byte, off int, v uint16) {
	_ = b[off+1]
	b[off] = byte(v)
	b[off+1] = byte(v >> 8)
}

//dbwlm:hotpath
func PutU32(b []byte, off int, v uint32) {
	_ = b[off+3]
	b[off] = byte(v)
	b[off+1] = byte(v >> 8)
	b[off+2] = byte(v >> 16)
	b[off+3] = byte(v >> 24)
}

//dbwlm:hotpath
func PutU64(b []byte, off int, v uint64) {
	_ = b[off+7]
	b[off] = byte(v)
	b[off+1] = byte(v >> 8)
	b[off+2] = byte(v >> 16)
	b[off+3] = byte(v >> 24)
	b[off+4] = byte(v >> 32)
	b[off+5] = byte(v >> 40)
	b[off+6] = byte(v >> 48)
	b[off+7] = byte(v >> 56)
}

//dbwlm:hotpath
func PutF64(b []byte, off int, v float64) { PutU64(b, off, math.Float64bits(v)) }

//dbwlm:hotpath
func U16(b []byte, off int) uint16 {
	_ = b[off+1]
	return uint16(b[off]) | uint16(b[off+1])<<8
}

//dbwlm:hotpath
func U32(b []byte, off int) uint32 {
	_ = b[off+3]
	return uint32(b[off]) | uint32(b[off+1])<<8 | uint32(b[off+2])<<16 |
		uint32(b[off+3])<<24
}

//dbwlm:hotpath
func U64(b []byte, off int) uint64 {
	_ = b[off+7]
	return uint64(b[off]) | uint64(b[off+1])<<8 | uint64(b[off+2])<<16 |
		uint64(b[off+3])<<24 | uint64(b[off+4])<<32 | uint64(b[off+5])<<40 |
		uint64(b[off+6])<<48 | uint64(b[off+7])<<56
}

//dbwlm:hotpath
func F64(b []byte, off int) float64 { return math.Float64frombits(U64(b, off)) }
