package trace

import (
	"errors"
	"fmt"
	"io"

	"dbwlm/internal/le"
)

// Binary trace encoding, in the internal/wire codec style: a magic/version
// header followed by u32 length-prefixed rows, every multi-byte value
// little-endian, every length bounds-checked before use, rows fully
// understood or fully rejected. Decoding is canonical: a row that decodes
// re-encodes to exactly the input bytes (floats move as raw bit patterns, so
// even NaN payloads survive), which is what lets the fuzz target assert
// AppendRow(DecodeRow(x)) == x.

// Magic is the first byte of a binary trace file. 0xD7 is the wire protocol;
// 0xD8 is the trace format.
const Magic = 0xD8

// Fixed-layout sizes. The row's fixed part packs the numeric fields at the
// offsets used by AppendRow/DecodeRow below; the variable part (locks, SQL)
// follows.
const (
	rowFixedLen    = 159
	lockLen        = 17 // key u64 + atProgress f64 + exclusive u8
	headerFixedLen = 12 // magic + version + durationUS u64 + classCount u16

	// MaxRowLen is the largest encodable row; the reader rejects any length
	// prefix beyond it before allocating anything.
	MaxRowLen = rowFixedLen + lockLen*MaxLocks + 4 + MaxSQLLen
)

// Fixed-part field offsets.
const (
	offID          = 0
	offArriveUS    = 8
	offWeight      = 16
	offFPHi        = 24
	offFPLo        = 32
	offEstCPU      = 40
	offEstIO       = 48
	offEstMem      = 56
	offEstRows     = 64
	offEstTimerons = 72
	offCPUWork     = 80
	offIOWork      = 88
	offMemMB       = 96
	offParallelism = 104
	offRows        = 112
	offStateMB     = 120
	offCheckpoint  = 128
	offSLOTarget   = 136
	offSLOPct      = 144
	offClass       = 152
	offLockCount   = 154
	offFlags       = 156
	offPriority    = 157
	offSLOKind     = 158
)

// AppendHeader appends the binary header for h to dst and returns the
// extended slice.
func AppendHeader(dst []byte, h Header) ([]byte, error) {
	if h.Version != Version {
		return dst, fmt.Errorf("trace: cannot encode version %d (format version is %d)", h.Version, Version)
	}
	if len(h.Classes) > MaxClasses {
		return dst, fmt.Errorf("trace: %d classes exceeds %d", len(h.Classes), MaxClasses)
	}
	n := headerFixedLen
	for _, c := range h.Classes {
		if len(c) > MaxClassName {
			return dst, fmt.Errorf("trace: class name of %d bytes exceeds %d", len(c), MaxClassName)
		}
		n += 2 + len(c)
	}
	dst = grow(dst, n)
	off := len(dst)
	dst = dst[:off+n]
	dst[off] = Magic
	dst[off+1] = Version
	le.PutU64(dst, off+2, uint64(h.DurationUS))
	le.PutU16(dst, off+10, uint16(len(h.Classes)))
	off += headerFixedLen
	for _, c := range h.Classes {
		le.PutU16(dst, off, uint16(len(c)))
		copy(dst[off+2:], c)
		off += 2 + len(c)
	}
	return dst, nil
}

// badMagic is the error for input that does not start like a binary trace.
func badMagic(b byte) error {
	return fmt.Errorf("trace: bad magic 0x%02x (want 0x%02x): not a binary trace", b, Magic)
}

// DecodeHeader decodes a binary header from the front of buf, returning the
// header and the number of bytes it occupied. Class names are copied out of
// buf. Errors are hard: bad magic, wrong version, or a truncated class table
// rejects the trace.
func DecodeHeader(buf []byte) (Header, int, error) {
	var h Header
	if len(buf) < headerFixedLen {
		return h, 0, fmt.Errorf("trace: header needs %d bytes, have %d", headerFixedLen, len(buf))
	}
	if buf[0] != Magic {
		return h, 0, badMagic(buf[0])
	}
	if buf[1] != Version {
		return h, 0, fmt.Errorf("trace: unsupported version %d (want %d)", buf[1], Version)
	}
	h.Version = Version
	h.DurationUS = int64(le.U64(buf, 2))
	count := int(le.U16(buf, 10))
	off := headerFixedLen
	if count > 0 {
		h.Classes = make([]string, 0, count)
	}
	for i := 0; i < count; i++ {
		if off+2 > len(buf) {
			return Header{}, 0, fmt.Errorf("trace: truncated class table at class %d of %d", i, count)
		}
		n := int(le.U16(buf, off))
		off += 2
		if n > MaxClassName {
			return Header{}, 0, fmt.Errorf("trace: class name of %d bytes exceeds %d", n, MaxClassName)
		}
		if off+n > len(buf) {
			return Header{}, 0, fmt.Errorf("trace: truncated class name %d of %d", i, count)
		}
		h.Classes = append(h.Classes, string(buf[off:off+n]))
		off += n
	}
	return h, off, nil
}

// AppendRow appends the binary encoding of row (without the u32 length
// prefix) to dst and returns the extended slice. The scratch-growth idiom
// matches internal/wire: dst is reallocated only while it is below its
// high-water mark.
//
//dbwlm:hotpath
func AppendRow(dst []byte, row *Row) ([]byte, error) {
	if len(row.Locks) > MaxLocks {
		return dst, fmt.Errorf("trace: row %d has %d locks, max %d", row.ID, len(row.Locks), MaxLocks)
	}
	if len(row.SQL) > MaxSQLLen {
		return dst, fmt.Errorf("trace: row %d SQL of %d bytes exceeds %d", row.ID, len(row.SQL), MaxSQLLen)
	}
	if row.Flags&^uint8(knownFlags) != 0 {
		return dst, fmt.Errorf("trace: row %d has unknown flag bits 0x%02x", row.ID, row.Flags)
	}
	n := rowFixedLen + lockLen*len(row.Locks) + 4 + len(row.SQL)
	dst = grow(dst, n)
	off := len(dst)
	dst = dst[:off+n]
	b := dst[off : off+n]
	le.PutU64(b, offID, uint64(row.ID))
	le.PutU64(b, offArriveUS, uint64(row.ArriveUS))
	le.PutF64(b, offWeight, row.Weight)
	le.PutU64(b, offFPHi, row.FPHi)
	le.PutU64(b, offFPLo, row.FPLo)
	le.PutF64(b, offEstCPU, row.EstCPUSeconds)
	le.PutF64(b, offEstIO, row.EstIOMB)
	le.PutF64(b, offEstMem, row.EstMemMB)
	le.PutF64(b, offEstRows, row.EstRows)
	le.PutF64(b, offEstTimerons, row.EstTimerons)
	le.PutF64(b, offCPUWork, row.CPUWork)
	le.PutF64(b, offIOWork, row.IOWork)
	le.PutF64(b, offMemMB, row.MemMB)
	le.PutF64(b, offParallelism, row.Parallelism)
	le.PutU64(b, offRows, uint64(row.Rows))
	le.PutF64(b, offStateMB, row.StateMB)
	le.PutF64(b, offCheckpoint, row.CheckpointEvery)
	le.PutF64(b, offSLOTarget, row.SLOTarget)
	le.PutF64(b, offSLOPct, row.SLOPct)
	le.PutU16(b, offClass, row.Class)
	le.PutU16(b, offLockCount, uint16(len(row.Locks)))
	b[offFlags] = row.Flags
	b[offPriority] = row.Priority
	b[offSLOKind] = row.SLOKind
	p := rowFixedLen
	for i := range row.Locks {
		l := &row.Locks[i]
		le.PutU64(b, p, uint64(l.Key))
		le.PutF64(b, p+8, l.AtProgress)
		if l.Exclusive {
			b[p+16] = 1
		} else {
			b[p+16] = 0
		}
		p += lockLen
	}
	le.PutU32(b, p, uint32(len(row.SQL)))
	copy(b[p+4:], row.SQL)
	return dst, nil
}

// DecodeRow decodes one row from buf, which must hold exactly the row (the
// length prefix already stripped). The decode is strict and canonical: any
// unknown flag bit, out-of-range length, non-boolean lock byte, or trailing
// byte rejects the row.
//
// The decode is allocation-free: row.SQL sub-slices buf, and row.Locks
// reuses the caller's slice capacity (growing it only on the first row that
// exceeds the high-water mark). Both are valid only as long as buf is.
//
//dbwlm:hotpath
func DecodeRow(buf []byte, row *Row) error {
	if len(buf) < rowFixedLen {
		return fmt.Errorf("trace: row of %d bytes shorter than fixed part %d", len(buf), rowFixedLen)
	}
	flags := buf[offFlags]
	if flags&^uint8(knownFlags) != 0 {
		return fmt.Errorf("trace: unknown flag bits 0x%02x", flags)
	}
	lockCount := int(le.U16(buf, offLockCount))
	if lockCount > MaxLocks {
		return fmt.Errorf("trace: %d locks exceeds %d", lockCount, MaxLocks)
	}
	p := rowFixedLen + lockLen*lockCount
	if len(buf) < p+4 {
		return fmt.Errorf("trace: row of %d bytes truncates %d locks", len(buf), lockCount)
	}
	sqlLen := int(le.U32(buf, p))
	if sqlLen > MaxSQLLen {
		return fmt.Errorf("trace: SQL of %d bytes exceeds %d", sqlLen, MaxSQLLen)
	}
	if len(buf) != p+4+sqlLen {
		return fmt.Errorf("trace: row length %d, want %d", len(buf), p+4+sqlLen)
	}
	row.ID = int64(le.U64(buf, offID))
	row.ArriveUS = int64(le.U64(buf, offArriveUS))
	row.Weight = le.F64(buf, offWeight)
	row.FPHi = le.U64(buf, offFPHi)
	row.FPLo = le.U64(buf, offFPLo)
	row.EstCPUSeconds = le.F64(buf, offEstCPU)
	row.EstIOMB = le.F64(buf, offEstIO)
	row.EstMemMB = le.F64(buf, offEstMem)
	row.EstRows = le.F64(buf, offEstRows)
	row.EstTimerons = le.F64(buf, offEstTimerons)
	row.CPUWork = le.F64(buf, offCPUWork)
	row.IOWork = le.F64(buf, offIOWork)
	row.MemMB = le.F64(buf, offMemMB)
	row.Parallelism = le.F64(buf, offParallelism)
	row.Rows = int64(le.U64(buf, offRows))
	row.StateMB = le.F64(buf, offStateMB)
	row.CheckpointEvery = le.F64(buf, offCheckpoint)
	row.SLOTarget = le.F64(buf, offSLOTarget)
	row.SLOPct = le.F64(buf, offSLOPct)
	row.Class = le.U16(buf, offClass)
	row.Flags = flags
	row.Priority = buf[offPriority]
	row.SLOKind = buf[offSLOKind]
	row.Locks = growLocks(row.Locks, lockCount)
	q := rowFixedLen
	for i := 0; i < lockCount; i++ {
		x := buf[q+16]
		if x > 1 {
			return fmt.Errorf("trace: lock %d exclusive byte 0x%02x not 0 or 1", i, x)
		}
		row.Locks[i] = Lock{
			Key:        int64(le.U64(buf, q)),
			AtProgress: le.F64(buf, q+8),
			Exclusive:  x == 1,
		}
		q += lockLen
	}
	if sqlLen > 0 {
		row.SQL = buf[p+4 : p+4+sqlLen : p+4+sqlLen]
	} else {
		row.SQL = row.SQL[:0]
	}
	return nil
}

// grow extends buf's length headroom so an append of n more bytes will not
// reallocate, in the wire codec's scratch idiom.
//
//dbwlm:hotpath
func grow(buf []byte, n int) []byte {
	if cap(buf)-len(buf) >= n {
		return buf
	}
	//dbwlm:nolint hotpath -- cold-buffer growth: runs until the caller's scratch buffer reaches its high-water mark, then never again
	nb := make([]byte, len(buf), len(buf)+n+1024)
	copy(nb, buf)
	return nb
}

// growLocks returns a lock slice of length n, reusing capacity when it can.
//
//dbwlm:hotpath
func growLocks(locks []Lock, n int) []Lock {
	if cap(locks) >= n {
		return locks[:n]
	}
	//dbwlm:nolint hotpath -- cold-buffer growth: runs until the caller's scratch reaches its high-water mark, then never again
	return make([]Lock, n)
}

// Writer streams rows into a binary trace. It buffers internally; Flush
// must be called after the last row to push the tail to the underlying
// writer.
type Writer struct {
	w   io.Writer
	buf []byte
	err error
}

// writerFlushAt is the buffered high-water mark before the writer pushes to
// the underlying io.Writer.
const writerFlushAt = 1 << 16

// NewWriter writes the header for h and returns a row writer.
func NewWriter(w io.Writer, h Header) (*Writer, error) {
	if h.Version == 0 {
		h.Version = Version
	}
	buf, err := AppendHeader(make([]byte, 0, writerFlushAt+MaxRowLen/16), h)
	if err != nil {
		return nil, err
	}
	return &Writer{w: w, buf: buf}, nil
}

// WriteRow appends one length-prefixed row.
func (w *Writer) WriteRow(row *Row) error {
	if w.err != nil {
		return w.err
	}
	lenAt := len(w.buf)
	w.buf = append(w.buf, 0, 0, 0, 0)
	buf, err := AppendRow(w.buf, row)
	if err != nil {
		w.buf = w.buf[:lenAt]
		w.err = err
		return err
	}
	w.buf = buf
	le.PutU32(w.buf, lenAt, uint32(len(w.buf)-lenAt-4))
	if len(w.buf) >= writerFlushAt {
		return w.Flush()
	}
	return nil
}

// Flush pushes buffered bytes to the underlying writer.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	if len(w.buf) == 0 {
		return nil
	}
	if _, err := w.w.Write(w.buf); err != nil {
		w.err = err
		return err
	}
	w.buf = w.buf[:0]
	return nil
}

// Reader streams rows out of a binary trace with zero allocations per row in
// steady state: rows decode in place out of the read buffer (SQL sub-slices
// it), and the lock scratch lives in the caller's Row. It implements Source.
type Reader struct {
	src      io.Reader
	h        Header
	buf      []byte
	pos, end int
}

// readerBufLen is the initial read-buffer size; it grows only when a single
// row exceeds it.
const readerBufLen = 1 << 16

// NewReader decodes the header and returns a streaming row reader.
func NewReader(src io.Reader) (*Reader, error) {
	r := &Reader{src: src, buf: make([]byte, readerBufLen)}
	if err := r.readHeader(); err != nil {
		return nil, err
	}
	return r, nil
}

// Header implements Source.
func (r *Reader) Header() Header { return r.h }

// readHeader fills enough of the buffer to decode the header.
func (r *Reader) readHeader() error {
	if err := r.ensure(headerFixedLen); err != nil {
		switch {
		case err == io.EOF:
			return errors.New("trace: empty input")
		case err == io.ErrUnexpectedEOF && r.buf[r.pos] != Magic:
			return badMagic(r.buf[r.pos]) // a short non-trace file, say one line of text
		}
		return fmt.Errorf("trace: reading header: %w", err)
	}
	need := headerFixedLen
	count := int(le.U16(r.buf, r.pos+10)) // validated against MaxClasses by size math below
	if r.buf[r.pos] != Magic || r.buf[r.pos+1] != Version || count > MaxClasses {
		// Let DecodeHeader produce the precise error.
		_, _, err := DecodeHeader(r.buf[r.pos:r.end])
		if err == nil {
			err = fmt.Errorf("trace: %d classes exceeds %d", count, MaxClasses)
		}
		return err
	}
	for i := 0; i < count; i++ {
		if err := r.ensure(need + 2); err != nil {
			return fmt.Errorf("trace: truncated class table: %w", err)
		}
		nameLen := int(le.U16(r.buf, r.pos+need))
		if nameLen > MaxClassName {
			return fmt.Errorf("trace: class name of %d bytes exceeds %d", nameLen, MaxClassName)
		}
		need += 2 + nameLen
		if err := r.ensure(need); err != nil {
			return fmt.Errorf("trace: truncated class table: %w", err)
		}
	}
	h, n, err := DecodeHeader(r.buf[r.pos : r.pos+need])
	if err != nil {
		return err
	}
	r.h = h
	r.pos += n
	return nil
}

// Next implements Source: it decodes the next row into the caller's Row.
// row.SQL sub-slices the read buffer and row.Locks reuses the Row's own
// capacity; both are valid only until the next call. Returns io.EOF at a
// clean end of trace.
//
//dbwlm:hotpath
func (r *Reader) Next(row *Row) error {
	if err := r.ensure(4); err != nil {
		if err == io.EOF {
			return io.EOF // clean end: no partial length prefix
		}
		return err
	}
	n := int(le.U32(r.buf, r.pos))
	if n < rowFixedLen+4 || n > MaxRowLen {
		return fmt.Errorf("trace: row length prefix %d out of range [%d, %d]", n, rowFixedLen+4, MaxRowLen)
	}
	if err := r.ensure(4 + n); err != nil {
		if err == io.EOF {
			return fmt.Errorf("trace: truncated row: %w", io.ErrUnexpectedEOF)
		}
		return err
	}
	if err := DecodeRow(r.buf[r.pos+4:r.pos+4+n], row); err != nil {
		return err
	}
	r.pos += 4 + n
	return nil
}

// ensure makes at least n contiguous bytes available at r.pos, compacting
// and refilling (and, for oversized rows, growing) the buffer as needed. It
// returns io.EOF only when no bytes at all remain.
//
//dbwlm:hotpath
func (r *Reader) ensure(n int) error {
	if r.end-r.pos >= n {
		return nil
	}
	if r.pos > 0 {
		copy(r.buf, r.buf[r.pos:r.end])
		r.end -= r.pos
		r.pos = 0
	}
	if n > len(r.buf) {
		//dbwlm:nolint hotpath -- one-time buffer growth for an oversized row
		nb := make([]byte, n+readerBufLen)
		copy(nb, r.buf[:r.end])
		r.buf = nb
	}
	for r.end < n {
		//dbwlm:nolint hotpath -- buffer refill from the underlying source, amortized over many rows
		m, err := r.src.Read(r.buf[r.end:])
		r.end += m
		if err != nil {
			if err == io.EOF {
				if r.end >= n {
					return nil
				}
				if r.end == 0 {
					return io.EOF
				}
				return io.ErrUnexpectedEOF
			}
			return err
		}
	}
	return nil
}
