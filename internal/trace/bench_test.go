package trace

import (
	"bytes"
	"io"
	"testing"

	"dbwlm/internal/le"
)

// benchTrace builds an in-memory binary trace with a realistic field mix:
// every row carries estimates and true work, a third carry SQL, a fifth
// carry locks.
func benchTrace(tb testing.TB, n int) (header []byte, rowBytes []byte) {
	h := Header{Version: Version, DurationUS: int64(n) * 1000, Classes: []string{"oltp", "bi", "adhoc"}}
	hdr, err := AppendHeader(nil, h)
	if err != nil {
		tb.Fatal(err)
	}
	var buf []byte
	sqls := [][]byte{
		[]byte("SELECT balance FROM accounts WHERE id = 1234567"),
		[]byte("UPDATE accounts SET balance = balance - 10 WHERE id = 42"),
		[]byte("SELECT region, SUM(amount) FROM sales JOIN stores ON sales.store = stores.id GROUP BY region ORDER BY 2 DESC LIMIT 100"),
	}
	for i := 0; i < n; i++ {
		row := Row{
			ID: int64(i), ArriveUS: int64(i) * 1000, Weight: 1,
			Class: uint16(i % 3), Priority: uint8(i % 3),
			FPHi: uint64(i) * 0x9E3779B97F4A7C15, FPLo: uint64(i),
			EstCPUSeconds: 0.01, EstIOMB: 2, EstMemMB: 64, EstRows: 100, EstTimerons: 30,
			CPUWork: 0.011, IOWork: 2.2, MemMB: 64, Parallelism: 1, Rows: 100,
		}
		if i%3 == 0 {
			row.SQL = sqls[(i/3)%len(sqls)]
		}
		if i%5 == 0 {
			row.Locks = []Lock{{Key: int64(i % 97), AtProgress: 0.2, Exclusive: true}}
		}
		at := len(buf)
		buf = append(buf, 0, 0, 0, 0)
		buf, err = AppendRow(buf, &row)
		if err != nil {
			tb.Fatal(err)
		}
		le.PutU32(buf, at, uint32(len(buf)-at-4))
	}
	return hdr, buf
}

// loopReader serves the row region forever, so a streaming benchmark can
// decode b.N rows without reconstructing readers (which would charge setup
// allocations to the per-row path).
type loopReader struct {
	data []byte
	pos  int
}

func (l *loopReader) Read(p []byte) (int, error) {
	if l.pos == len(l.data) {
		l.pos = 0
	}
	n := copy(p, l.data[l.pos:])
	l.pos += n
	return n, nil
}

// BenchmarkTraceStreamDecode measures the full streaming path — buffered
// reads, length framing, row decode — per row; TestStreamDecodeZeroAlloc pins
// its 0 allocs/op, and cmd/wlmbench reports it as trace.decode_ns_per_row.
func BenchmarkTraceStreamDecode(b *testing.B) {
	hdr, rows := benchTrace(b, 4096)
	r, err := NewReader(io.MultiReader(bytes.NewReader(hdr), &loopReader{data: rows}))
	if err != nil {
		b.Fatal(err)
	}
	var row Row
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.Next(&row); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceDecodeRow isolates the row codec itself (no IO layer).
func BenchmarkTraceDecodeRow(b *testing.B) {
	_, rows := benchTrace(b, 512)
	// Slice the individual row encodings out of the framed stream.
	var encs [][]byte
	for off := 0; off < len(rows); {
		n := int(le.U32(rows, off))
		encs = append(encs, rows[off+4:off+4+n])
		off += 4 + n
	}
	var row Row
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := DecodeRow(encs[i%len(encs)], &row); err != nil {
			b.Fatal(err)
		}
	}
}

// TestStreamDecodeZeroAlloc pins the zero-allocations contract the benchmark
// gate relies on: once the reader and row scratch are warm, Next never
// allocates.
func TestStreamDecodeZeroAlloc(t *testing.T) {
	hdr, rows := benchTrace(t, 1024)
	r, err := NewReader(io.MultiReader(bytes.NewReader(hdr), &loopReader{data: rows}))
	if err != nil {
		t.Fatal(err)
	}
	var row Row
	// Warm the lock scratch and the read buffer.
	for i := 0; i < 2048; i++ {
		if err := r.Next(&row); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(4096, func() {
		if err := r.Next(&row); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("streaming decode allocates %.2f allocs/row, want 0", allocs)
	}
}
