package trace

import (
	"bytes"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// sampleRows returns a varied set of rows exercising every field, including
// awkward float values the binary codec must carry bit-exactly.
func sampleRows() []Row {
	return []Row{
		{
			ID: 1, ArriveUS: 0, Weight: 1, Class: 0, Flags: FlagRead, Priority: 2,
			FPHi: 0xDEADBEEF01234567, FPLo: 0x89ABCDEF,
			EstCPUSeconds: 0.012, EstIOMB: 1.5, EstMemMB: 64, EstRows: 10, EstTimerons: 27,
			CPUWork: 0.011, IOWork: 1.6, MemMB: 64, Parallelism: 1, Rows: 10,
			SQL: []byte("SELECT * FROM accounts WHERE id = 7"),
		},
		{
			ID: 2, ArriveUS: 1500, Weight: 37.5, Class: 1, Priority: 0,
			EstTimerons: 1e6, CPUWork: 120, IOWork: 4000, MemMB: 2048, Parallelism: 8,
			Rows: 5_000_000, StateMB: 512, CheckpointEvery: 0.25,
			SLOKind: 1, SLOTarget: 30, SLOPct: 0.95,
			Locks: []Lock{
				{Key: 42, AtProgress: 0.1, Exclusive: true},
				{Key: -7, AtProgress: 0.9},
			},
		},
		{
			ID: 3, ArriveUS: 1500, Weight: math.Inf(1), Class: 2,
			EstCPUSeconds: math.SmallestNonzeroFloat64, CPUWork: math.MaxFloat64,
		},
		{ID: 4, ArriveUS: 2_000_000, Weight: 1, Class: 0},
	}
}

func TestBinaryRowRoundTrip(t *testing.T) {
	for i, row := range sampleRows() {
		enc, err := AppendRow(nil, &row)
		if err != nil {
			t.Fatalf("row %d: AppendRow: %v", i, err)
		}
		var got Row
		if err := DecodeRow(enc, &got); err != nil {
			t.Fatalf("row %d: DecodeRow: %v", i, err)
		}
		norm := row
		if len(norm.SQL) == 0 {
			norm.SQL = []byte{}
		}
		if len(norm.Locks) == 0 {
			norm.Locks = nil
		}
		if len(got.SQL) == 0 {
			got.SQL = []byte{}
		}
		if len(got.Locks) == 0 {
			got.Locks = nil
		}
		if !reflect.DeepEqual(norm, got) {
			t.Fatalf("row %d: round trip mismatch:\n in: %+v\nout: %+v", i, norm, got)
		}
		// Canonical: re-encoding the decoded row reproduces the bytes.
		re, err := AppendRow(nil, &got)
		if err != nil {
			t.Fatalf("row %d: re-encode: %v", i, err)
		}
		if !bytes.Equal(enc, re) {
			t.Fatalf("row %d: re-encode differs", i)
		}
	}
}

func TestBinaryRowRejects(t *testing.T) {
	row := sampleRows()[1]
	enc, err := AppendRow(nil, &row)
	if err != nil {
		t.Fatal(err)
	}
	var got Row
	// Every strict prefix must be rejected.
	for n := 0; n < len(enc); n++ {
		if err := DecodeRow(enc[:n], &got); err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded", n, len(enc))
		}
	}
	// Trailing bytes must be rejected.
	if err := DecodeRow(append(append([]byte{}, enc...), 0), &got); err == nil {
		t.Fatal("trailing byte accepted")
	}
	// Unknown flag bits must be rejected.
	bad := append([]byte{}, enc...)
	bad[offFlags] |= 0x80
	if err := DecodeRow(bad, &got); err == nil {
		t.Fatal("unknown flag bit accepted")
	}
	// Non-boolean lock exclusive byte must be rejected.
	bad = append([]byte{}, enc...)
	bad[rowFixedLen+16] = 2
	if err := DecodeRow(bad, &got); err == nil {
		t.Fatal("exclusive byte 2 accepted")
	}
	// Oversized encode inputs must be rejected.
	huge := Row{Locks: make([]Lock, MaxLocks+1)}
	if _, err := AppendRow(nil, &huge); err == nil {
		t.Fatal("oversized lock list encoded")
	}
	wide := Row{SQL: bytes.Repeat([]byte("x"), MaxSQLLen+1)}
	if _, err := AppendRow(nil, &wide); err == nil {
		t.Fatal("oversized SQL encoded")
	}
	flagged := Row{Flags: 0x40}
	if _, err := AppendRow(nil, &flagged); err == nil {
		t.Fatal("unknown flag encoded")
	}
}

func TestBinaryHeaderRoundTrip(t *testing.T) {
	h := Header{Version: Version, DurationUS: 123_456_789, Classes: []string{"oltp", "bi", "adhoc"}}
	enc, err := AppendHeader(nil, h)
	if err != nil {
		t.Fatal(err)
	}
	got, n, err := DecodeHeader(enc)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(enc) {
		t.Fatalf("consumed %d of %d bytes", n, len(enc))
	}
	if !reflect.DeepEqual(h, got) {
		t.Fatalf("header mismatch: %+v vs %+v", h, got)
	}
	re, err := AppendHeader(nil, got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, re) {
		t.Fatal("re-encode differs")
	}
	for i := 0; i < len(enc); i++ {
		if _, _, err := DecodeHeader(enc[:i]); err == nil {
			t.Fatalf("header prefix of %d bytes decoded", i)
		}
	}
	bad := append([]byte{}, enc...)
	bad[0] = 0x00
	if _, _, err := DecodeHeader(bad); err == nil {
		t.Fatal("bad magic accepted")
	}
	bad = append([]byte{}, enc...)
	bad[1] = Version + 1
	if _, _, err := DecodeHeader(bad); err == nil {
		t.Fatal("future version accepted")
	}
}

// writeStream encodes a whole trace through the streaming writer.
func writeStream(t *testing.T, h Header, rows []Row) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, h)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rows {
		if err := w.WriteRow(&rows[i]); err != nil {
			t.Fatalf("WriteRow %d: %v", i, err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestStreamRoundTrip(t *testing.T) {
	h := Header{Version: Version, DurationUS: 2_000_000, Classes: []string{"oltp", "bi", "adhoc"}}
	rows := sampleRows()
	data := writeStream(t, h, rows)

	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r.Header(), h) {
		t.Fatalf("header mismatch: %+v", r.Header())
	}
	got, err := ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(rows) {
		t.Fatalf("got %d rows, want %d", len(got), len(rows))
	}
	for i := range rows {
		a, _ := AppendRow(nil, &rows[i])
		b, _ := AppendRow(nil, &got[i])
		if !bytes.Equal(a, b) {
			t.Fatalf("row %d differs after stream round trip", i)
		}
	}

	// Truncations anywhere in the row region must error, not EOF-cleanly,
	// unless the cut lands exactly on a row boundary.
	hdrLen := len(writeStream(t, h, nil))
	boundaries := map[int]bool{hdrLen: true}
	off := hdrLen
	for i := range rows {
		enc, _ := AppendRow(nil, &rows[i])
		off += 4 + len(enc)
		boundaries[off] = true
	}
	for cut := hdrLen; cut < len(data); cut++ {
		r, err := NewReader(bytes.NewReader(data[:cut]))
		if err != nil {
			t.Fatalf("cut %d: header: %v", cut, err)
		}
		var row Row
		var streamErr error
		for {
			if streamErr = r.Next(&row); streamErr != nil {
				break
			}
		}
		if boundaries[cut] {
			if streamErr != io.EOF {
				t.Fatalf("cut %d on boundary: got %v, want EOF", cut, streamErr)
			}
		} else if streamErr == io.EOF {
			t.Fatalf("cut %d mid-row: clean EOF", cut)
		}
	}
}

// TestStreamLargeTrace pushes enough rows through the small stream buffer to
// force many compact/refill cycles and a mid-buffer row split.
func TestStreamLargeTrace(t *testing.T) {
	h := Header{Version: Version, DurationUS: 10_000_000, Classes: []string{"a"}}
	var rows []Row
	sql := strings.Repeat("SELECT pad FROM t WHERE k = 123456789;", 40)
	for i := 0; i < 5000; i++ {
		row := Row{ID: int64(i), ArriveUS: int64(i * 2000), Weight: 1, Flags: FlagRead}
		if i%7 == 0 {
			row.SQL = []byte(sql)
		}
		if i%11 == 0 {
			row.Locks = []Lock{{Key: int64(i), AtProgress: 0.5, Exclusive: i%2 == 0}}
		}
		rows = append(rows, row)
	}
	data := writeStream(t, h, rows)
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var row Row
	for i := 0; ; i++ {
		err := r.Next(&row)
		if err == io.EOF {
			if i != len(rows) {
				t.Fatalf("EOF after %d rows, want %d", i, len(rows))
			}
			break
		}
		if err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
		if row.ID != int64(i) || row.ArriveUS != int64(i*2000) {
			t.Fatalf("row %d decoded as ID %d arrive %d", i, row.ID, row.ArriveUS)
		}
		if i%7 == 0 && string(row.SQL) != sql {
			t.Fatalf("row %d SQL corrupted", i)
		}
	}
}

// TestOpenFileRejectsNonTrace pins that a trace file is only ever the binary
// encoding: a binary file opens as the streaming Reader, while a JSON-lines
// file, a text file and an empty file each fail with a trace: error instead
// of being decoded some other way.
func TestOpenFileRejectsNonTrace(t *testing.T) {
	dir := t.TempDir()
	h := Header{Version: Version, DurationUS: 1000, Classes: []string{"a"}}
	bin := filepath.Join(dir, "ok.trace")
	if err := WriteFile(bin, h, []Row{{ID: 1, ArriveUS: 10, Weight: 1}}); err != nil {
		t.Fatal(err)
	}
	src, f, err := OpenFile(bin)
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, ok := src.(*Reader); !ok {
		t.Fatalf("binary trace opened as %T", src)
	}

	const notTrace = "trace: bad magic 0x7b (want 0xd8): not a binary trace"
	for _, c := range []struct{ name, data, want string }{
		{"run.jsonl", `{"format":"dbwlm-trace","version":1,"duration_us":10,"classes":["a"]}` + "\n" + `{"id":1,"arrive_us":3}` + "\n", notTrace},
		{"line.jsonl", "{}\n", notTrace},
		{"notes.txt", "id,arrive_us,class\n1,3,a\n", "trace: bad magic 0x69 (want 0xd8): not a binary trace"},
		{"empty.trace", "", "trace: empty input"},
	} {
		path := filepath.Join(dir, c.name)
		if err := os.WriteFile(path, []byte(c.data), 0o644); err != nil {
			t.Fatal(err)
		}
		src, f, err := OpenFile(path)
		if err == nil {
			f.Close()
			t.Fatalf("%s opened as a %T", c.name, src)
		}
		if err.Error() != c.want {
			t.Fatalf("%s: error %q, want %q", c.name, err, c.want)
		}
	}
}
