package trace

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strings"
)

// File-level helpers shared by the CLI tools: open a trace of either
// encoding (sniffed by magic byte), and write one (encoding picked by file
// extension).

// NewSourceFrom sniffs the first byte of r and returns the matching decoder:
// the binary magic selects the binary reader, anything else the JSONL
// reader.
func NewSourceFrom(r io.Reader) (Source, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	first, err := br.Peek(1)
	if err != nil {
		if err == io.EOF {
			return nil, fmt.Errorf("trace: empty input")
		}
		return nil, err
	}
	if first[0] == Magic {
		return NewReader(br)
	}
	return NewJSONLReader(br)
}

// OpenFile opens path and returns a streaming Source for it. The caller
// closes the returned closer when done.
func OpenFile(path string) (Source, io.Closer, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	src, err := NewSourceFrom(f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return src, f, nil
}

// JSONLPath reports whether path names a JSONL trace by extension (.jsonl or
// .json); anything else is written as binary.
func JSONLPath(path string) bool {
	return strings.HasSuffix(path, ".jsonl") || strings.HasSuffix(path, ".json")
}

// NewWriterFor returns a RowWriter for w in the encoding implied by path.
func NewWriterFor(w io.Writer, path string, h Header) (RowWriter, error) {
	if JSONLPath(path) {
		return NewJSONLWriter(w, h)
	}
	return NewWriter(w, h)
}

// WriteFile writes a whole trace to path, encoding picked by extension.
func WriteFile(path string, h Header, rows []Row) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w, err := NewWriterFor(f, path, h)
	if err != nil {
		f.Close()
		return err
	}
	for i := range rows {
		if err := w.WriteRow(&rows[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
