package trace

import (
	"io"
	"os"
)

// File-level helpers shared by the CLI tools. A trace file is always the
// binary encoding; anything else (an empty file, text, JSON lines) fails to
// open with a trace: error rather than being guessed at.

// OpenFile opens path and returns a streaming Source for it. The caller
// closes the returned closer when done.
func OpenFile(path string) (Source, io.Closer, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	r, err := NewReader(f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return r, f, nil
}

// WriteFile writes a whole trace to path.
func WriteFile(path string, h Header, rows []Row) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w, err := NewWriter(f, h)
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
