package trace

import (
	"bytes"
	"testing"
)

// FuzzTraceDecode fuzzes the binary trace decoders. Invariants: decoding is
// a total function (no panics, no unbounded allocation on any input), and a
// successful decode is canonical — re-encoding reproduces the input bytes
// exactly.
func FuzzTraceDecode(f *testing.F) {
	h := Header{Version: Version, DurationUS: 5_000_000, Classes: []string{"oltp", "bi"}}
	hdr, _ := AppendHeader(nil, h)
	f.Add(hdr)
	for _, row := range sampleRows() {
		enc, err := AppendRow(nil, &row)
		if err == nil {
			f.Add(enc)
		}
	}
	f.Add([]byte{Magic})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Header path: canonical re-encode of the consumed prefix.
		if dh, n, err := DecodeHeader(data); err == nil {
			re, err := AppendHeader(nil, dh)
			if err != nil {
				t.Fatalf("decoded header does not re-encode: %v", err)
			}
			if !bytes.Equal(re, data[:n]) {
				t.Fatalf("header re-encode differs from input prefix")
			}
		}
		// Row path: data is one length-stripped row.
		var row Row
		if err := DecodeRow(data, &row); err == nil {
			re, err := AppendRow(nil, &row)
			if err != nil {
				t.Fatalf("decoded row does not re-encode: %v", err)
			}
			if !bytes.Equal(re, data) {
				t.Fatalf("row re-encode differs from input")
			}
		}
		// Streaming path over arbitrary bytes: must terminate with EOF or an
		// error, never panic.
		if r, err := NewReader(bytes.NewReader(data)); err == nil {
			var row Row
			for {
				if err := r.Next(&row); err != nil {
					break
				}
			}
		}
	})
}
