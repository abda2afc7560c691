package wire

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"strings"
	"testing"

	"dbwlm/internal/le"
)

// readFrameReference is FrameConn.ReadFrame before the read buffer: one
// io.ReadFull for the length prefix, one for the body. The chunking fuzz
// target holds the buffered reader to its payloads and error classes.
func readFrameReference(r io.Reader, hdr *[4]byte, buf *[]byte) ([]byte, error) {
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("wire: frame header: %w", err)
	}
	n := le.U32(hdr[:], 0)
	if n == 0 || n > MaxFrame {
		return nil, fmt.Errorf("wire: frame length %d out of range (1..%d)", n, MaxFrame)
	}
	*buf = grow(*buf, int(n))
	if _, err := io.ReadFull(r, *buf); err != nil {
		return nil, fmt.Errorf("wire: frame body: %w", err)
	}
	return *buf, nil
}

// errTransport stands in for a socket failure (a reset) at the end of a
// stream.
var errTransport = errors.New("connection reset")

// refClass names the class of a readFrameReference result.
func refClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case err == io.EOF:
		return "eof"
	case errors.Is(err, errTransport):
		return "transport"
	case strings.Contains(err.Error(), "frame header"):
		return "header"
	case strings.Contains(err.Error(), "out of range"):
		return "length"
	case strings.Contains(err.Error(), "frame body"):
		return "body"
	}
	return "unknown: " + err.Error()
}

// frameClass names the class of a FrameConn.ReadFrame result, requiring
// ErrFrame on exactly the framing violations.
func frameClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case err == io.EOF:
		return "eof"
	case errors.Is(err, errTransport) && !errors.Is(err, ErrFrame):
		return "transport"
	case !errors.Is(err, ErrFrame):
		return "unmarked: " + err.Error()
	case strings.Contains(err.Error(), "frame header"):
		return "header"
	case strings.Contains(err.Error(), "out of range"):
		return "length"
	case strings.Contains(err.Error(), "frame body"):
		return "body"
	}
	return "unknown: " + err.Error()
}

// chunkReader returns a stream in chunks of 1..maxChunk bytes, then end —
// with the last chunk or on the next call, as the rng decides — on every
// call after that.
type chunkReader struct {
	data     []byte
	rng      *rand.Rand
	maxChunk int
	end      error
	reads    int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	c.reads++
	if len(c.data) == 0 {
		return 0, c.end
	}
	n := min(1+c.rng.IntN(c.maxChunk), len(c.data), len(p))
	copy(p, c.data[:n])
	c.data = c.data[n:]
	if len(c.data) == 0 && c.rng.IntN(2) == 0 {
		return n, c.end
	}
	return n, nil
}

func (c *chunkReader) Write(p []byte) (int, error) { return len(p), nil }

// appendPrefix appends a frame length prefix.
func appendPrefix(b []byte, n uint32) []byte {
	b = append(b, 0, 0, 0, 0)
	le.PutU32(b, len(b)-4, n)
	return b
}

// frameStream builds nframes well-formed frames of random sizes — mostly
// small, some past the initial read buffer — followed by tail, whose bytes
// read as further frames, usually malformed ones.
func frameStream(rng *rand.Rand, nframes int, tail []byte) []byte {
	var out []byte
	for i := 0; i < nframes; i++ {
		n := 1 + rng.IntN(600)
		if rng.IntN(16) == 0 {
			n = readBufSize - 8 + rng.IntN(3*readBufSize)
		}
		out = appendPrefix(out, uint32(n))
		for j := 0; j < n; j++ {
			out = append(out, byte(rng.Uint32()))
		}
	}
	return append(out, tail...)
}

// FuzzFrameConnChunking feeds one frame stream through the reference reader
// and through a FrameConn whose reads return chunks from one byte up to
// several frames: both must yield the same payloads, then the same error
// class — io.EOF only between frames, header and body truncation told apart,
// an out-of-range length rejected before its body, a transport error never
// marked ErrFrame.
func FuzzFrameConnChunking(f *testing.F) {
	zero := []byte{0, 0, 0, 0}
	huge := appendPrefix(nil, MaxFrame+1)
	f.Add(uint64(1), uint8(4), uint16(1), false, []byte(nil))
	f.Add(uint64(2), uint8(12), uint16(5000), false, []byte(nil))
	f.Add(uint64(3), uint8(3), uint16(65535), true, []byte(nil))
	f.Add(uint64(4), uint8(2), uint16(7), false, zero)
	f.Add(uint64(5), uint8(2), uint16(300), false, append(huge, 1, 2, 3))
	f.Add(uint64(6), uint8(1), uint16(3), false, []byte{9, 0})               // header cut short
	f.Add(uint64(7), uint8(1), uint16(3), true, []byte{9, 0, 0, 0, 1, 2, 3}) // body cut short, then a reset
	f.Add(uint64(8), uint8(0), uint16(2), false, []byte{5, 0, 0, 0})         // body cut before its first byte
	f.Fuzz(func(t *testing.T, seed uint64, nframes uint8, maxChunk uint16, reset bool, tail []byte) {
		rng := rand.New(rand.NewPCG(seed, 0))
		stream := frameStream(rng, int(nframes%32), tail)
		end := io.EOF
		if reset {
			end = errTransport
		}
		ref := &chunkReader{data: stream, rng: rand.New(rand.NewPCG(seed, 1)), maxChunk: 1 << 30, end: end}
		got := NewFrameConn(&chunkReader{data: stream, rng: rand.New(rand.NewPCG(seed, 2)),
			maxChunk: 1 + int(maxChunk)*4, end: end})
		var hdr [4]byte
		var buf []byte
		for i := 0; ; i++ {
			want, werr := readFrameReference(ref, &hdr, &buf)
			have, herr := got.ReadFrame()
			if wc, hc := refClass(werr), frameClass(herr); wc != hc {
				t.Fatalf("frame %d: reference %q (%v), FrameConn %q (%v)", i, wc, werr, hc, herr)
			}
			if werr != nil {
				return
			}
			if !bytes.Equal(want, have) {
				t.Fatalf("frame %d: payloads differ (%d vs %d bytes)", i, len(want), len(have))
			}
		}
	})
}

// TestReadFrameRejectsLengthUnread: an out-of-range length prefix fails the
// frame on the prefix alone — ReadFrame never waits for a body it will not
// accept.
func TestReadFrameRejectsLengthUnread(t *testing.T) {
	for _, n := range []uint32{0, MaxFrame + 1, 1<<32 - 1} {
		r := &chunkReader{data: appendPrefix(nil, n), rng: rand.New(rand.NewPCG(1, 1)), maxChunk: 1 << 30, end: errTransport}
		fc := NewFrameConn(r)
		if _, err := fc.ReadFrame(); frameClass(err) != "length" {
			t.Fatalf("length %d: %v, want an ErrFrame length error", n, err)
		}
		if r.reads != 1 {
			t.Fatalf("length %d: %d reads, want 1", n, r.reads)
		}
	}
}

// TestReadFrameBurstOneRead: pipelined frames that arrive together cost one
// read between them, and the payloads come back in order.
func TestReadFrameBurstOneRead(t *testing.T) {
	var stream []byte
	for i := 1; i <= 8; i++ {
		stream = append(appendPrefix(stream, uint32(i)), bytes.Repeat([]byte{byte(i)}, i)...)
	}
	fc := NewFrameConn(&chunkReader{data: stream, rng: rand.New(rand.NewPCG(1, 1)), maxChunk: len(stream), end: io.EOF})
	for i := 1; i <= 8; i++ {
		p, err := fc.ReadFrame()
		if err != nil || !bytes.Equal(p, bytes.Repeat([]byte{byte(i)}, i)) {
			t.Fatalf("frame %d: %v %v", i, p, err)
		}
	}
	if fc.reads != 1 {
		t.Fatalf("%d reads for 8 frames in one chunk, want 1", fc.reads)
	}
	if _, err := fc.ReadFrame(); err != io.EOF {
		t.Fatalf("after the last frame: %v, want io.EOF", err)
	}
}

// loopReader serves a fixed stream forever in chunks of at most chunk bytes.
type loopReader struct {
	data  []byte
	pos   int
	chunk int
}

func (l *loopReader) Read(p []byte) (int, error) {
	n := copy(p[:min(len(p), l.chunk)], l.data[l.pos:])
	l.pos = (l.pos + n) % len(l.data)
	return n, nil
}

func (l *loopReader) Write(p []byte) (int, error) { return len(p), nil }

// TestReadServeZeroAlloc: a connection's steady state — ReadFrame, then
// ServeFrame, the server loop less its write — allocates nothing, with
// frames split across reads, frames straddling the read buffer's end, and a
// frame larger than the initial buffer. ReadFrame reads a stream, which the
// hotpath analyzer forbids on a hot closure, so this test is what holds its
// side of the cycle to zero.
func TestReadServeZeroAlloc(t *testing.T) {
	var stream []byte
	for _, n := range []int{256, 1, 4000, 17, 150} {
		ops := make([]Op, n)
		for i := range ops {
			ops[i] = Op{Code: OpAdmit, Class: 1, Cost: 5000} // over reporting's cost limit: no slot held
		}
		payload, err := EncodeRequest(nil, ops)
		if err != nil {
			t.Fatal(err)
		}
		stream = append(appendPrefix(stream, uint32(len(payload))), payload...)
	}
	fc := NewFrameConn(&loopReader{data: stream, chunk: 7000})
	d := &Dispatcher{RT: testRuntime(t)}
	var st FrameState
	cycle := func() {
		p, err := fc.ReadFrame()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.ServeFrame(p, &st); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ { // warm: grow the read buffer and the frame state
		cycle()
	}
	if avg := testing.AllocsPerRun(500, func() {
		p, err := fc.ReadFrame()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.ServeFrame(p, &st); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("steady-state read and serve allocates %v allocs/frame, want 0", avg)
	}
}

// serveOne accepts one TCP connection on a fresh listener and runs the
// server's frame loop on it the way Serve would, reporting on the returned
// channel once the loop has returned.
func serveOne(t *testing.T, s *Server) (client net.Conn, done chan struct{}) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	client, err = net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	c, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	s.track(c)
	done = make(chan struct{})
	go func() {
		s.serveConn(c)
		close(done)
	}()
	return client, done
}

// TestServerCountsOnlyProtocolErrors: a connection ends in ProtoErrors only
// when its peer broke the framing or sent an undecodable frame — not when
// Close tears idle connections down and not when a peer resets.
func TestServerCountsOnlyProtocolErrors(t *testing.T) {
	t.Run("close-idle", func(t *testing.T) {
		s := NewServer(&Dispatcher{RT: testRuntime(t)})
		var dones []chan struct{}
		for i := 0; i < 3; i++ {
			_, done := serveOne(t, s)
			dones = append(dones, done)
		}
		s.Close()
		for _, d := range dones {
			<-d
		}
		if st := s.Stats(); st.ProtoErrors != 0 {
			t.Fatalf("Close with 3 idle connections: %+v, want 0 protocol errors", st)
		}
	})
	t.Run("peer-reset", func(t *testing.T) {
		s := NewServer(&Dispatcher{RT: testRuntime(t)})
		client, done := serveOne(t, s)
		if err := client.(*net.TCPConn).SetLinger(0); err != nil { // Close sends a reset
			t.Fatal(err)
		}
		client.Close()
		<-done
		if st := s.Stats(); st.ProtoErrors != 0 {
			t.Fatalf("peer reset: %+v, want 0 protocol errors", st)
		}
	})
	for _, tc := range []struct {
		name  string
		bytes []byte
	}{
		{"zero-length", []byte{0, 0, 0, 0}},
		{"truncated-body", []byte{9, 0, 0, 0, 1, 2}},
		{"bad-magic", []byte{5, 0, 0, 0, 0, 1, 1, 0, 0}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewServer(&Dispatcher{RT: testRuntime(t)})
			client, done := serveOne(t, s)
			if _, err := client.Write(tc.bytes); err != nil {
				t.Fatal(err)
			}
			if err := client.(*net.TCPConn).CloseWrite(); err != nil {
				t.Fatal(err)
			}
			<-done
			if st := s.Stats(); st.ProtoErrors != 1 {
				t.Fatalf("%s: %+v, want 1 protocol error", tc.name, st)
			}
		})
	}
}
