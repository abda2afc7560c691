package wire

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"dbwlm/internal/le"
	"dbwlm/internal/obsv"
)

// ErrFrame marks a framing violation on a FrameConn's stream: a length
// prefix out of range, or a frame cut off by a hangup mid-header or
// mid-body. ReadFrame wraps it (test with errors.Is); a clean hangup between
// frames is io.EOF and a transport failure (reset, closed socket) is neither.
var ErrFrame = errors.New("wire: framing violation")

// FrameConn frames payloads over a byte stream: every frame is a little-endian
// u32 payload length followed by exactly that many payload bytes. Both ends of
// the wire protocol use it — the server's connection loop and the clients
// (cmd/wlmload, internal/bench) — so the framing rules live in one place.
//
// Reads go through a buffer the FrameConn owns: one read takes whatever the
// stream has ready, up to the buffer's size, so a burst of pipelined frames
// costs one read, not two per frame. The buffer is allocated on the first
// ReadFrame at readBufSize and grows to the largest frame seen (at most
// MaxFrame plus its prefix); together with the writev vector it is reused, so
// the steady state of a persistent connection reads and writes frames without
// allocating.
//
// Not safe for concurrent use, with one exception: one goroutine may read
// while another writes, since reads and writes share no state. The buffer may
// hold bytes of frames not yet returned, so only one FrameConn may read a
// given stream; a pipelining client with a separate writer goroutine gives
// the writer its own FrameConn or shares this one, never a second reader.
type FrameConn struct {
	rw io.ReadWriter
	// rbuf[rpos:rend] is read from the stream but not yet returned.
	rbuf       []byte
	rpos, rend int
	rerr       error // the last read's error, returned once the buffered bytes run out
	reads      int64 // reads made on the stream
	whdr       [4]byte
	vec        [2][]byte
}

// readBufSize is a FrameConn's initial read buffer: a 256-op frame of admit
// and done ops is at most 12 KiB, so a pipeline several frames deep fits in
// one read.
const readBufSize = 64 << 10

// NewFrameConn wraps a stream. rw is typically a net.Conn; when it is, writes
// use a single writev for prefix plus payload.
func NewFrameConn(rw io.ReadWriter) *FrameConn {
	return &FrameConn{rw: rw}
}

// ReadFrame reads one frame and returns its payload. The slice aliases the
// FrameConn's read buffer and is valid until the next ReadFrame. io.EOF
// between frames reports a clean hangup. A length prefix out of range is
// rejected before any of the body is awaited; it and a hangup mid-frame
// report an error wrapping ErrFrame. Any other read error is returned
// wrapped, without ErrFrame.
func (f *FrameConn) ReadFrame() ([]byte, error) {
	if err := f.fill(4); err != nil {
		if err == io.EOF {
			if f.rend == f.rpos {
				return nil, io.EOF
			}
			return nil, fmt.Errorf("%w: frame header: %w", ErrFrame, io.ErrUnexpectedEOF)
		}
		return nil, fmt.Errorf("wire: frame header: %w", err)
	}
	n := le.U32(f.rbuf[f.rpos:], 0)
	if n == 0 || n > MaxFrame {
		return nil, fmt.Errorf("%w: frame length %d out of range (1..%d)", ErrFrame, n, MaxFrame)
	}
	size := 4 + int(n)
	if err := f.fill(size); err != nil {
		if err == io.EOF {
			return nil, fmt.Errorf("%w: frame body: %w", ErrFrame, io.ErrUnexpectedEOF)
		}
		return nil, fmt.Errorf("wire: frame body: %w", err)
	}
	payload := f.rbuf[f.rpos+4 : f.rpos+size]
	f.rpos += size
	return payload, nil
}

// fill reads until at least n bytes are buffered past rpos, moving the
// unread bytes to the front of the buffer (or into a larger one) when n does
// not fit behind them. A read error is kept until the buffered bytes run out,
// so a frame that arrived with the error is still returned.
func (f *FrameConn) fill(n int) error {
	if f.rend-f.rpos >= n {
		return nil
	}
	if f.rpos == f.rend {
		f.rpos, f.rend = 0, 0
	}
	if len(f.rbuf)-f.rpos < n {
		buf := f.rbuf
		if len(buf) < n {
			buf = make([]byte, max(n, readBufSize))
		}
		f.rend = copy(buf, f.rbuf[f.rpos:f.rend])
		f.rpos, f.rbuf = 0, buf
	}
	for f.rend-f.rpos < n {
		if err := f.rerr; err != nil {
			f.rerr = nil
			return err
		}
		m, err := f.rw.Read(f.rbuf[f.rend:])
		f.reads++
		f.rend += m
		f.rerr = err
	}
	return nil
}

// WriteFrame writes payload as one frame. On a net.Conn the prefix and the
// payload go out in a single writev; no copy, no allocation.
func (f *FrameConn) WriteFrame(payload []byte) error {
	if len(payload) == 0 || len(payload) > MaxFrame {
		return fmt.Errorf("wire: frame length %d out of range (1..%d)", len(payload), MaxFrame)
	}
	le.PutU32(f.whdr[:], 0, uint32(len(payload)))
	f.vec[0], f.vec[1] = f.whdr[:], payload
	bufs := net.Buffers(f.vec[:])
	_, err := bufs.WriteTo(f.rw)
	f.vec[0], f.vec[1] = nil, nil
	return err
}

// Server speaks the wire protocol over persistent TCP connections: each
// request frame (one encoded batch) is answered by one response frame, in
// order. Connections are pipelined — a client may write several request frames
// before reading the first response — which is what lets small batches still
// saturate the dispatcher (cmd/wlmbench's live workloads drive it that way).
//
// Framing errors are fatal to the connection: once the byte stream cannot be
// trusted (bad magic, oversized length, truncated op), resynchronizing is
// impossible, so the server closes the socket and the client reconnects.
// Dispatch-level failures (unknown class, stale grant) are per-op statuses
// inside a normal response frame and never kill the connection.
type Server struct {
	dispatcher *Dispatcher

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	closed   bool

	accepted atomic.Int64
	frames   atomic.Int64
	reads    atomic.Int64
	protoErr atomic.Int64
}

// NewServer wires a TCP front end over a dispatcher.
func NewServer(d *Dispatcher) *Server {
	return &Server{dispatcher: d, conns: make(map[net.Conn]struct{})}
}

// ServerStats is the monitoring view of the wire listener.
type ServerStats struct {
	// Accepted counts connections accepted over the server's lifetime.
	Accepted int64 `json:"accepted"`
	// Frames counts request frames successfully dispatched.
	Frames int64 `json:"frames"`
	// Reads counts socket reads of request bytes; with Frames it gives the
	// reads per frame.
	Reads int64 `json:"reads"`
	// ProtoErrors counts connections dropped for protocol violations.
	ProtoErrors int64 `json:"proto_errors"`
}

// Stats snapshots the listener counters.
func (s *Server) Stats() ServerStats {
	return ServerStats{
		Accepted:    s.accepted.Load(),
		Frames:      s.frames.Load(),
		Reads:       s.reads.Load(),
		ProtoErrors: s.protoErr.Load(),
	}
}

// WritePrometheus renders the listener counters as the dbwlm_wire_* families
// of the daemon's /metrics page.
func (s *Server) WritePrometheus(p *obsv.PromWriter) {
	st := s.Stats()
	p.Counter("dbwlm_wire_connections_accepted_total", "Wire-protocol connections accepted.")
	p.Val(float64(st.Accepted))
	p.Counter("dbwlm_wire_frames_total", "Wire-protocol request frames dispatched.")
	p.Val(float64(st.Frames))
	p.Counter("dbwlm_wire_reads_total", "Wire-protocol socket reads of request bytes.")
	p.Val(float64(st.Reads))
	p.Counter("dbwlm_wire_protocol_errors_total", "Wire-protocol connections dropped for protocol violations.")
	p.Val(float64(st.ProtoErrors))
}

// Serve accepts connections on l until Close. It retains l and closes it on
// shutdown. Blocks; run it in a goroutine.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		l.Close()
		return errors.New("wire: server closed")
	}
	s.listener = l
	s.mu.Unlock()
	for {
		c, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return fmt.Errorf("wire: accept: %w", err)
		}
		s.accepted.Add(1)
		s.track(c)
		go s.serveConn(c)
	}
}

// Close stops accepting and tears down every live connection.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	l := s.listener
	for c := range s.conns {
		c.Close()
	}
	s.conns = make(map[net.Conn]struct{})
	s.mu.Unlock()
	if l != nil {
		return l.Close()
	}
	return nil
}

func (s *Server) track(c net.Conn) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		c.Close()
		return
	}
	s.conns[c] = struct{}{}
	s.mu.Unlock()
}

func (s *Server) untrack(c net.Conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

// serveConn runs one connection's frame loop until hangup, transport error
// or protocol error. Only a protocol error — a framing violation or an
// undecodable frame — counts in ProtoErrors: a peer that hangs up or resets,
// and a connection Close tears down, are not the peer breaking the protocol.
func (s *Server) serveConn(c net.Conn) {
	defer s.untrack(c)
	defer c.Close()
	fc := NewFrameConn(c)
	var st FrameState
	var reads int64
	for {
		payload, err := fc.ReadFrame()
		s.reads.Add(fc.reads - reads)
		reads = fc.reads
		if err != nil {
			if errors.Is(err, ErrFrame) {
				s.protoErr.Add(1)
			}
			return
		}
		resp, err := s.dispatcher.ServeFrame(payload, &st)
		if err != nil {
			s.protoErr.Add(1)
			return
		}
		s.frames.Add(1)
		if err := fc.WriteFrame(resp); err != nil {
			return
		}
	}
}
