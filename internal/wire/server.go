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

// FrameConn frames payloads over a byte stream: every frame is a little-endian
// u32 payload length followed by exactly that many payload bytes. Both ends of
// the wire protocol use it — the server's connection loop and the clients
// (cmd/wlmload, internal/bench) — so the framing rules live in one place. A
// FrameConn owns reusable scratch (read buffer, writev vector), so the steady
// state of a persistent connection reads and writes frames without
// allocating. Not safe for concurrent use; pipelining clients run one writer
// and one reader goroutine over two FrameConns sharing the socket (reads and
// writes never touch the same scratch).
type FrameConn struct {
	rw   io.ReadWriter
	rhdr [4]byte
	whdr [4]byte
	rbuf []byte
	vec  [2][]byte
}

// NewFrameConn wraps a stream. rw is typically a net.Conn; when it is, writes
// use a single writev for prefix plus payload.
func NewFrameConn(rw io.ReadWriter) *FrameConn {
	return &FrameConn{rw: rw}
}

// ReadFrame reads one frame and returns its payload. The slice aliases the
// FrameConn's scratch and is valid until the next ReadFrame. io.EOF between
// frames reports a clean hangup; any mid-frame truncation or length violation
// reports a protocol error.
func (f *FrameConn) ReadFrame() ([]byte, error) {
	if _, err := io.ReadFull(f.rw, f.rhdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("wire: frame header: %w", err)
	}
	n := le.U32(f.rhdr[:], 0)
	if n == 0 || n > MaxFrame {
		return nil, fmt.Errorf("wire: frame length %d out of range (1..%d)", n, MaxFrame)
	}
	f.rbuf = grow(f.rbuf, int(n))
	if _, err := io.ReadFull(f.rw, f.rbuf); err != nil {
		return nil, fmt.Errorf("wire: frame body: %w", err)
	}
	return f.rbuf, nil
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
	// ProtoErrors counts connections dropped for protocol violations.
	ProtoErrors int64 `json:"proto_errors"`
}

// Stats snapshots the listener counters.
func (s *Server) Stats() ServerStats {
	return ServerStats{
		Accepted:    s.accepted.Load(),
		Frames:      s.frames.Load(),
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

// serveConn runs one connection's frame loop until hangup or protocol error.
func (s *Server) serveConn(c net.Conn) {
	defer s.untrack(c)
	defer c.Close()
	fc := NewFrameConn(c)
	var st FrameState
	for {
		payload, err := fc.ReadFrame()
		if err != nil {
			if err != io.EOF {
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
