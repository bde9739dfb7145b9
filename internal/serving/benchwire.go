package serving

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// errPayloadTooLarge aborts a gob decode whose frame exceeds the
// per-request byte budget.
var errPayloadTooLarge = errors.New("serving: request frame exceeds the payload limit")

// byteLimitedReader meters a stream's reads against a per-frame budget so
// one malicious or corrupt length prefix cannot force the gob decoder to
// buffer an unbounded frame. The budget is reset before each request.
type byteLimitedReader struct {
	r         io.Reader
	limit     int64
	remaining int64
}

func (b *byteLimitedReader) reset() { b.remaining = b.limit }

func (b *byteLimitedReader) Read(p []byte) (int, error) {
	if b.remaining <= 0 {
		return 0, errPayloadTooLarge
	}
	if int64(len(p)) > b.remaining {
		p = p[:b.remaining]
	}
	n, err := b.r.Read(p)
	b.remaining -= int64(n)
	return n, err
}

// codec is the seam WireBench drives. Two implementations exist: binCodec
// (the binary protocol in wire.go — the only codec on the live path) and
// gobCodec below, kept solely as the bench's reference encoding and the fuzz
// suite's differential oracle.
type codec interface {
	writeRequest(*Request) error
	readRequest(*Request) error
	writeResponse(*Response) error
	readResponse(*Response) error
}

// gobCodec wraps a stream with gob encode/decode and a write lock.
type gobCodec struct {
	enc *gob.Encoder
	dec *gob.Decoder
	// lim, when non-nil, meters each readRequest against a byte budget
	// (server side only).
	lim *byteLimitedReader
	mu  sync.Mutex
}

func newGobCodec(conn io.ReadWriter) *gobCodec {
	return &gobCodec{
		enc: gob.NewEncoder(conn),
		dec: gob.NewDecoder(conn),
	}
}

// newLimitedGobCodec builds a gob codec whose request reads are metered
// against limitBytes per frame — the budgeted decoder the fuzz oracle runs.
func newLimitedGobCodec(conn io.ReadWriter, limitBytes int64) *gobCodec {
	lim := &byteLimitedReader{r: conn, limit: limitBytes}
	return &gobCodec{
		enc: gob.NewEncoder(conn),
		dec: gob.NewDecoder(lim),
		lim: lim,
	}
}

func (c *gobCodec) writeRequest(r *Request) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.enc.Encode(r); err != nil {
		return fmt.Errorf("serving: encode request: %w", err)
	}
	return nil
}

func (c *gobCodec) readRequest(r *Request) error {
	if c.lim != nil {
		c.lim.reset()
	}
	// Gob omits zero-valued fields on the wire, so decoding into a reused
	// struct would leak the previous frame's values; reset first.
	*r = Request{}
	return c.dec.Decode(r)
}

func (c *gobCodec) writeResponse(r *Response) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.enc.Encode(r); err != nil {
		return fmt.Errorf("serving: encode response: %w", err)
	}
	return nil
}

func (c *gobCodec) readResponse(r *Response) error {
	*r = Response{}
	return c.dec.Decode(r)
}

// Wire bench modes accepted by NewWireBench. They name the codec being
// driven, not a negotiation outcome: the bench bypasses the handshake and
// talks straight to the codec, which is the thing being measured.
const (
	WireBenchGob    = "gob"
	WireBenchBinary = "binary"
	WireBenchF32    = "binary_f32"
)

// loopbackConn is an in-memory net.Conn for single-goroutine codec
// benchmarking: writes append to a buffer, reads drain it. No goroutines, no
// syscalls — a measurement over it is pure codec cost.
type loopbackConn struct {
	buf bytes.Buffer
}

func (l *loopbackConn) Read(p []byte) (int, error)       { return l.buf.Read(p) }
func (l *loopbackConn) Write(p []byte) (int, error)      { return l.buf.Write(p) }
func (l *loopbackConn) Close() error                     { return nil }
func (l *loopbackConn) LocalAddr() net.Addr              { return loopbackAddr{} }
func (l *loopbackConn) RemoteAddr() net.Addr             { return loopbackAddr{} }
func (l *loopbackConn) SetDeadline(time.Time) error      { return nil }
func (l *loopbackConn) SetReadDeadline(time.Time) error  { return nil }
func (l *loopbackConn) SetWriteDeadline(time.Time) error { return nil }

type loopbackAddr struct{}

func (loopbackAddr) Network() string { return "loopback" }
func (loopbackAddr) String() string  { return "loopback" }

// WireBench drives one codec over an in-memory loopback so cmd/wirebench can
// measure steady-state encode+decode cost with nothing else in the way. It is
// a benchmarking seam, not a transport: both halves of the "connection" run
// on the caller's goroutine.
type WireBench struct {
	c    codec
	conn *loopbackConn

	// Decode targets are reused across round trips: steady state, the
	// binary codec re-fills them without allocating.
	reqScratch  Request
	respScratch Response

	reqBytes  int
	respBytes int
}

// NewWireBench builds a bench rig for one codec mode (WireBenchGob,
// WireBenchBinary or WireBenchF32).
func NewWireBench(mode string) (*WireBench, error) {
	conn := &loopbackConn{}
	b := &WireBench{conn: conn}
	switch mode {
	case WireBenchGob:
		b.c = newGobCodec(conn)
	case WireBenchBinary:
		b.c = newBinCodec(conn, DefaultMaxPayloadElems, nil, nil, clientWireNames)
	case WireBenchF32:
		bc := newBinCodec(conn, DefaultMaxPayloadElems, nil, nil, clientWireNames)
		bc.narrow = true
		b.c = bc
	default:
		return nil, fmt.Errorf("serving: unknown wire bench mode %q", mode)
	}
	return b, nil
}

// RoundTrip pushes one offload's worth of codec work through the loopback:
// encode req, decode it into a reused scratch, encode resp, decode it back —
// two frames, each encoded and decoded once.
func (b *WireBench) RoundTrip(req *Request, resp *Response) error {
	if err := b.c.writeRequest(req); err != nil {
		return err
	}
	b.reqBytes = b.conn.buf.Len()
	if err := b.c.readRequest(&b.reqScratch); err != nil {
		return err
	}
	if err := b.c.writeResponse(resp); err != nil {
		return err
	}
	b.respBytes = b.conn.buf.Len()
	if err := b.c.readResponse(&b.respScratch); err != nil {
		return err
	}
	return nil
}

// FrameBytes reports the encoded request and response frame sizes observed on
// the most recent RoundTrip.
func (b *WireBench) FrameBytes() (reqBytes, respBytes int) {
	return b.reqBytes, b.respBytes
}

// DecodedRequest exposes the scratch request the last RoundTrip decoded into,
// so callers can sanity-check fidelity (e.g. f32 narrowing error bounds).
func (b *WireBench) DecodedRequest() *Request { return &b.reqScratch }
