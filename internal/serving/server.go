package serving

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"cadmc/internal/nn"
)

// Server completes partitioned inferences for registered executable models.
// It is safe for concurrent use; each connection is handled by its own
// goroutine, and requests on one connection are processed sequentially (the
// paper's pipeline ships one activation per inference).
//
// Two guards keep dead or malicious clients from exhausting the server: an
// idle/read deadline per connection (IdleTimeout) so abandoned sockets
// cannot pin handler goroutines, and a per-request payload cap
// (MaxPayloadElems, enforced both on decoded bytes and on the shape
// product) so a crafted frame cannot force an unbounded allocation.
type Server struct {
	// IdleTimeout bounds how long a connection may sit between requests and
	// how long one request frame may take to arrive; zero means no limit.
	// Set before Serve.
	IdleTimeout time.Duration
	// MaxPayloadElems caps the activation element count per request; zero
	// means DefaultMaxPayloadElems. Set before Serve.
	MaxPayloadElems int
	// Metrics, when set, receives wire frame bytes and decode cost under
	// serving.server.wire.* names. Set before Serve.
	Metrics MetricSink

	mu     sync.Mutex
	models map[string]*nn.Net
	conns  map[net.Conn]struct{}
	lis    net.Listener
	closed bool
	wg     sync.WaitGroup
	served int64
	failed int64
}

// Stats reports how many requests completed successfully and how many were
// answered with an error since the server started.
func (s *Server) Stats() (served, failed int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.served, s.failed
}

// NewServer returns an empty server.
func NewServer() *Server {
	return &Server{
		models: make(map[string]*nn.Net),
		conns:  make(map[net.Conn]struct{}),
	}
}

// Register makes a model available under id. The net must be executable;
// requests reference it by id and cut index.
func (s *Server) Register(id string, net *nn.Net) error {
	if id == "" || net == nil {
		return errors.New("serving: register needs an id and a model")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.models[id]; dup {
		return fmt.Errorf("serving: model %q already registered", id)
	}
	s.models[id] = net
	return nil
}

// maxElems resolves the payload cap.
func (s *Server) maxElems() int {
	if s.MaxPayloadElems > 0 {
		return s.MaxPayloadElems
	}
	return DefaultMaxPayloadElems
}

// Serve accepts connections on lis until Close is called. It blocks; run it
// in a goroutine and use Close for shutdown.
func (s *Server) Serve(lis net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errors.New("serving: server closed")
	}
	s.lis = lis
	s.mu.Unlock()
	for {
		conn, err := lis.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return fmt.Errorf("serving: accept: %w", err)
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		// The Add must happen under the same critical section that checks
		// closed: if it moved after Unlock, a concurrent Close could pass
		// wg.Wait before this handler is counted and return while the
		// handler still runs.
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			//cadmc:allow deadline -- handle arms a per-frame read deadline whenever IdleTimeout is configured, and Close force-closes live conns to unblock the rest
			s.handle(conn)
		}()
	}
}

// Close stops accepting, closes every live connection, and waits for the
// handlers to drain.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	lis := s.lis
	for conn := range s.conns {
		_ = conn.Close()
	}
	s.mu.Unlock()
	var err error
	if lis != nil {
		err = lis.Close()
	}
	s.wg.Wait()
	return err
}

func (s *Server) handle(conn net.Conn) {
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		_ = conn.Close()
	}()
	// The handshake reads the client's hello under the same idle deadline
	// as every later frame, so a client that connects and goes mute is
	// reaped on schedule.
	c, err := s.handshake(conn)
	if err != nil {
		return
	}
	// One Request reused across the loop: requests on a connection are
	// sequential and the activation is consumed inside complete, so the
	// binary codec can decode every frame into the same backing arrays.
	req := new(Request)
	for {
		if s.IdleTimeout > 0 {
			if err := conn.SetReadDeadline(time.Now().Add(s.IdleTimeout)); err != nil {
				return
			}
		}
		if err := c.readRequest(req); err != nil {
			if s.IdleTimeout > 0 {
				if derr := conn.SetWriteDeadline(time.Now().Add(s.IdleTimeout)); derr != nil {
					return
				}
			}
			if errors.Is(err, ErrFrameResync) {
				// The damaged frame was consumed whole: tell the client the
				// stream is aligned and keep serving this connection.
				if c.writeResync() != nil {
					return
				}
				continue
			}
			var malformed *malformedPayloadError
			if errors.As(err, &malformed) {
				// Framed and checksummed, but the content is invalid: an
				// application-level rejection, not a stream poisoning.
				s.mu.Lock()
				s.failed++
				s.mu.Unlock()
				if c.writeResponse(&Response{Err: "malformed request: " + malformed.reason}) != nil {
					return
				}
				continue
			}
			// EOF, closed-connection errors and expired idle deadlines end
			// the session quietly: there is nobody worth answering.
			if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) || isTimeout(err) {
				return
			}
			_ = c.writeResponse(&Response{Err: "malformed request: " + err.Error()})
			return
		}
		resp := s.complete(req)
		resp.ID = req.ID
		s.mu.Lock()
		if resp.Err == "" {
			s.served++
		} else {
			s.failed++
		}
		s.mu.Unlock()
		if s.IdleTimeout > 0 {
			if err := conn.SetWriteDeadline(time.Now().Add(s.IdleTimeout)); err != nil {
				return
			}
		}
		if err := c.writeResponse(resp); err != nil {
			return
		}
	}
}

// isTimeout reports whether err is a network deadline expiry.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// complete runs the cloud half of one request.
func (s *Server) complete(req *Request) *Response {
	s.mu.Lock()
	model := s.models[req.ModelID]
	s.mu.Unlock()
	if model == nil {
		return &Response{Err: fmt.Sprintf("unknown model %q", req.ModelID)}
	}
	if req.Cut < -1 || req.Cut >= len(model.Model.Layers) {
		return &Response{Err: fmt.Sprintf("cut %d out of range", req.Cut)}
	}
	act, err := activationTensor(req, s.maxElems())
	if err != nil {
		return &Response{Err: err.Error()}
	}
	logits, err := model.ForwardFrom(act, req.Cut+1)
	if err != nil {
		return &Response{Err: err.Error()}
	}
	return &Response{Logits: append([]float64(nil), logits.Data...)}
}
