package emulator

import (
	"fmt"
	"net"
	"sync"
	"time"

	"cadmc/internal/faultnet"
	"cadmc/internal/gateway"
	"cadmc/internal/serving"
)

// idleTimeout bounds how long an offload connection may sit idle on a
// stack's server.
const idleTimeout = 30 * time.Second

// classMbps are the demo model tree's bandwidth-class levels: the low class
// composes the edge-resident variant, the high class the partitioned one.
var classMbps = []float64{2, 8}

// Stack is one in-process split-serving deployment: a serving.Server on a
// loopback port and the goroutine serving it, faultnet-wrapped dialers into
// it, and the gateways built on top. Every live replay, cmd/loadgen and the
// serving example bring their runtime up through a Stack; Close tears all of
// it down on every exit path.
type Stack struct {
	// Server serves the cloud halves; register models on it.
	Server *serving.Server

	addr      string
	serveDone chan error
	gateways  []*gateway.Gateway

	closeOnce sync.Once
	closeErr  error
}

// NewStack starts a server on 127.0.0.1 at an ephemeral port.
func NewStack() (*Stack, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("emulator: listen: %w", err)
	}
	s := &Stack{
		Server:    serving.NewServer(),
		addr:      lis.Addr().String(),
		serveDone: make(chan error, 1),
	}
	s.Server.IdleTimeout = idleTimeout
	go func() { s.serveDone <- s.Server.Serve(lis) }()
	return s, nil
}

// Addr is the server's loopback address.
func (s *Stack) Addr() string { return s.addr }

// Dial returns the dial function of one offload client. Each call opens a
// loopback connection and wraps it in spec, the n-th connection (from 0)
// seeded spec.Seed + n·7919 so every redial gets a decorrelated fault
// stream. The counter is unsynchronised — a ResilientClient dials under its
// request lock — so give each client its own dialer. A nil clock keeps each
// wrapper on its own real clock.
func (s *Stack) Dial(spec faultnet.Spec, clock faultnet.Clock) func() (net.Conn, error) {
	n := int64(0)
	return func() (net.Conn, error) {
		conn, err := net.Dial("tcp", s.addr)
		if err != nil {
			return nil, err
		}
		sp := spec
		sp.Seed = spec.Seed + n*7919
		n++
		return faultnet.Wrap(conn, sp, clock), nil
	}
}

// Provider composes the demo model tree's variants for classMbps from seed,
// registering each cloud half on the server.
func (s *Stack) Provider(seed int64) (*gateway.VariantProvider, error) {
	tree, err := gateway.DemoTree(classMbps)
	if err != nil {
		return nil, err
	}
	return gateway.NewVariantProvider(tree, seed, s.Server.Register)
}

// Gateway builds a gateway from cfg whose workers each offload through
// their own ResilientClient (tuned by res) dialled through spec; it fills
// cfg's NewOffloader and CloseOffloader. Every worker's dialer starts at
// spec.Seed, so give the gateway no probabilistic fault that the workers
// must see decorrelated. Close stops the gateway if the caller has not.
func (s *Stack) Gateway(cfg gateway.Config, spec faultnet.Spec, res serving.ResilientOptions) (*gateway.Gateway, error) {
	cfg.NewOffloader = func(int) (serving.Offloader, error) {
		return serving.NewResilientClient(s.Dial(spec, nil), res)
	}
	cfg.CloseOffloader = func(o serving.Offloader) error {
		return o.(*serving.ResilientClient).Close()
	}
	gw, err := gateway.New(cfg)
	if err != nil {
		return nil, err
	}
	s.gateways = append(s.gateways, gw)
	return gw, nil
}

// Close stops every gateway the stack built, closes the server, joins the
// serve goroutine and returns Serve's error (or, failing that, the server's
// close error). Later calls return the first call's result.
func (s *Stack) Close() error {
	s.closeOnce.Do(func() {
		for _, gw := range s.gateways {
			gw.Stop()
		}
		closeErr := s.Server.Close()
		if s.closeErr = <-s.serveDone; s.closeErr == nil {
			s.closeErr = closeErr
		}
	})
	return s.closeErr
}
