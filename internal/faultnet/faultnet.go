// Package faultnet is a deterministic fault-injection substrate for the
// offload channel: it wraps any net.Conn or net.Listener with seeded chaos —
// injected latency, bandwidth throttling, connection resets, mid-frame drops,
// byte-budget truncation, and scheduled outage windows — so the serving
// layer's retry, reconnect and degradation paths can be exercised from tests
// and the emulator on a real socket, reproducibly.
//
// All randomness flows from Spec.Seed; all schedules read a Clock, which in
// tests is a ManualClock advanced explicitly, so a chaos scenario replays
// bit-identically under -race and -count=2.
package faultnet

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"cadmc/internal/network"
)

// Clock reports elapsed time since an arbitrary origin. The chaos schedules
// (outage windows) are defined on this axis, so a ManualClock makes them
// deterministic while the default real clock makes them wall-time.
type Clock interface {
	Now() time.Duration
}

// NewClock returns a real monotonic clock starting at zero now.
func NewClock() Clock {
	//cadmc:allow walltime -- the seam's real implementation is the one sanctioned reader
	return &realClock{start: time.Now()}
}

type realClock struct {
	start time.Time
}

//cadmc:allow walltime -- the seam's real implementation is the one sanctioned reader
func (c *realClock) Now() time.Duration { return time.Since(c.start) }

// ManualClock is a Clock advanced explicitly by the test or harness driving
// the scenario. It is safe for concurrent use.
type ManualClock struct {
	mu sync.Mutex
	t  time.Duration
}

// NewManualClock returns a manual clock at time zero.
func NewManualClock() *ManualClock { return &ManualClock{} }

// Now returns the current manual time.
func (c *ManualClock) Now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

// Advance moves the clock forward by d.
func (c *ManualClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t += d
}

// Set jumps the clock to t.
func (c *ManualClock) Set(t time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = t
}

// AutoClock is a deterministic clock that advances itself by a fixed step on
// every Now call. When the sequence of clock reads in a replay is
// deterministic (single worker, requests serialized), every timestamp —
// admission, dispatch, offload, completion — is a pure function of the read
// order, so two replays of the same seed produce bit-identical traces with
// non-degenerate span widths. It reads nothing from the environment.
type AutoClock struct {
	mu   sync.Mutex
	t    time.Duration
	step time.Duration
}

// NewAutoClock returns an auto-stepping clock starting at zero; each Now
// returns the current time and then advances by step (minimum 1ns, so the
// sequence is strictly increasing).
func NewAutoClock(step time.Duration) *AutoClock {
	if step <= 0 {
		step = time.Nanosecond
	}
	return &AutoClock{step: step}
}

// Now returns the current virtual time and steps the clock forward.
func (c *AutoClock) Now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := c.t
	c.t += c.step
	return t
}

// Reads reports how many Now calls the clock has served (the current
// virtual time divided by the step).
func (c *AutoClock) Reads() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return int64(c.t / c.step)
}

// Window is one scheduled outage interval [StartMS, EndMS) on the clock axis.
type Window struct {
	StartMS float64
	EndMS   float64
}

// Contains reports whether tMS falls inside the window.
func (w Window) Contains(tMS float64) bool {
	return tMS >= w.StartMS && tMS < w.EndMS
}

// Spec parameterises the injected faults. The zero value injects nothing and
// passes traffic through untouched.
type Spec struct {
	// Seed drives every probabilistic fault; equal seeds replay equal chaos.
	Seed int64
	// LatencyMS delays each write by half an RTT (one-way propagation).
	LatencyMS float64
	// BandwidthMbps throttles writes to the given rate; zero means unlimited.
	BandwidthMbps float64
	// ResetProb is the per-write probability of an injected connection reset
	// before any byte of the frame is delivered.
	ResetProb float64
	// DropProb is the per-write probability of a mid-frame drop: a prefix is
	// delivered, the rest silently vanishes, and the write claims success —
	// the peer stalls until its deadline fires.
	DropProb float64
	// CutAfterBytes kills the connection mid-write once that many bytes have
	// passed through it; zero disables. This schedules a deterministic
	// mid-stream truncation without probabilities.
	CutAfterBytes int64
	// CorruptByteAt XOR-flips the Nth byte (1-based) written through the
	// connection and delivers everything else intact; zero disables. Unlike
	// cuts and drops this damages a frame without touching its boundaries —
	// the fault the wire codec's checksum-resync path exists for.
	CorruptByteAt int64
	// Outages are scheduled windows during which every read and write on the
	// connection fails with an injected reset.
	Outages []Window
	// WriteGate, when set, stalls exactly one write across all connections
	// sharing the gate: the first Write after the gate is armed parks until
	// Release. Unlike resets and drops this injects a silent wedge — no
	// error, no bytes — which is what a frozen peer or a hung middlebox
	// looks like from the edge.
	WriteGate *Gate
}

// Gate is a one-shot write stall shared between connections. Arm it, and the
// first write on any gated connection parks — without error and without
// delivering bytes — until Release. It models the failure the worker
// supervisor exists for: a request path that is neither progressing nor
// failing.
type Gate struct {
	mu       sync.Mutex
	armed    bool
	claimed  bool
	released bool
	ch       chan struct{}
}

// NewGate returns an unarmed gate.
func NewGate() *Gate {
	return &Gate{ch: make(chan struct{})}
}

// Arm makes the next gated write stall. Arming an already-released gate has
// no effect: a gate is one-shot.
func (g *Gate) Arm() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.released {
		g.armed = true
	}
}

// claim reports whether the calling write is the one that must stall; only
// the first claim after Arm wins.
func (g *Gate) claim() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.armed || g.claimed || g.released {
		return false
	}
	g.claimed = true
	return true
}

// wait parks the claiming writer until Release.
func (g *Gate) wait() { <-g.ch }

// Claimed reports whether some write has claimed (and is or was stalled on)
// the gate — tests use it to know the wedge is in place before advancing
// the clock.
func (g *Gate) Claimed() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.claimed
}

// Release unblocks the stalled writer, if any, and permanently disarms the
// gate. Idempotent.
func (g *Gate) Release() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.released {
		return
	}
	g.released = true
	g.armed = false
	close(g.ch)
}

// Validate checks the spec parameters.
func (s Spec) Validate() error {
	if s.LatencyMS < 0 || s.BandwidthMbps < 0 || s.CutAfterBytes < 0 || s.CorruptByteAt < 0 {
		return fmt.Errorf("faultnet: negative fault parameter in %+v", s)
	}
	if s.ResetProb < 0 || s.ResetProb > 1 || s.DropProb < 0 || s.DropProb > 1 {
		return fmt.Errorf("faultnet: fault probabilities must be in [0,1]: %+v", s)
	}
	for _, w := range s.Outages {
		if w.EndMS <= w.StartMS {
			return fmt.Errorf("faultnet: empty outage window %+v", w)
		}
	}
	return nil
}

func (s Spec) outageAt(tMS float64) bool {
	for _, w := range s.Outages {
		if w.Contains(tMS) {
			return true
		}
	}
	return false
}

// FromScenario derives a chaos spec from a named network scenario: the
// radio's RTT becomes injected latency, the long-run mean becomes a
// throttle, and the scenario's outage process is sampled deterministically
// from the seed into explicit windows covering durationMS — the same
// exponential fade model the trace generator uses.
func FromScenario(sc network.Scenario, seed int64, durationMS float64) Spec {
	sp := Spec{
		Seed:          seed,
		LatencyMS:     sc.RTTMS / 2,
		BandwidthMbps: sc.MeanMbps,
	}
	if sc.OutageRate <= 0 || durationMS <= 0 {
		return sp
	}
	rng := rand.New(rand.NewSource(seed))
	for t := 0.0; t < durationMS; {
		t += rng.ExpFloat64() / sc.OutageRate * 1000
		if t >= durationMS {
			break
		}
		dur := sc.OutageMeanMS * rng.ExpFloat64()
		sp.Outages = append(sp.Outages, Window{StartMS: t, EndMS: t + dur})
		t += dur
	}
	return sp
}

// ErrInjected marks every fault this package injects; errors.Is(err,
// ErrInjected) distinguishes chaos from genuine transport failures in tests.
var ErrInjected = errors.New("faultnet: injected fault")

type connState int

const (
	stateOK connState = iota
	// stateSilent swallows writes without error after a mid-frame drop: the
	// stream is desynchronized and the peer sees silence, not a reset.
	stateSilent
	// stateDead fails every operation: the connection was reset.
	stateDead
)

// Conn wraps a net.Conn with the faults of a Spec. It implements net.Conn.
type Conn struct {
	inner net.Conn
	spec  Spec
	clock Clock

	mu      sync.Mutex
	rng     *rand.Rand
	state   connState
	written int64
}

// Wrap applies the spec to an established connection. A nil clock starts a
// real monotonic clock at wrap time.
func Wrap(conn net.Conn, spec Spec, clock Clock) *Conn {
	if clock == nil {
		clock = NewClock()
	}
	return &Conn{
		inner: conn,
		spec:  spec,
		clock: clock,
		rng:   rand.New(rand.NewSource(spec.Seed)),
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func (c *Conn) errDead() error {
	return fmt.Errorf("faultnet: connection reset: %w", ErrInjected)
}

// kill poisons the wrapper and closes the real connection so the peer sees
// the reset too. Callers hold c.mu.
func (c *Conn) kill() {
	c.state = stateDead
	_ = c.inner.Close()
}

// Write applies the outage schedule, the byte budget and the probabilistic
// faults, in that order, then forwards to the real connection with latency
// and throttling applied.
func (c *Conn) Write(p []byte) (int, error) {
	c.mu.Lock()
	if c.state == stateDead {
		c.mu.Unlock()
		return 0, c.errDead()
	}
	if c.spec.outageAt(ms(c.clock.Now())) {
		c.kill()
		c.mu.Unlock()
		return 0, fmt.Errorf("faultnet: outage window: %w", ErrInjected)
	}
	if c.state == stateSilent {
		c.mu.Unlock()
		return len(p), nil
	}
	if c.spec.CutAfterBytes > 0 && c.written+int64(len(p)) > c.spec.CutAfterBytes {
		keep := c.spec.CutAfterBytes - c.written
		if keep < 0 {
			keep = 0
		}
		if keep > 0 {
			n, _ := c.inner.Write(p[:keep])
			c.written += int64(n)
		}
		c.kill()
		c.mu.Unlock()
		return int(keep), fmt.Errorf("faultnet: cut after %d bytes: %w", c.spec.CutAfterBytes, ErrInjected)
	}
	if c.spec.ResetProb > 0 && c.rng.Float64() < c.spec.ResetProb {
		c.kill()
		c.mu.Unlock()
		return 0, fmt.Errorf("faultnet: reset before frame: %w", ErrInjected)
	}
	if c.spec.DropProb > 0 && c.rng.Float64() < c.spec.DropProb {
		keep := len(p) / 2
		if keep > 0 {
			n, _ := c.inner.Write(p[:keep])
			c.written += int64(n)
		}
		// The remainder of this stream vanishes without an error: the peer
		// must detect the stall through its own deadline.
		c.state = stateSilent
		c.mu.Unlock()
		return len(p), nil
	}
	if at := c.spec.CorruptByteAt; at > 0 && c.written < at && at-c.written <= int64(len(p)) {
		// Flip one byte in a copy — the caller's buffer must stay intact.
		q := append([]byte(nil), p...)
		q[at-c.written-1] ^= 0xFF
		p = q
	}
	c.mu.Unlock()
	// The stall gate parks outside c.mu so Reads, deadline updates and Close
	// on this connection keep working while the write is wedged.
	if gate := c.spec.WriteGate; gate != nil && gate.claim() {
		gate.wait()
	}
	if d := c.delay(len(p)); d > 0 {
		time.Sleep(d)
	}
	n, err := c.inner.Write(p)
	c.mu.Lock()
	c.written += int64(n)
	c.mu.Unlock()
	return n, err
}

// delay computes the injected propagation plus serialisation time for a
// frame of n bytes.
func (c *Conn) delay(n int) time.Duration {
	msTotal := c.spec.LatencyMS
	if c.spec.BandwidthMbps > 0 {
		msTotal += float64(n) * 8 / (c.spec.BandwidthMbps * 1000)
	}
	return time.Duration(msTotal * float64(time.Millisecond))
}

// Read checks the outage schedule and the connection state, then forwards.
func (c *Conn) Read(p []byte) (int, error) {
	c.mu.Lock()
	if c.state == stateDead {
		c.mu.Unlock()
		return 0, c.errDead()
	}
	if c.spec.outageAt(ms(c.clock.Now())) {
		c.kill()
		c.mu.Unlock()
		return 0, fmt.Errorf("faultnet: outage window: %w", ErrInjected)
	}
	c.mu.Unlock()
	return c.inner.Read(p)
}

// Close closes the underlying connection.
func (c *Conn) Close() error {
	c.mu.Lock()
	c.state = stateDead
	c.mu.Unlock()
	return c.inner.Close()
}

// LocalAddr returns the underlying local address.
func (c *Conn) LocalAddr() net.Addr { return c.inner.LocalAddr() }

// RemoteAddr returns the underlying remote address.
func (c *Conn) RemoteAddr() net.Addr { return c.inner.RemoteAddr() }

// SetDeadline forwards to the underlying connection.
func (c *Conn) SetDeadline(t time.Time) error { return c.inner.SetDeadline(t) }

// SetReadDeadline forwards to the underlying connection.
func (c *Conn) SetReadDeadline(t time.Time) error { return c.inner.SetReadDeadline(t) }

// SetWriteDeadline forwards to the underlying connection.
func (c *Conn) SetWriteDeadline(t time.Time) error { return c.inner.SetWriteDeadline(t) }

// Listener wraps accepted connections with a Spec. Each connection gets an
// independent deterministic fault stream derived from the listener seed and
// the accept index.
type Listener struct {
	net.Listener
	spec  Spec
	clock Clock
	// PerConn, when set, rewrites the spec for the i-th accepted connection
	// (0-based) — e.g. fault only the first connection and heal later ones.
	PerConn func(i int64, spec Spec) Spec

	mu   sync.Mutex
	next int64
}

// WrapListener applies the spec to every connection the listener accepts.
func WrapListener(lis net.Listener, spec Spec, clock Clock) *Listener {
	if clock == nil {
		clock = NewClock()
	}
	return &Listener{Listener: lis, spec: spec, clock: clock}
}

// Accept accepts from the underlying listener and wraps the connection.
func (l *Listener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	i := l.next
	l.next++
	perConn := l.PerConn
	l.mu.Unlock()
	spec := l.spec
	// Decorrelate the per-connection fault streams deterministically.
	spec.Seed = l.spec.Seed + i*1_000_003
	if perConn != nil {
		spec = perConn(i, spec)
	}
	return Wrap(conn, spec, l.clock), nil
}
