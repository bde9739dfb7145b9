package serving

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"sync"
	"time"

	"cadmc/internal/tensor"
)

// Sentinel errors for the resilient offload path. SplitExecutor treats both
// as "channel unavailable" and degrades to edge-only inference.
var (
	// ErrCircuitOpen rejects a request without touching the network because
	// the circuit breaker is open.
	ErrCircuitOpen = errors.New("serving: offload circuit open")
	// ErrUnavailable reports that every bounded retry of a request failed at
	// the transport layer.
	ErrUnavailable = errors.New("serving: offload channel unavailable")
)

// ResilientOptions tunes the retry, backoff and circuit-breaker behaviour.
// The zero value of any field falls back to the default below.
type ResilientOptions struct {
	// Timeout bounds one attempt's round trip; zero means no deadline.
	Timeout time.Duration
	// MaxAttempts is the total number of tries per Offload (default 3).
	MaxAttempts int
	// BackoffBase and BackoffMax shape the exponential backoff between
	// attempts (defaults 20ms and 1s); the realised wait is jittered
	// uniformly in [d/2, d) to desynchronise a fleet of edge clients.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// BreakerThreshold consecutive transport failures open the circuit
	// (default 4); BreakerCooldown later it half-opens for one probe
	// (default 500ms).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// Seed drives the backoff jitter (default 1).
	Seed int64
	// Now is the clock the breaker cooldown reads; nil uses real monotonic
	// time. Tests and the live emulator inject a manual clock here.
	Now func() time.Duration
	// Sleep waits between attempts; nil uses time.Sleep. The live emulator
	// injects a no-op to keep virtual time exact.
	Sleep func(time.Duration)
	// Metrics, when set, receives per-offload counters and latency
	// observations under serving.offload.* / serving.breaker.* names, plus
	// wire frame bytes and encode/decode cost under serving.wire.*. Nil
	// disables metering (and skips the clock reads it would need).
	Metrics MetricSink
	// NarrowActivations asks the handshake for float32 narrowing of
	// request activations: half the bytes on the wire, at the cost of
	// bit-exactness (drift is measured by cmd/wirebench). Only honoured when
	// the server grants it; false keeps every determinism contract intact.
	NarrowActivations bool
}

// DefaultResilientOptions returns the production tuning.
func DefaultResilientOptions() ResilientOptions {
	return ResilientOptions{
		Timeout:          2 * time.Second,
		MaxAttempts:      3,
		BackoffBase:      20 * time.Millisecond,
		BackoffMax:       time.Second,
		BreakerThreshold: 4,
		BreakerCooldown:  500 * time.Millisecond,
		Seed:             1,
	}
}

func (o ResilientOptions) withDefaults() ResilientOptions {
	def := DefaultResilientOptions()
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = def.MaxAttempts
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = def.BackoffBase
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = def.BackoffMax
	}
	if o.BreakerThreshold <= 0 {
		o.BreakerThreshold = def.BreakerThreshold
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = def.BreakerCooldown
	}
	if o.Seed == 0 {
		o.Seed = def.Seed
	}
	if o.Sleep == nil {
		o.Sleep = time.Sleep
	}
	return o
}

// ResilientStats counts what the channel went through.
type ResilientStats struct {
	// Offloads is the number of successful round trips.
	Offloads int64
	// Retries counts attempts beyond the first of their request.
	Retries int64
	// Redials counts connection (re-)establishments.
	Redials int64
	// RemoteErrors counts application-level rejections by the server.
	RemoteErrors int64
	// BreakerOpens counts circuit-breaker trips.
	BreakerOpens int64
	// Resyncs counts checksum-damaged frames recovered in place: the frame
	// boundary survived, the stream stayed aligned, and the attempt was
	// retried on the same connection without tripping the breaker.
	Resyncs int64
}

// ResilientClient is the edge side of the offload channel, and the only
// offload client: it redials automatically with exponential backoff and jitter, poisons and
// replaces its codec after any unrecoverable transport error (a
// desynchronized stream is never reused — the one exception is a checksum
// resync, where the frame boundary provably survived and the same
// connection carries the retry), bounds retries per request with idempotent
// request IDs, and trips a circuit breaker that stops hammering a dead
// cloud. It serialises requests: one in flight at a time.
type ResilientClient struct {
	opts ResilientOptions

	mu      sync.Mutex
	dial    func() (net.Conn, error)
	codec   *binCodec
	broken  bool
	closed  bool
	nextID  uint64
	rng     *rand.Rand
	breaker *Breaker
	stats   ResilientStats
}

// NewResilientClient builds a client over a dial function; the connection is
// established lazily on the first Offload, so construction never fails.
func NewResilientClient(dial func() (net.Conn, error), opts ResilientOptions) (*ResilientClient, error) {
	if dial == nil {
		return nil, errors.New("serving: resilient client needs a dial function")
	}
	opts = opts.withDefaults()
	return &ResilientClient{
		opts:    opts,
		dial:    dial,
		rng:     rand.New(rand.NewSource(opts.Seed)),
		breaker: NewBreaker(opts.BreakerThreshold, opts.BreakerCooldown, opts.Now),
	}, nil
}

// offloadRequest builds the wire frame for one logical offload.
func offloadRequest(id uint64, modelID string, cut int, shape []int, data []float64) *Request {
	return &Request{
		ID:         id,
		ModelID:    modelID,
		Cut:        cut,
		Shape:      append([]int(nil), shape...),
		Activation: data,
	}
}

// DialResilient builds a resilient client that (re-)dials addr over TCP.
func DialResilient(addr string, opts ResilientOptions) (*ResilientClient, error) {
	return NewResilientClient(func() (net.Conn, error) {
		return net.Dial("tcp", addr)
	}, opts)
}

// MeterWith attaches a metric sink unless one was already configured via
// ResilientOptions.Metrics — an explicit sink is never displaced. It
// implements Meterable so the gateway can meter per-worker channels it did
// not construct itself.
func (c *ResilientClient) MeterWith(sink MetricSink) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.opts.Metrics == nil {
		c.opts.Metrics = sink
	}
}

// count and observe forward to the metric sink when one is attached.
// Callers hold c.mu.
func (c *ResilientClient) count(name string, delta int64) {
	if c.opts.Metrics != nil {
		c.opts.Metrics.Count(name, delta)
	}
}

func (c *ResilientClient) observe(name string, v float64) {
	if c.opts.Metrics != nil {
		c.opts.Metrics.Observe(name, v)
	}
}

// meterSuccess records one successful round trip: the success counter, the
// request latency (startNS was read iff a sink is attached) and the breaker
// settling closed.
func (c *ResilientClient) meterSuccess(startNS time.Duration) {
	if c.opts.Metrics == nil {
		return
	}
	c.opts.Metrics.Count(metricOffloadSuccess, 1)
	c.opts.Metrics.Observe(metricOffloadLatency, float64(c.now()-startNS)/float64(time.Millisecond))
	c.opts.Metrics.SetGauge(metricBreakerState, float64(BreakerClosed))
}

// meterFailure records one failed attempt and, when it tripped the breaker,
// the open transition.
func (c *ResilientClient) meterFailure(tripped bool) {
	if c.opts.Metrics == nil {
		return
	}
	if tripped {
		c.opts.Metrics.Count(metricBreakerOpens, 1)
		c.opts.Metrics.SetGauge(metricBreakerState, float64(BreakerOpen))
	}
}

// meterStart stamps the request start for latency metering; it reads the
// clock only when a sink is attached, so unmetered clients see exactly the
// clock-read sequence they always did.
func (c *ResilientClient) meterStart() time.Duration {
	if c.opts.Metrics == nil {
		return 0
	}
	c.count(metricOffloadRequests, 1)
	return c.now()
}

// Offload ships the activation produced after layer cut of modelID and
// returns the cloud's logits, retrying transport failures up to MaxAttempts
// times with a fresh connection each time. It returns ErrCircuitOpen
// without touching the network while the breaker is open, ErrUnavailable
// when the retry budget is exhausted, and a *RemoteError (never retried)
// when the server rejected the request itself.
func (c *ResilientClient) Offload(modelID string, cut int, act *tensor.Tensor) ([]float64, error) {
	//cadmc:allow deadline -- every attempt arms the conn deadline whenever Timeout is configured; Timeout==0 is the documented unbounded mode
	return c.offload(modelID, cut, act, 0)
}

// OffloadWithin is Offload bounded by a deadline budget covering the whole
// call: every retry, backoff wait and round trip must fit inside budget.
// Per-attempt deadlines are clipped to what remains, a backoff that would
// overrun the budget is not taken, and when the budget runs out the call
// returns ErrBudgetExhausted — which SplitExecutor sheds rather than falls
// back on, because a too-late answer has no fallback worth computing.
func (c *ResilientClient) OffloadWithin(modelID string, cut int, act *tensor.Tensor, budget time.Duration) ([]float64, error) {
	if act != nil && budget <= 0 {
		return nil, ErrBudgetExhausted
	}
	//cadmc:allow deadline -- a positive budget always arms a per-attempt conn deadline, clipped to what remains of it
	return c.offload(modelID, cut, act, budget)
}

// offload is the one retry loop behind Offload (budget 0: unbounded) and
// OffloadWithin (budget > 0). The injected clock is read exactly where the
// replay suites expect it: a bounded call always stamps its start and reads
// the clock before each backoff and each attempt; an unbounded call reads it
// only for metering, when a sink is attached.
func (c *ResilientClient) offload(modelID string, cut int, act *tensor.Tensor, budget time.Duration) ([]float64, error) {
	if act == nil {
		return nil, errors.New("serving: nil activation")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, errors.New("serving: resilient client closed")
	}
	bounded := budget > 0
	var start time.Duration
	if bounded {
		start = c.now()
		c.count(metricOffloadRequests, 1)
	} else {
		start = c.meterStart()
	}
	deadline := start + budget
	c.nextID++
	req := offloadRequest(c.nextID, modelID, cut, act.Shape, act.Data)
	var lastErr error
	for attempt := 0; attempt < c.opts.MaxAttempts; attempt++ {
		if attempt > 0 {
			wait := c.backoff(attempt)
			if bounded && c.now()+wait >= deadline {
				break
			}
			c.stats.Retries++
			c.count(metricOffloadRetries, 1)
			c.opts.Sleep(wait)
		}
		timeout := c.opts.Timeout
		if bounded {
			remaining := deadline - c.now()
			if remaining <= 0 {
				break
			}
			if timeout <= 0 || timeout > remaining {
				timeout = remaining
			}
		}
		if !c.breaker.Allow() {
			c.count(metricOffloadRejectedOpen, 1)
			if lastErr != nil {
				return nil, fmt.Errorf("%w (last transport error: %v)", ErrCircuitOpen, lastErr)
			}
			return nil, ErrCircuitOpen
		}
		c.count(metricOffloadAttempts, 1)
		logits, err := c.attempt(req, timeout)
		var remote *RemoteError
		switch {
		case err == nil:
			c.breaker.Success()
			c.stats.Offloads++
			c.meterSuccess(start)
			return logits, nil
		case errors.As(err, &remote):
			// The transport round trip worked; the request was bad. Counts
			// for the breaker as a success and is not worth retrying.
			c.breaker.Success()
			c.stats.RemoteErrors++
			c.count(metricOffloadRemoteErrors, 1)
			return nil, err
		case errors.Is(err, errUnencodable):
			// Rejected before a byte was written: the stream is intact and
			// a retry would fail the same way. The live connection (or the
			// handshake that just opened it) proves the channel, so the
			// breaker sees a success — which also releases a half-open
			// probe.
			c.breaker.Success()
			return nil, err
		case errors.Is(err, ErrFrameResync):
			// A frame was damaged in flight but the stream stayed aligned:
			// retryable on the same connection, and not evidence of a dead
			// cloud — the breaker does not count it.
			c.stats.Resyncs++
			c.count(metricOffloadResyncs, 1)
		default:
			tripped := c.breaker.Failure()
			if tripped {
				c.stats.BreakerOpens++
			}
			c.meterFailure(tripped)
		}
		lastErr = err
	}
	if bounded {
		c.count(metricOffloadBudget, 1)
		if lastErr != nil {
			return nil, fmt.Errorf("%w: %v", ErrBudgetExhausted, lastErr)
		}
		return nil, ErrBudgetExhausted
	}
	c.count(metricOffloadUnavailable, 1)
	return nil, fmt.Errorf("%w: %d attempts failed: %v", ErrUnavailable, c.opts.MaxAttempts, lastErr)
}

// now reads the injected clock, or real monotonic time.
func (c *ResilientClient) now() time.Duration {
	if c.opts.Now != nil {
		return c.opts.Now()
	}
	return time.Duration(time.Now().UnixNano())
}

// attempt performs one round trip under the given per-attempt timeout (zero
// means no deadline), redialing and re-negotiating first if the previous
// codec was poisoned. Every transport error poisons the codec except the two
// that leave the stream provably aligned: a checksum resync and a request
// rejected before any byte was written. Callers hold c.mu.
func (c *ResilientClient) attempt(req *Request, timeout time.Duration) ([]float64, error) {
	if err := c.ensure(timeout); err != nil {
		return nil, err
	}
	conn := c.codec.conn
	if timeout > 0 {
		if err := conn.SetDeadline(time.Now().Add(timeout)); err != nil {
			c.poison()
			return nil, fmt.Errorf("serving: set deadline: %w", err)
		}
	}
	var resp Response
	err := c.codec.writeRequest(req)
	if err == nil {
		if err = c.codec.readResponse(&resp); err != nil && !errors.Is(err, ErrFrameResync) {
			err = fmt.Errorf("serving: read response: %w", err)
		}
	}
	if err != nil && !errors.Is(err, ErrFrameResync) && !errors.Is(err, errUnencodable) {
		c.poison()
		return nil, err
	}
	// The stream is aligned: the round trip completed, the damaged frame
	// was consumed whole, or nothing was written. This same connection
	// carries the next attempt.
	if timeout > 0 {
		_ = conn.SetDeadline(time.Time{})
	}
	if err != nil {
		return nil, err
	}
	if resp.ID != 0 && resp.ID != req.ID {
		c.poison()
		return nil, fmt.Errorf("serving: response answers request %d, want %d: stream desynchronized", resp.ID, req.ID)
	}
	if resp.Err != "" {
		return nil, &RemoteError{Msg: resp.Err}
	}
	return resp.Logits, nil
}

// ensure establishes a fresh connection when there is none or the previous
// one was poisoned, and runs the codec handshake on it under the attempt
// timeout. Callers hold c.mu.
func (c *ResilientClient) ensure(timeout time.Duration) error {
	if c.codec != nil && !c.broken {
		return nil
	}
	if c.codec != nil {
		_ = c.codec.conn.Close()
		c.codec = nil
	}
	conn, err := c.dial()
	if err != nil {
		return fmt.Errorf("serving: redial: %w", err)
	}
	c.stats.Redials++
	c.count(metricOffloadRedials, 1)
	if timeout > 0 {
		if err := conn.SetDeadline(time.Now().Add(timeout)); err != nil {
			_ = conn.Close()
			return fmt.Errorf("serving: set handshake deadline: %w", err)
		}
	}
	cd, err := negotiate(conn, c.opts.NarrowActivations, c.opts.Metrics, c.wireNowNS())
	if err != nil {
		_ = conn.Close()
		return fmt.Errorf("serving: negotiate: %w", err)
	}
	if timeout > 0 {
		_ = conn.SetDeadline(time.Time{})
	}
	c.codec = cd
	c.broken = false
	return nil
}

// wireNowNS is the codec metering clock: nil (no clock reads at all) when no
// sink is attached, the injected clock when one was provided, real time
// otherwise. Callers hold c.mu.
func (c *ResilientClient) wireNowNS() func() int64 {
	if c.opts.Metrics == nil {
		return nil
	}
	if now := c.opts.Now; now != nil {
		return func() int64 { return int64(now()) }
	}
	return func() int64 { return time.Now().UnixNano() }
}

// WireProtocol reports the codec the current connection negotiated —
// "binary-v1" or "binary-v1+f32" — or "" when no connection is live.
func (c *ResilientClient) WireProtocol() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.codec == nil {
		return ""
	}
	return c.codec.protocol()
}

// poison marks the current codec unusable and closes its connection; the
// next attempt redials. Callers hold c.mu.
func (c *ResilientClient) poison() {
	c.broken = true
	if c.codec != nil {
		_ = c.codec.conn.Close()
	}
}

// backoff returns the jittered exponential wait before the given attempt
// (attempt ≥ 1).
func (c *ResilientClient) backoff(attempt int) time.Duration {
	d := float64(c.opts.BackoffBase) * math.Pow(2, float64(attempt-1))
	if maxD := float64(c.opts.BackoffMax); d > maxD {
		d = maxD
	}
	return time.Duration(d/2 + d/2*c.rng.Float64())
}

// Stats returns a snapshot of the channel counters.
func (c *ResilientClient) Stats() ResilientStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// BreakerState exposes the circuit position (for stats and tests).
func (c *ResilientClient) BreakerState() BreakerState {
	return c.breaker.State()
}

// Close releases the current connection, if any, and makes every further
// Offload fail fast.
func (c *ResilientClient) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	if c.codec == nil {
		return nil
	}
	err := c.codec.conn.Close()
	c.codec = nil
	return err
}
