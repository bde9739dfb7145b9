package emulator

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"cadmc/internal/faultnet"
	"cadmc/internal/gateway"
	"cadmc/internal/serving"
	"cadmc/internal/telemetry"
	"cadmc/internal/tensor"
)

// GatewayOptions sizes one multi-session gateway replay: many sessions
// submit concurrently through the gateway while the bandwidth schedule
// drives hot-swaps between composed model-tree variants.
type GatewayOptions struct {
	// Sessions is the number of concurrent user sessions (default 64); each
	// phase submits 2·Sessions requests round-robin over them.
	Sessions int
	// Seed drives the variant weights and the request inputs.
	Seed int64
}

// gatewayPhaseMbps is the gateway replay's bandwidth schedule, one level per
// phase: low, high, low of classMbps, so each class change triggers exactly
// one hot-swap.
var gatewayPhaseMbps = []float64{2, 8, 2}

func (o GatewayOptions) withDefaults() GatewayOptions {
	if o.Sessions <= 0 {
		o.Sessions = 64
	}
	return o
}

// GatewayRecord pins one request to its outcome: which session sent it,
// which phase it belonged to, the input it carried, and the result.
type GatewayRecord struct {
	Session string
	Phase   int
	Input   *tensor.Tensor
	Result  gateway.Result
	// SecondHalf marks requests submitted after the phase's swap poll; their
	// serving variant is deterministic.
	SecondHalf bool
}

// GatewayRunResult is one gateway replay's full outcome.
type GatewayRunResult struct {
	Report  gateway.Report
	Records []GatewayRecord
	// Swaps is the swap manager's count of class changes.
	Swaps int64
	// SigCounts counts completions per serving variant signature.
	SigCounts map[string]int64
	// Metrics is the gateway registry's final snapshot: every gateway.* and
	// serving.* instrument the replay touched.
	Metrics telemetry.Snapshot
	// PhaseMbps is the bandwidth schedule the replay ran, one level per
	// phase.
	PhaseMbps []float64
	// Options echoes the fully defaulted options the replay ran under.
	Options GatewayOptions
}

// scheduleMonitor replays a piecewise-constant bandwidth schedule: phase i
// spans [i·1000, (i+1)·1000) ms of trace time.
type scheduleMonitor struct {
	phaseMbps []float64
}

// EstimateMbps returns the scheduled bandwidth at trace time tMS.
func (m *scheduleMonitor) EstimateMbps(tMS float64) float64 {
	i := int(tMS / 1000)
	if i < 0 {
		i = 0
	}
	if i >= len(m.phaseMbps) {
		i = len(m.phaseMbps) - 1
	}
	return m.phaseMbps[i]
}

// phaseTime returns the trace time at which phase i's bandwidth is polled.
func phaseTime(i int) float64 { return float64(i)*1000 + 500 }

// RunGateway replays a multi-session workload through the gateway over a
// real loopback offload channel: the demo model tree supplies the variants,
// a scripted bandwidth schedule drives the swap manager, and every phase's
// requests flow through admission, micro-batching and the worker pool. Each
// swap is performed while the first half of its phase's requests is still
// in flight, proving the drain guarantee. The replay is lossless by
// contract — every submitted request completes — and the result carries
// enough to verify bit-exactness out-of-band.
func RunGateway(opts GatewayOptions) (*GatewayRunResult, error) {
	opts = opts.withDefaults()
	st, err := NewStack()
	if err != nil {
		return nil, err
	}
	defer func() { _ = st.Close() }()
	provider, err := st.Provider(opts.Seed)
	if err != nil {
		return nil, err
	}
	perPhase := 2 * opts.Sessions
	registry := telemetry.NewRegistry()
	gw, err := st.Gateway(gateway.Config{
		Workers: 8,
		Metrics: registry,
		// The queue never sheds in a replay: capacity covers the maximum
		// possible backlog so the accounting assertion is exact.
		QueueCapacity:   perPhase * len(gatewayPhaseMbps),
		PerSessionLimit: -1,
		MaxBatch:        8,
		MaxWait:         time.Millisecond,
	}, faultnet.Spec{}, serving.ResilientOptions{})
	if err != nil {
		return nil, err
	}
	mgr, err := gateway.NewSwapManager(gw, provider, &scheduleMonitor{phaseMbps: gatewayPhaseMbps}, phaseTime(0))
	if err != nil {
		return nil, err
	}
	if err := gw.Start(); err != nil {
		return nil, err
	}

	rec := newRecorder(gw, opts.Sessions, opts.Seed)
	for phase := range gatewayPhaseMbps {
		// First half is in flight while the swap poll runs: the drain
		// guarantee is exercised on every class change.
		if err := rec.submit(phase, perPhase/2, false); err != nil {
			return nil, err
		}
		if _, err := mgr.Poll(phaseTime(phase)); err != nil {
			return nil, err
		}
		if err := rec.submit(phase, perPhase-perPhase/2, true); err != nil {
			return nil, err
		}
		rec.drain()
	}
	rep := gw.Stop()
	if err := rec.err(); err != nil {
		return nil, err
	}
	return &GatewayRunResult{
		Report:    rep,
		Records:   rec.records,
		Swaps:     mgr.Swaps(),
		SigCounts: rec.sigCounts(),
		Metrics:   registry.Snapshot(),
		PhaseMbps: slices.Clone(gatewayPhaseMbps),
		Options:   opts,
	}, nil
}

// recorder submits seeded requests through a gateway, round-robin over the
// session names, and keeps every request with its result in submission
// order.
type recorder struct {
	gw       *gateway.Gateway
	sessions int
	rng      *rand.Rand
	records  []GatewayRecord
	chans    []<-chan gateway.Result
	got      []bool // records[i].Result has been received
	drained  int
}

func newRecorder(gw *gateway.Gateway, sessions int, seed int64) *recorder {
	return &recorder{gw: gw, sessions: sessions, rng: rand.New(rand.NewSource(seed + 1))}
}

// submit offers n requests for phase without waiting for them.
func (r *recorder) submit(phase, n int, secondHalf bool) error {
	for i := 0; i < n; i++ {
		session := fmt.Sprintf("session-%03d", len(r.records)%r.sessions)
		x := tensor.Randn(r.rng, 1, 3, 16, 16)
		ch, err := r.gw.Submit(session, x)
		if err != nil {
			return fmt.Errorf("emulator: submit (phase %d): %w", phase, err)
		}
		r.records = append(r.records, GatewayRecord{Session: session, Phase: phase, Input: x, SecondHalf: secondHalf})
		r.chans = append(r.chans, ch)
		r.got = append(r.got, false)
	}
	return nil
}

// serial submits n requests for phase one at a time, each answered before
// the next is offered, so every batch holds exactly one request.
func (r *recorder) serial(phase, n int) error {
	for i := 0; i < n; i++ {
		if err := r.submit(phase, 1, false); err != nil {
			return err
		}
		r.await(len(r.chans) - 1)
	}
	return nil
}

// await receives request i's result unless it already has.
func (r *recorder) await(i int) {
	if !r.got[i] {
		r.records[i].Result = <-r.chans[i]
		r.got[i] = true
	}
}

// drain waits for every request submitted since the previous drain.
func (r *recorder) drain() {
	for ; r.drained < len(r.chans); r.drained++ {
		r.await(r.drained)
	}
}

// err reports the first request that completed with an error.
func (r *recorder) err() error {
	for i, rec := range r.records {
		if rec.Result.Err != nil {
			return fmt.Errorf("emulator: request %d (phase %d): %w", i, rec.Phase, rec.Result.Err)
		}
	}
	return nil
}

// sigCounts counts completions per serving variant signature.
func (r *recorder) sigCounts() map[string]int64 {
	counts := make(map[string]int64)
	for _, rec := range r.records {
		counts[rec.Result.VariantSig]++
	}
	return counts
}
