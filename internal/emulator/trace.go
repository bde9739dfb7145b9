package emulator

import (
	"slices"
	"time"

	"cadmc/internal/faultnet"
	"cadmc/internal/gateway"
	"cadmc/internal/serving"
	"cadmc/internal/telemetry"
)

// TraceOptions sizes one deterministic traced replay.
type TraceOptions struct {
	// Seed drives the variant weights and request inputs (default 1).
	Seed int64
}

// The traced replay's fixed shape: traceSessions session names, and
// traceRequestsPerPhase requests in each phase of tracePhaseMbps — high then
// low of classMbps, so the first phase offloads, the second collapses to
// edge-only, and one replay shows both span shapes and one hot-swap. Every
// AutoClock read advances traceStep, so every span boundary in the
// waterfall is a multiple of it.
const (
	traceSessions         = 4
	traceRequestsPerPhase = 4
	traceStep             = time.Millisecond
)

var tracePhaseMbps = []float64{8, 2}

func (o TraceOptions) withDefaults() TraceOptions {
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// TraceRunResult is one traced replay's outcome. Exposition and Waterfalls
// are the determinism surface: two replays of the same options must produce
// byte-identical values for both.
type TraceRunResult struct {
	// Exposition is the registry's sorted text exposition after the run.
	Exposition string
	// Waterfalls renders every request's span waterfall, ordered by request.
	Waterfalls string
	// Snapshot and Traces carry the same data structurally.
	Snapshot telemetry.Snapshot
	Traces   []telemetry.Trace
	// Report is the gateway's final accounting.
	Report gateway.Report
	// SigCounts counts completions per serving variant signature.
	SigCounts map[string]int64
	// PhaseMbps is the bandwidth schedule, one level per phase, and Step the
	// clock increment per read.
	PhaseMbps []float64
	Step      time.Duration
	// Options echoes the fully defaulted options.
	Options TraceOptions
}

// RunTrace replays a small multi-phase workload through the gateway with
// every instrument attached and every timestamp taken from a deterministic
// auto-stepping clock: one worker, immediate dispatch, and strictly
// serialised submit→drain turn the clock-read sequence into a pure function
// of the options, so the metrics exposition and the per-request trace
// waterfalls are bit-identical across replays — admission, batch, offload
// (or edge-only after the bandwidth collapses) and completion all land on
// exact auto-clock ticks. The offload channel is a real loopback TCP
// connection; only time is virtual.
func RunTrace(opts TraceOptions) (*TraceRunResult, error) {
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

	clock := faultnet.NewAutoClock(traceStep)
	registry := telemetry.NewRegistry()
	total := traceRequestsPerPhase * len(tracePhaseMbps)
	tracer := telemetry.NewTracer(total)
	// The offload connections carry no fault and keep their own real clocks
	// (the dialer is handed no clock): only the client's latency metering
	// and the gateway read the shared auto-clock.
	gw, err := st.Gateway(gateway.Config{
		// One worker and immediate dispatch: with submit→drain serialised
		// below, exactly one goroutine reads the auto-clock at a time, which
		// is what makes the replay's timeline deterministic.
		Workers:         1,
		QueueCapacity:   total,
		PerSessionLimit: -1,
		MaxBatch:        1,
		MaxWait:         0,
		Clock:           clock,
		Metrics:         registry,
		Tracer:          tracer,
	}, faultnet.Spec{}, serving.ResilientOptions{Seed: opts.Seed, Now: clock.Now})
	if err != nil {
		return nil, err
	}
	mgr, err := gateway.NewSwapManager(gw, provider, &scheduleMonitor{phaseMbps: tracePhaseMbps}, phaseTime(0))
	if err != nil {
		return nil, err
	}
	if err := gw.Start(); err != nil {
		return nil, err
	}

	rec := newRecorder(gw, traceSessions, opts.Seed)
	for phase := range tracePhaseMbps {
		if _, err := mgr.Poll(phaseTime(phase)); err != nil {
			return nil, err
		}
		for i := 0; i < traceRequestsPerPhase; i++ {
			if err := rec.submit(phase, 1, true); err != nil {
				return nil, err
			}
			// Drain before the next submit: the serialisation that pins the
			// clock-read order.
			rec.drain()
		}
	}
	out := &TraceRunResult{
		Report:    gw.Stop(),
		SigCounts: rec.sigCounts(),
		PhaseMbps: slices.Clone(tracePhaseMbps),
		Step:      traceStep,
		Options:   opts,
	}
	if err := rec.err(); err != nil {
		return nil, err
	}
	out.Snapshot = registry.Snapshot()
	out.Exposition = out.Snapshot.Text()
	out.Traces = tracer.Traces()
	out.Waterfalls = telemetry.Waterfalls(out.Traces)
	return out, nil
}
