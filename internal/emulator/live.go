package emulator

import (
	"fmt"
	"net"
	"time"

	"cadmc/internal/faultnet"
	"cadmc/internal/nn"
	"cadmc/internal/serving"
	"cadmc/internal/telemetry"
	"cadmc/internal/tensor"
)

// LiveOptions configures a live replay: unlike the analytic emulation and
// field modes, live mode ships real binary wire frames over a real loopback
// socket while faultnet injects the scenario's network faults, exercising
// the serving layer's retry, circuit-breaker and edge-fallback machinery end
// to end on a deterministic virtual clock.
type LiveOptions struct {
	// Inferences is the number of back-to-back requests (default: one per
	// input).
	Inferences int
	// StepMS is the virtual time between requests (default 100 ms); request
	// i executes at clock i·StepMS, the axis the chaos spec's outage
	// windows are defined on.
	StepMS float64
	// Cut is the split layer shipped to the cloud on the healthy path.
	Cut int
	// Spec is the chaos applied to every client connection (outage windows,
	// resets, drops); derive one from a scenario with faultnet.FromScenario.
	Spec faultnet.Spec
	// Resilience tunes the client; its Now and Sleep are overridden to the
	// replay's virtual clock so the schedule stays exact.
	Resilience serving.ResilientOptions
}

// LiveResult aggregates one live replay.
type LiveResult struct {
	// Stats is the executor's per-request route bookkeeping.
	Stats serving.SplitStats
	// Channel is the resilient client's transport bookkeeping.
	Channel serving.ResilientStats
	// Routes records, per inference, where it completed.
	Routes []serving.Route
	// Logits holds each inference's output, for bit-exactness checks
	// against local execution.
	Logits [][]float64
	// FinalBreaker is the circuit position after the last inference.
	FinalBreaker serving.BreakerState
	// Metrics is the replay registry's final snapshot: the serving.* offload,
	// breaker and route instruments the scenario drove.
	Metrics telemetry.Snapshot
}

// RunLive replays inferences for an executable model over a real loopback
// offload channel wrapped in the chaos spec. Every inference must complete —
// offloaded when the channel is healthy, edge-only when it is not; any hard
// failure aborts the replay with an error.
func RunLive(model *nn.Net, inputs []*tensor.Tensor, opts LiveOptions) (*LiveResult, error) {
	if model == nil || len(inputs) == 0 {
		return nil, fmt.Errorf("emulator: live replay needs a model and at least one input")
	}
	if err := opts.Spec.Validate(); err != nil {
		return nil, err
	}
	if opts.Inferences <= 0 {
		opts.Inferences = len(inputs)
	}
	if opts.StepMS <= 0 {
		opts.StepMS = 100
	}

	srv := serving.NewServer()
	srv.IdleTimeout = 5 * time.Second
	if err := srv.Register("live", model); err != nil {
		return nil, err
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("emulator: live listen: %w", err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(lis) }()
	defer func() {
		_ = srv.Close()
		<-done
	}()

	clock := faultnet.NewManualClock()
	addr := lis.Addr().String()
	// dial runs under the client's request lock, so dialSeq needs no extra
	// synchronisation; each connection gets a decorrelated fault stream.
	dialSeq := int64(0)
	spec := opts.Spec
	dial := func() (net.Conn, error) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		s := spec
		s.Seed = spec.Seed + dialSeq*7919
		dialSeq++
		return faultnet.Wrap(conn, s, clock), nil
	}
	registry := telemetry.NewRegistry()
	res := opts.Resilience
	res.Now = clock.Now
	res.Sleep = func(time.Duration) {} // backoff is virtual: the clock only moves between inferences
	if res.Metrics == nil {
		res.Metrics = registry
	}
	client, err := serving.NewResilientClient(dial, res)
	if err != nil {
		return nil, err
	}
	defer func() { _ = client.Close() }()

	exec := &serving.SplitExecutor{
		Edge:          model,
		ModelID:       "live",
		Client:        client,
		FallbackLocal: true,
		Metrics:       registry,
	}
	out := &LiveResult{
		Routes: make([]serving.Route, 0, opts.Inferences),
		Logits: make([][]float64, 0, opts.Inferences),
	}
	for i := 0; i < opts.Inferences; i++ {
		clock.Set(time.Duration(float64(i) * opts.StepMS * float64(time.Millisecond)))
		logits, route, err := exec.InferRoute(inputs[i%len(inputs)], opts.Cut)
		if err != nil {
			return nil, fmt.Errorf("emulator: live inference %d: %w", i, err)
		}
		out.Routes = append(out.Routes, route)
		out.Logits = append(out.Logits, logits)
	}
	out.Stats = exec.Stats()
	out.Channel = client.Stats()
	out.FinalBreaker = client.BreakerState()
	out.Metrics = registry.Snapshot()
	return out, nil
}
