// Command loadgen benchmarks the serving gateway against the unbatched
// single-executor baseline and writes BENCH_gateway.json.
//
// Three phases run over the same demo model tree and the same injected
// offload latency:
//
//   - baseline: one SplitExecutor, one offload connection, requests strictly
//     sequential — the pre-gateway serving path;
//   - gateway: the same request count through the admission queue, adaptive
//     micro-batcher and worker pool (per-worker offload connections overlap
//     the injected wire latency; batched forwards amortise weight streaming);
//   - overload: a deliberately small queue flooded far beyond capacity to
//     measure a real shed rate.
//
// Usage:
//
//	loadgen -requests 128 -workers 8 -batch 8 -latency-ms 5 -out BENCH_gateway.json
//	loadgen -metrics                       # embed the telemetry snapshot in the report
//	loadgen -cpuprofile cpu.pprof -memprofile heap.pprof
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"time"

	"cadmc/internal/emulator"
	"cadmc/internal/faultnet"
	"cadmc/internal/gateway"
	"cadmc/internal/parallel"
	"cadmc/internal/serving"
	"cadmc/internal/telemetry"
	"cadmc/internal/tensor"
)

func main() {
	requests := flag.Int("requests", 128, "requests per measured phase")
	workers := flag.Int("workers", 8, "gateway worker pool size")
	batch := flag.Int("batch", 8, "gateway max micro-batch size")
	latencyMS := flag.Float64("latency-ms", 5, "injected one-way offload latency per write")
	seed := flag.Int64("seed", 1, "random seed")
	out := flag.String("out", "BENCH_gateway.json", "output JSON path")
	metrics := flag.Bool("metrics", false, "embed the gateway phase's telemetry snapshot in the JSON report")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this path")
	memProfile := flag.String("memprofile", "", "write a heap profile to this path on exit")
	flag.Parse()

	if err := run(*requests, *workers, *batch, *latencyMS, *seed, *out, *metrics, *cpuProfile, *memProfile); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

// phaseStats is one measured phase's row in the JSON report.
type phaseStats struct {
	Requests      int     `json:"requests"`
	WallMS        float64 `json:"wall_ms"`
	ThroughputRPS float64 `json:"throughput_rps"`
	P50MS         float64 `json:"p50_ms"`
	P99MS         float64 `json:"p99_ms"`
	Routes        string  `json:"routes"`
}

// resilienceStats surfaces the gateway's self-healing counters. A clean
// bench run reports zeros — non-zero values mean the rig itself tripped
// quarantine or the supervisor, which would invalidate the comparison.
type resilienceStats struct {
	Quarantines   int64 `json:"quarantines"`
	Rollbacks     int64 `json:"rollbacks"`
	Restarts      int64 `json:"restarts"`
	Requeued      int64 `json:"requeued"`
	BudgetExpired int64 `json:"budget_expired"`
}

// wireStats is the offload channel's wire-level cost during the gateway
// phase, fed by the per-worker codec instruments (client side of the link:
// request frames out, response frames in).
type wireStats struct {
	TxBytes         int64   `json:"tx_bytes"`
	RxBytes         int64   `json:"rx_bytes"`
	BytesPerRequest float64 `json:"bytes_per_request"`
	MeanEncodeNS    float64 `json:"mean_encode_ns"`
	MeanDecodeNS    float64 `json:"mean_decode_ns"`
}

type overloadStats struct {
	Offered  int64   `json:"offered"`
	Admitted int64   `json:"admitted"`
	Shed     int64   `json:"shed"`
	ShedRate float64 `json:"shed_rate"`
}

type benchReport struct {
	GeneratedAt     string           `json:"generated_at"`
	Env             parallel.EnvInfo `json:"env"`
	Workers         int              `json:"workers"`
	MaxBatch        int              `json:"max_batch"`
	LatencyMS       float64          `json:"offload_latency_ms"`
	Baseline        phaseStats       `json:"baseline_unbatched"`
	Gateway         phaseStats       `json:"gateway_batched"`
	Speedup         float64          `json:"batched_vs_unbatched_speedup"`
	GatewayBatches  int64            `json:"gateway_batches"`
	GatewayMeanSize float64          `json:"gateway_mean_batch"`
	Wire            wireStats        `json:"gateway_wire"`
	Resilience      resilienceStats  `json:"resilience"`
	Overload        overloadStats    `json:"overload"`
	// Metrics is the gateway phase's telemetry snapshot (with the compute
	// runtime's parallel.* gauges folded in); present only with -metrics.
	Metrics *telemetry.Snapshot `json:"metrics,omitempty"`
}

// bench is the shared test rig: an in-process cloud server plus the demo
// tree's partitioned variant, so every phase offloads through the same
// latency-injected loopback channel.
type bench struct {
	stack   *emulator.Stack
	variant *gateway.Variant
	spec    faultnet.Spec
	inputs  []*tensor.Tensor
}

func newBench(requests int, latencyMS float64, seed int64) (*bench, error) {
	st, err := emulator.NewStack()
	if err != nil {
		return nil, err
	}
	provider, err := st.Provider(seed)
	if err != nil {
		_ = st.Close()
		return nil, err
	}
	// Class 1 partitions after the first block: every request exercises the
	// offload channel, which is where the latency being overlapped lives.
	v, err := provider.ForClass(1)
	if err != nil {
		_ = st.Close()
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed + 1))
	inputs := make([]*tensor.Tensor, requests)
	for i := range inputs {
		inputs[i] = tensor.Randn(rng, 1, 3, 16, 16)
	}
	return &bench{
		stack:   st,
		variant: v,
		spec:    faultnet.Spec{Seed: seed, LatencyMS: latencyMS},
		inputs:  inputs,
	}, nil
}

// runBaseline pushes every request through one executor on one connection,
// strictly sequentially.
func (b *bench) runBaseline() (phaseStats, error) {
	client, err := serving.NewResilientClient(b.stack.Dial(b.spec, nil), serving.ResilientOptions{})
	if err != nil {
		return phaseStats{}, err
	}
	defer func() { _ = client.Close() }()
	exec := &serving.SplitExecutor{
		Edge:          b.variant.Net,
		ModelID:       b.variant.ModelID,
		Client:        client,
		FallbackLocal: true,
	}
	lat := make([]float64, 0, len(b.inputs))
	start := time.Now()
	for i, x := range b.inputs {
		reqStart := time.Now()
		if _, _, err := exec.InferRoute(x, b.variant.Cut); err != nil {
			return phaseStats{}, fmt.Errorf("baseline request %d: %w", i, err)
		}
		lat = append(lat, float64(time.Since(reqStart))/float64(time.Millisecond))
	}
	wallMS := float64(time.Since(start)) / float64(time.Millisecond)
	sort.Float64s(lat)
	st := exec.Stats()
	fmt.Printf("baseline: %s\n", st)
	return phaseStats{
		Requests:      len(b.inputs),
		WallMS:        wallMS,
		ThroughputRPS: float64(len(b.inputs)) / (wallMS / 1000),
		P50MS:         gateway.Percentile(lat, 0.50),
		P99MS:         gateway.Percentile(lat, 0.99),
		Routes:        st.String(),
	}, nil
}

// runGateway pushes the same requests through the gateway. A non-nil
// registry meters the whole phase: gateway counters, offload channels and
// latency histograms all land in it.
func (b *bench) runGateway(workers, maxBatch int, registry *telemetry.Registry) (phaseStats, *gateway.Report, error) {
	gw, err := b.stack.Gateway(gateway.Config{
		Workers:         workers,
		QueueCapacity:   len(b.inputs),
		PerSessionLimit: -1,
		MaxBatch:        maxBatch,
		MaxWait:         time.Millisecond,
		Metrics:         registry,
	}, b.spec, serving.ResilientOptions{})
	if err != nil {
		return phaseStats{}, nil, err
	}
	if _, err := gw.SetVariant(b.variant); err != nil {
		return phaseStats{}, nil, err
	}
	if err := gw.Start(); err != nil {
		return phaseStats{}, nil, err
	}
	chans := make([]<-chan gateway.Result, len(b.inputs))
	start := time.Now()
	for i, x := range b.inputs {
		ch, err := gw.Submit(fmt.Sprintf("session-%02d", i%16), x)
		if err != nil {
			return phaseStats{}, nil, fmt.Errorf("gateway submit %d: %w", i, err)
		}
		chans[i] = ch
	}
	for i, ch := range chans {
		if res := <-ch; res.Err != nil {
			return phaseStats{}, nil, fmt.Errorf("gateway request %d: %w", i, res.Err)
		}
	}
	wallMS := float64(time.Since(start)) / float64(time.Millisecond)
	rep := gw.Stop()
	fmt.Printf("gateway:  %s\n", rep.Routes)
	return phaseStats{
		Requests:      len(b.inputs),
		WallMS:        wallMS,
		ThroughputRPS: float64(len(b.inputs)) / (wallMS / 1000),
		P50MS:         rep.P50MS,
		P99MS:         rep.P99MS,
		Routes:        rep.Routes.String(),
	}, &rep, nil
}

// runOverload floods a deliberately small gateway to measure shedding.
func (b *bench) runOverload() (overloadStats, error) {
	gw, err := b.stack.Gateway(gateway.Config{
		Workers:         2,
		QueueCapacity:   16,
		PerSessionLimit: 4,
		MaxBatch:        4,
	}, b.spec, serving.ResilientOptions{})
	if err != nil {
		return overloadStats{}, err
	}
	if _, err := gw.SetVariant(b.variant); err != nil {
		return overloadStats{}, err
	}
	if err := gw.Start(); err != nil {
		return overloadStats{}, err
	}
	offered := int64(4 * len(b.inputs))
	var chans []<-chan gateway.Result
	for i := int64(0); i < offered; i++ {
		ch, err := gw.Submit(fmt.Sprintf("flood-%02d", i%8), b.inputs[i%int64(len(b.inputs))])
		if err != nil {
			continue // shed — exactly what this phase measures
		}
		chans = append(chans, ch)
	}
	for _, ch := range chans {
		<-ch
	}
	rep := gw.Stop()
	return overloadStats{
		Offered:  rep.Admitted,
		Admitted: rep.Completed,
		Shed:     rep.Shed,
		ShedRate: float64(rep.Shed) / float64(rep.Admitted),
	}, nil
}

func run(requests, workers, maxBatch int, latencyMS float64, seed int64, out string, metrics bool, cpuProfile, memProfile string) (err error) {
	if requests <= 0 || workers <= 0 || maxBatch <= 0 {
		return fmt.Errorf("requests, workers and batch must be positive")
	}
	prof, err := telemetry.StartProfile(cpuProfile, memProfile)
	if err != nil {
		return err
	}
	// Stop on every exit path — a CPU profile left running writes nothing —
	// and surface its error unless the run already failed for another reason.
	defer func() {
		if stopErr := prof.Stop(); stopErr != nil && err == nil {
			err = stopErr
		}
	}()
	b, err := newBench(requests, latencyMS, seed)
	if err != nil {
		return err
	}
	defer func() {
		if closeErr := b.stack.Close(); closeErr != nil && err == nil {
			err = closeErr
		}
	}()

	var registry *telemetry.Registry
	if metrics {
		registry = telemetry.NewRegistry()
	}
	base, err := b.runBaseline()
	if err != nil {
		return err
	}
	gw, rep, err := b.runGateway(workers, maxBatch, registry)
	if err != nil {
		return err
	}
	over, err := b.runOverload()
	if err != nil {
		return err
	}

	report := benchReport{
		GeneratedAt:     time.Now().UTC().Format(time.RFC3339),
		Env:             parallel.Env(),
		Workers:         workers,
		MaxBatch:        maxBatch,
		LatencyMS:       latencyMS,
		Baseline:        base,
		Gateway:         gw,
		Speedup:         gw.ThroughputRPS / base.ThroughputRPS,
		GatewayBatches:  rep.Batches,
		GatewayMeanSize: rep.MeanBatch,
		Wire: wireStats{
			TxBytes:         rep.WireTxBytes,
			RxBytes:         rep.WireRxBytes,
			BytesPerRequest: rep.BytesPerRequest,
			MeanEncodeNS:    rep.MeanEncodeNS,
			MeanDecodeNS:    rep.MeanDecodeNS,
		},
		Resilience: resilienceStats{
			Quarantines:   rep.Quarantines,
			Rollbacks:     rep.Rollbacks,
			Restarts:      rep.Restarts,
			Requeued:      rep.Requeued,
			BudgetExpired: rep.BudgetExpired,
		},
		Overload: over,
	}
	if registry != nil {
		// Fold the compute runtime's cumulative gauges in before snapshotting
		// so one report covers the full stack.
		parallel.Observe(registry)
		snap := registry.Snapshot()
		report.Metrics = &snap
	}
	fmt.Printf("baseline %.1f req/s | gateway %.1f req/s | speedup %.2fx | shed rate %.2f | wire %.0f B/req\n",
		base.ThroughputRPS, gw.ThroughputRPS, report.Speedup, over.ShedRate, report.Wire.BytesPerRequest)
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", out)
	return nil
}
