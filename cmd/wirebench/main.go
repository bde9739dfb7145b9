// Command wirebench benchmarks the offload wire codecs and writes
// BENCH_wire.json. Three codecs run over an in-memory loopback, each pushing
// one offload's worth of work per op (request frame encoded and decoded,
// response frame encoded and decoded):
//
//   - gob: the original encoding/gob framing, no longer on the live path and
//     kept only as this bench's reference encoding and the fuzz oracle;
//   - binary: the hand-rolled length-prefixed binary codec, bit-exact
//     float64 activations;
//   - binary_f32: the same codec with negotiated activation narrowing
//     (float64 → float32 on the wire, request payload roughly halved).
//
// Activations are batch×3×16×16 at batch sizes {1, 8, 32} — the gateway demo
// tree's input shape. Besides ns/frame, allocs/frame and bytes/frame the
// report carries an f32 drift section measured through a real client/server
// round trip (max/mean absolute logit error and top-1 agreement against the
// bit-exact path), since the narrowed mode is only usable if its accuracy
// cost is bounded.
//
// The -min-speedup and -min-alloc-ratio flags turn the report into a gate:
// if at any batch size the binary codec's encode+decode speedup over gob or
// its allocation advantage falls below the floor, wirebench exits 1. CI runs
// it that way (scripts/check.sh) so the zero-allocation hot path cannot
// silently regress.
//
// Usage:
//
//	wirebench -benchtime 1s -out BENCH_wire.json
//	wirebench -benchtime 100ms -min-speedup 3 -min-alloc-ratio 10
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"net"
	"os"
	"runtime"
	"time"

	"cadmc/internal/gateway"
	"cadmc/internal/parallel"
	"cadmc/internal/serving"
	"cadmc/internal/tensor"
)

func main() {
	benchtime := flag.Duration("benchtime", time.Second, "minimum measured time per codec per batch size")
	out := flag.String("out", "BENCH_wire.json", "output JSON path")
	minSpeedup := flag.Float64("min-speedup", 0, "fail unless binary encode+decode is at least this many times faster than gob at every batch size (0 disables)")
	minAllocRatio := flag.Float64("min-alloc-ratio", 0, "fail unless gob allocates at least this many times more per frame than binary at every batch size (0 disables)")
	flag.Parse()

	if err := run(*benchtime, *out, *minSpeedup, *minAllocRatio); err != nil {
		fmt.Fprintln(os.Stderr, "wirebench:", err)
		os.Exit(1)
	}
}

// codecStats is one (codec, batch size) measurement. An op is one offload's
// codec work: request frame encode+decode plus response frame encode+decode,
// i.e. two frames each passing through both halves of the codec.
type codecStats struct {
	Iterations     int     `json:"iterations"`
	NsPerFrame     float64 `json:"ns_per_frame"`
	AllocsPerFrame float64 `json:"allocs_per_frame"`
	ReqFrameBytes  int     `json:"request_frame_bytes"`
	RespFrameBytes int     `json:"response_frame_bytes"`
}

// batchRow aggregates one batch size across the three codecs. Ratios compare
// against gob: speedup is gob ns/frame over the codec's ns/frame, alloc
// ratio is gob allocs/frame over the codec's (both >1 means better than
// gob). A binary codec at exactly zero allocs would make the ratio infinite,
// which JSON cannot carry, so the denominator is floored at 0.01
// allocs/frame — the reported ratio is then a conservative lower bound.
type batchRow struct {
	Batch            int                   `json:"batch"`
	Elems            int                   `json:"activation_elems"`
	Codecs           map[string]codecStats `json:"codecs"`
	BinarySpeedup    float64               `json:"binary_speedup_vs_gob"`
	BinaryAllocRatio float64               `json:"binary_alloc_ratio_vs_gob"`
	BinaryBytesSaved float64               `json:"binary_request_bytes_saved_frac"`
	F32Speedup       float64               `json:"f32_speedup_vs_gob"`
	F32BytesSaved    float64               `json:"f32_request_bytes_saved_frac"`
}

// driftStats is the f32 narrowing accuracy harness: the same inputs pushed
// through a bit-exact and a narrowed client against one real server.
type driftStats struct {
	Inputs        int     `json:"inputs"`
	Protocol      string  `json:"protocol"`
	MaxAbsError   float64 `json:"max_abs_logit_error"`
	MeanAbsError  float64 `json:"mean_abs_logit_error"`
	Top1Agreement float64 `json:"top1_agreement"`
}

type benchReport struct {
	GeneratedAt string           `json:"generated_at"`
	Env         parallel.EnvInfo `json:"env"`
	BenchtimeMS float64          `json:"benchtime_ms"`
	Batches     []batchRow       `json:"batches"`
	F32Drift    driftStats       `json:"f32_drift"`
}

// measure times fn like testing.B: ramp the iteration count until the
// measured loop exceeds benchtime, then report per-op cost from the final
// run. Alloc counters come from runtime.MemStats deltas.
func measure(benchtime time.Duration, fn func() error) (iters int, nsPerOp, allocsPerOp float64, err error) {
	if err := fn(); err != nil { // warm-up: codec buffers, gob type descriptors
		return 0, 0, 0, err
	}
	n := 1
	for {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		for i := 0; i < n; i++ {
			if err := fn(); err != nil {
				return 0, 0, 0, err
			}
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		if elapsed >= benchtime || n >= 1_000_000 {
			return n,
				float64(elapsed.Nanoseconds()) / float64(n),
				float64(after.Mallocs-before.Mallocs) / float64(n),
				nil
		}
		next := n * 100
		if elapsed > 0 {
			predicted := int(float64(n) * 1.2 * float64(benchtime) / float64(elapsed))
			if predicted < next {
				next = predicted
			}
		}
		if next <= n {
			next = n + 1
		}
		n = next
	}
}

var codecModes = []string{serving.WireBenchGob, serving.WireBenchBinary, serving.WireBenchF32}

// benchBatch measures all codecs on one batch size and derives the ratios.
func benchBatch(benchtime time.Duration, batch int, rng *rand.Rand) (batchRow, error) {
	shape := []int{batch, 3, 16, 16}
	act := tensor.Randn(rng, 1, shape...)
	req := &serving.Request{
		ID:         1,
		ModelID:    "wirebench",
		Cut:        3,
		Shape:      shape,
		Activation: act.Data,
	}
	logits := make([]float64, 10*batch)
	for i := range logits {
		logits[i] = rng.NormFloat64()
	}
	resp := &serving.Response{ID: 1, Logits: logits}

	row := batchRow{Batch: batch, Elems: len(act.Data), Codecs: make(map[string]codecStats, len(codecModes))}
	for _, mode := range codecModes {
		b, err := serving.NewWireBench(mode)
		if err != nil {
			return batchRow{}, err
		}
		iters, nsPerOp, allocsPerOp, err := measure(benchtime, func() error {
			return b.RoundTrip(req, resp)
		})
		if err != nil {
			return batchRow{}, fmt.Errorf("%s batch %d: %w", mode, batch, err)
		}
		reqBytes, respBytes := b.FrameBytes()
		// Two frames per op: the request and the response, each encoded and
		// decoded once.
		row.Codecs[mode] = codecStats{
			Iterations:     iters,
			NsPerFrame:     nsPerOp / 2,
			AllocsPerFrame: allocsPerOp / 2,
			ReqFrameBytes:  reqBytes,
			RespFrameBytes: respBytes,
		}
	}
	gob := row.Codecs[serving.WireBenchGob]
	bin := row.Codecs[serving.WireBenchBinary]
	f32 := row.Codecs[serving.WireBenchF32]
	if bin.NsPerFrame > 0 {
		row.BinarySpeedup = gob.NsPerFrame / bin.NsPerFrame
	}
	if f32.NsPerFrame > 0 {
		row.F32Speedup = gob.NsPerFrame / f32.NsPerFrame
	}
	row.BinaryAllocRatio = gob.AllocsPerFrame / math.Max(bin.AllocsPerFrame, 0.01)
	if gob.ReqFrameBytes > 0 {
		row.BinaryBytesSaved = 1 - float64(bin.ReqFrameBytes)/float64(gob.ReqFrameBytes)
		row.F32BytesSaved = 1 - float64(f32.ReqFrameBytes)/float64(gob.ReqFrameBytes)
	}
	return row, nil
}

// measureDrift runs the same inputs through a bit-exact and a narrowed
// offload client against one in-process server and compares logits.
func measureDrift(inputs int, seed int64) (driftStats, error) {
	tree, err := gateway.DemoTree([]float64{2, 8})
	if err != nil {
		return driftStats{}, err
	}
	srv := serving.NewServer()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return driftStats{}, err
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(lis) }()
	defer func() {
		_ = srv.Close()
		<-done
	}()
	provider, err := gateway.NewVariantProvider(tree, seed, srv.Register)
	if err != nil {
		return driftStats{}, err
	}
	// Class 1 partitions the net, so every inference crosses the wire.
	v, err := provider.ForClass(1)
	if err != nil {
		return driftStats{}, err
	}
	newExec := func(narrow bool) (*serving.SplitExecutor, *serving.ResilientClient, error) {
		c, err := serving.DialResilient(lis.Addr().String(), serving.ResilientOptions{
			Timeout:           30 * time.Second,
			NarrowActivations: narrow,
		})
		if err != nil {
			return nil, nil, err
		}
		return &serving.SplitExecutor{Edge: v.Net, ModelID: v.ModelID, Client: c}, c, nil
	}
	exact, exactClient, err := newExec(false)
	if err != nil {
		return driftStats{}, err
	}
	defer func() { _ = exactClient.Close() }()
	narrow, narrowClient, err := newExec(true)
	if err != nil {
		return driftStats{}, err
	}
	defer func() { _ = narrowClient.Close() }()

	rng := rand.New(rand.NewSource(seed + 1))
	stats := driftStats{Inputs: inputs}
	var sumAbs float64
	var agreed, compared int
	for i := 0; i < inputs; i++ {
		x := tensor.Randn(rng, 1, 3, 16, 16)
		exactLogits, err := exact.Infer(x, v.Cut)
		if err != nil {
			return driftStats{}, fmt.Errorf("exact infer %d: %w", i, err)
		}
		narrowLogits, err := narrow.Infer(x, v.Cut)
		if err != nil {
			return driftStats{}, fmt.Errorf("narrow infer %d: %w", i, err)
		}
		if len(exactLogits) != len(narrowLogits) {
			return driftStats{}, fmt.Errorf("logit length mismatch: %d vs %d", len(exactLogits), len(narrowLogits))
		}
		if argmax(exactLogits) == argmax(narrowLogits) {
			agreed++
		}
		for j := range exactLogits {
			d := math.Abs(exactLogits[j] - narrowLogits[j])
			sumAbs += d
			compared++
			if d > stats.MaxAbsError {
				stats.MaxAbsError = d
			}
		}
	}
	if compared > 0 {
		stats.MeanAbsError = sumAbs / float64(compared)
	}
	stats.Top1Agreement = float64(agreed) / float64(inputs)
	stats.Protocol = narrowClient.WireProtocol()
	return stats, nil
}

func argmax(v []float64) int {
	best := 0
	for i := 1; i < len(v); i++ {
		if v[i] > v[best] {
			best = i
		}
	}
	return best
}

func run(benchtime time.Duration, out string, minSpeedup, minAllocRatio float64) error {
	rng := rand.New(rand.NewSource(61))
	rep := benchReport{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Env:         parallel.Env(),
		BenchtimeMS: float64(benchtime.Milliseconds()),
	}
	for _, batch := range []int{1, 8, 32} {
		row, err := benchBatch(benchtime, batch, rng)
		if err != nil {
			return err
		}
		rep.Batches = append(rep.Batches, row)
		gob := row.Codecs[serving.WireBenchGob]
		bin := row.Codecs[serving.WireBenchBinary]
		fmt.Printf("batch %2d: gob %8.0f ns/frame %7.1f allocs | binary %8.0f ns/frame %7.2f allocs (%.2fx faster, %.0fx fewer allocs) | f32 req bytes -%.0f%%\n",
			batch, gob.NsPerFrame, gob.AllocsPerFrame,
			bin.NsPerFrame, bin.AllocsPerFrame,
			row.BinarySpeedup, row.BinaryAllocRatio, 100*row.F32BytesSaved)
	}

	drift, err := measureDrift(32, 62)
	if err != nil {
		return err
	}
	rep.F32Drift = drift
	fmt.Printf("f32 drift over %d inputs via %s: max |Δlogit| %.2e, mean %.2e, top-1 agreement %.2f\n",
		drift.Inputs, drift.Protocol, drift.MaxAbsError, drift.MeanAbsError, drift.Top1Agreement)

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (gomaxprocs=%d numcpu=%d)\n", out, rep.Env.GOMAXPROCS, rep.Env.NumCPU)

	for _, row := range rep.Batches {
		if minSpeedup > 0 && row.BinarySpeedup < minSpeedup {
			return fmt.Errorf("batch %d: binary speedup %.2fx below floor %.2fx", row.Batch, row.BinarySpeedup, minSpeedup)
		}
		if minAllocRatio > 0 && row.BinaryAllocRatio < minAllocRatio {
			return fmt.Errorf("batch %d: binary alloc ratio %.1fx below floor %.1fx", row.Batch, row.BinaryAllocRatio, minAllocRatio)
		}
	}
	return nil
}
