// Command kernbench benchmarks the compute kernels that internal/parallel
// accelerates — MatMul, Conv2D, the batched network forward pass, and the
// inference executor beside the training forward it is bit-exact against —
// across three execution modes:
//
//   - serial: the worker pool pinned off (parallel.SetSerial), the
//     pre-parallel single-core code path;
//   - parallel: chunked row partitioning on the shared worker pool;
//   - parallel_arena: the pool plus the scratch-buffer arena recycling
//     kernel transients.
//
// Every mode computes bit-identical results (that is the runtime's
// determinism contract, enforced by the *Determinism* test suites); this
// command measures what the modes cost. It writes BENCH_kernels.json with
// ns/op, allocs/op and B/op per kernel per mode, speedup ratios, and the
// execution environment (Go version, GOMAXPROCS, NumCPU) — without which
// the ratios are meaningless: at GOMAXPROCS=1 the pool is bypassed and
// parallel speedup is by construction ≈1. The report.Evaluate pipeline,
// which times the RL controllers rather than a tensor kernel, is measured
// once on the default runtime and reported outside the kernel table.
//
// A full run (not -quick) is also a gate on the inference executor, as
// in-process ratios that hold on any host: it fails unless the demo
// network's batch-8 inference forward is at least minInferSpeedup times
// faster than the training forward over the same samples in serial mode,
// allocating at most maxInferAllocs objects per sample.
//
// Usage:
//
//	kernbench -benchtime 1s -out BENCH_kernels.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"time"

	"cadmc/internal/emulator"
	"cadmc/internal/gateway"
	"cadmc/internal/nn"
	"cadmc/internal/parallel"
	"cadmc/internal/report"
	"cadmc/internal/tensor"
)

func main() {
	benchtime := flag.Duration("benchtime", time.Second, "minimum measured time per kernel per mode")
	quick := flag.Bool("quick", false, "shrink problem sizes (smoke testing)")
	out := flag.String("out", "BENCH_kernels.json", "output JSON path")
	flag.Parse()

	if err := run(*benchtime, *quick, *out); err != nil {
		fmt.Fprintln(os.Stderr, "kernbench:", err)
		os.Exit(1)
	}
}

// modeStats is one (kernel, mode) measurement.
type modeStats struct {
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
}

// kernelRow aggregates one kernel's three modes. Speedups are serial ns/op
// divided by the mode's ns/op (>1 means faster than serial).
type kernelRow struct {
	Kernel               string               `json:"kernel"`
	Dims                 string               `json:"dims"`
	Modes                map[string]modeStats `json:"modes"`
	ParallelSpeedup      float64              `json:"parallel_speedup"`
	ParallelArenaSpeedup float64              `json:"parallel_arena_speedup"`
	ArenaAllocsSaved     float64              `json:"arena_allocs_saved_frac"`
}

type benchReport struct {
	GeneratedAt string           `json:"generated_at"`
	Env         parallel.EnvInfo `json:"env"`
	BenchtimeMS float64          `json:"benchtime_ms"`
	Kernels     []kernelRow      `json:"kernels"`
	// Inference compares the executor with the training forward on the
	// demo network's batch.
	Inference inferenceSummary `json:"inference"`
	// Evaluate times the report.Evaluate pipeline once, on the default
	// runtime (pool and arena on).
	Evaluate pipelineRow `json:"evaluate"`
}

// inferenceSummary is the gate's view of the infer_forward and
// train_forward rows on the demo network.
type inferenceSummary struct {
	Dims string `json:"dims"`
	// SerialSpeedup is the training forward's time over the inference
	// forward's in serial mode, each its fastest of many alternating calls.
	SerialSpeedup float64 `json:"serial_speedup"`
	// AllocsPerSample is infer_forward's allocs/op in parallel mode divided
	// by the batch size.
	AllocsPerSample float64 `json:"allocs_per_sample"`
}

type pipelineRow struct {
	Dims  string    `json:"dims"`
	Stats modeStats `json:"stats"`
}

// The inference gate's floors (see the package comment).
const (
	minInferSpeedup = 1.3
	maxInferAllocs  = 2
)

// measure times fn like testing.B: ramp the iteration count until the
// measured loop exceeds benchtime, then report per-op cost from the final
// run. Alloc counters come from runtime.MemStats deltas, which cover every
// goroutine — pool workers included.
func measure(benchtime time.Duration, fn func()) modeStats {
	fn() // warm-up: pool spawn, arena fill, lazy init
	n := 1
	for {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		if elapsed >= benchtime || n >= 1_000_000 {
			return modeStats{
				Iterations:  n,
				NsPerOp:     float64(elapsed.Nanoseconds()) / float64(n),
				AllocsPerOp: float64(after.Mallocs-before.Mallocs) / float64(n),
				BytesPerOp:  float64(after.TotalAlloc-before.TotalAlloc) / float64(n),
			}
		}
		// Grow like testing.B: aim for benchtime, capped at 100x jumps.
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

var modes = []struct {
	name          string
	serial, arena bool
}{
	{"serial", true, false},
	{"parallel", false, false},
	{"parallel_arena", false, true},
}

// benchKernel measures fn under all three modes and derives the ratios.
func benchKernel(name, dims string, benchtime time.Duration, fn func()) kernelRow {
	row := kernelRow{Kernel: name, Dims: dims, Modes: make(map[string]modeStats, len(modes))}
	for _, m := range modes {
		prevS := parallel.SetSerial(m.serial)
		prevA := parallel.SetArena(m.arena)
		row.Modes[m.name] = measure(benchtime, fn)
		parallel.SetSerial(prevS)
		parallel.SetArena(prevA)
	}
	serial, par, arena := row.Modes["serial"], row.Modes["parallel"], row.Modes["parallel_arena"]
	if par.NsPerOp > 0 {
		row.ParallelSpeedup = serial.NsPerOp / par.NsPerOp
	}
	if arena.NsPerOp > 0 {
		row.ParallelArenaSpeedup = serial.NsPerOp / arena.NsPerOp
	}
	if serial.AllocsPerOp > 0 {
		row.ArenaAllocsSaved = 1 - arena.AllocsPerOp/serial.AllocsPerOp
	}
	return row
}

// benchModel is the conv→pool→fc stack used for the forward-batch kernel,
// mirroring internal/nn's in-package benchmark.
func benchModel(quick bool) *nn.Model {
	if quick {
		return &nn.Model{
			Name: "kernbench-quick", Input: nn.Shape{C: 2, H: 8, W: 8}, Classes: 3,
			Layers: []nn.Layer{
				nn.NewConv(2, 4, 3, 1, 1),
				nn.NewReLU(),
				nn.NewMaxPool(2, 2),
				nn.NewFlatten(),
				nn.NewFC(4*4*4, 3),
			},
		}
	}
	return &nn.Model{
		Name: "kernbench", Input: nn.Shape{C: 8, H: 24, W: 24}, Classes: 10,
		Layers: []nn.Layer{
			nn.NewConv(8, 16, 3, 1, 1),
			nn.NewReLU(),
			nn.NewMaxPool(2, 2),
			nn.NewConv(16, 32, 3, 1, 1),
			nn.NewReLU(),
			nn.NewMaxPool(2, 2),
			nn.NewFlatten(),
			nn.NewFC(32*6*6, 64),
			nn.NewReLU(),
			nn.NewFC(64, 10),
		},
	}
}

func run(benchtime time.Duration, quick bool, out string) error {
	rng := rand.New(rand.NewSource(51))

	// MatMul.
	mmM, mmK, mmN := 192, 256, 192
	if quick {
		mmM, mmK, mmN = 48, 64, 48
	}
	a := tensor.Randn(rng, 1, mmM, mmK)
	b := tensor.Randn(rng, 1, mmK, mmN)

	// Conv2D.
	cs := tensor.ConvShape{InC: 16, InH: 32, InW: 32, OutC: 32, Kernel: 3, Stride: 1, Padding: 1}
	if quick {
		cs = tensor.ConvShape{InC: 4, InH: 12, InW: 12, OutC: 8, Kernel: 3, Stride: 1, Padding: 1}
	}
	convIn := tensor.Randn(rng, 1, cs.InC, cs.InH, cs.InW)
	convW := tensor.Randn(rng, 1, cs.OutC, cs.InC*cs.Kernel*cs.Kernel)
	convB := tensor.Randn(rng, 1, cs.OutC)

	// ForwardBatch.
	model := benchModel(quick)
	net, err := nn.NewNet(model, rand.New(rand.NewSource(52)))
	if err != nil {
		return err
	}
	batch := 16
	if quick {
		batch = 4
	}
	xs := randomInputs(rng, model, batch)

	// The inference executor beside the training forward: the serving demo
	// network at the gateway's full batch, and VGG11 on one CIFAR image.
	tree, err := gateway.DemoTree([]float64{2, 8})
	if err != nil {
		return err
	}
	demo, err := nn.NewNet(tree.Base, rand.New(rand.NewSource(53)))
	if err != nil {
		return err
	}
	const demoBatch = 8
	demoXs := randomInputs(rng, tree.Base, demoBatch)
	demoDims := fmt.Sprintf("%s batch=%d", tree.Base.Name, demoBatch)
	type pair struct {
		dims string
		net  *nn.Net
		xs   []*tensor.Tensor
	}
	pairs := []pair{{demoDims, demo, demoXs}}
	if !quick {
		vgg, err := nn.Zoo("VGG11", nn.CIFARInput, nn.CIFARClasses)
		if err != nil {
			return err
		}
		vggNet, err := nn.NewNet(vgg, rand.New(rand.NewSource(54)))
		if err != nil {
			return err
		}
		pairs = append(pairs, pair{"VGG11 batch=1", vggNet, randomInputs(rng, vgg, 1)})
	}

	// Evaluate: the end-to-end train-and-replay pipeline over two paper
	// scenarios with reduced budgets (one scenario when quick).
	opts := emulator.DefaultTrainOptions()
	opts.TreeEpisodes = 8
	opts.BranchEpisodes = 8
	opts.TraceMS = 60_000
	specs := []emulator.ScenarioSpec{
		{ModelName: "AlexNet", DeviceName: "Phone", EnvName: "4G indoor static", TraceSeed: 3},
		{ModelName: "VGG11", DeviceName: "Phone", EnvName: "WiFi (weak) indoor", TraceSeed: 5},
	}
	if quick {
		opts.TreeEpisodes = 2
		opts.BranchEpisodes = 2
		opts.TraceMS = 30_000
		specs = specs[:1]
	}

	rep := benchReport{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Env:         parallel.Env(),
		BenchtimeMS: float64(benchtime.Milliseconds()),
	}
	type kernel struct {
		name, dims string
		fn         func()
	}
	kernels := []kernel{
		{"matmul", fmt.Sprintf("[%dx%d]x[%dx%d]", mmM, mmK, mmK, mmN), func() {
			if _, err := tensor.MatMul(a, b); err != nil {
				panic(err) //cadmc:allow panicfree — benchmark shapes are fixed at build time
			}
		}},
		{"conv2d", fmt.Sprintf("%dx%dx%d k=%d -> %d", cs.InC, cs.InH, cs.InW, cs.Kernel, cs.OutC), func() {
			if _, err := tensor.Conv2D(convIn, convW, convB, cs); err != nil {
				panic(err) //cadmc:allow panicfree — benchmark shapes are fixed at build time
			}
		}},
		{"forward_batch", fmt.Sprintf("%s batch=%d", model.Name, batch), func() {
			if _, err := net.ForwardBatch(xs); err != nil {
				panic(err) //cadmc:allow panicfree — benchmark shapes are fixed at build time
			}
		}},
	}
	forwards := func(p pair) (train, infer func()) {
		train = func() {
			for _, x := range p.xs {
				if _, err := p.net.Forward(x); err != nil {
					panic(err) //cadmc:allow panicfree — benchmark shapes are fixed at build time
				}
			}
		}
		infer = func() {
			if _, err := p.net.ForwardBatch(p.xs); err != nil {
				panic(err) //cadmc:allow panicfree — benchmark shapes are fixed at build time
			}
		}
		return train, infer
	}
	for _, p := range pairs {
		train, infer := forwards(p)
		kernels = append(kernels, kernel{"train_forward", p.dims, train}, kernel{"infer_forward", p.dims, infer})
	}
	rows := make(map[string]kernelRow)
	for _, k := range kernels {
		row := benchKernel(k.name, k.dims, benchtime, k.fn)
		rep.Kernels = append(rep.Kernels, row)
		rows[k.name+" "+k.dims] = row
		fmt.Printf("%-14s %-22s serial %12.0f ns/op | parallel %12.0f ns/op (%.2fx) | +arena %12.0f ns/op (%.2fx, %.0f%% fewer allocs)\n",
			k.name, k.dims, row.Modes["serial"].NsPerOp,
			row.Modes["parallel"].NsPerOp, row.ParallelSpeedup,
			row.Modes["parallel_arena"].NsPerOp, row.ParallelArenaSpeedup,
			100*row.ArenaAllocsSaved)
	}
	demoTrain, demoInfer := forwards(pairs[0])
	rep.Inference = inferenceSummary{
		Dims:            demoDims,
		SerialSpeedup:   serialRatio(benchtime, demoTrain, demoInfer),
		AllocsPerSample: rows["infer_forward "+demoDims].Modes["parallel"].AllocsPerOp / demoBatch,
	}
	fmt.Printf("inference      %-22s %.2fx the training forward (serial), %.2f allocs/sample\n",
		demoDims, rep.Inference.SerialSpeedup, rep.Inference.AllocsPerSample)

	rep.Evaluate = pipelineRow{
		Dims: fmt.Sprintf("%d scenarios, %d+%d episodes", len(specs), opts.TreeEpisodes, opts.BranchEpisodes),
		Stats: measure(benchtime, func() {
			if _, err := report.Evaluate(specs, opts); err != nil {
				panic(err) //cadmc:allow panicfree — benchmark scenarios are fixed at build time
			}
		}),
	}
	fmt.Printf("evaluate       %-22s %12.0f ns/op\n", rep.Evaluate.Dims, rep.Evaluate.Stats.NsPerOp)

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (gomaxprocs=%d numcpu=%d)\n", out, rep.Env.GOMAXPROCS, rep.Env.NumCPU)
	if quick {
		return nil // millisecond smoke timings are too coarse to gate on
	}
	if rep.Inference.SerialSpeedup < minInferSpeedup {
		return fmt.Errorf("%s: inference forward %.2fx the training forward, below floor %.2fx",
			demoDims, rep.Inference.SerialSpeedup, minInferSpeedup)
	}
	if rep.Inference.AllocsPerSample > maxInferAllocs {
		return fmt.Errorf("%s: inference forward %.2f allocs/sample, above ceiling %d",
			demoDims, rep.Inference.AllocsPerSample, maxInferAllocs)
	}
	return nil
}

// serialRatio times single calls of slow and fast alternately in serial
// mode, for at least benchtime and 200 pairs, and returns slow's fastest
// call over fast's. On a shared host the fastest call is the one least
// disturbed by other load, and alternating call by call keeps a burst of
// load from landing on one side only.
func serialRatio(benchtime time.Duration, slow, fast func()) float64 {
	prev := parallel.SetSerial(true)
	defer parallel.SetSerial(prev)
	slow()
	fast()
	best := [2]time.Duration{math.MaxInt64, math.MaxInt64}
	start := time.Now()
	for n := 0; n < 200 || time.Since(start) < benchtime; n++ {
		for i, fn := range []func(){slow, fast} {
			t := time.Now()
			fn()
			best[i] = min(best[i], time.Since(t))
		}
	}
	return float64(best[0]) / float64(best[1])
}

// randomInputs draws n standard-normal inputs shaped for m.
func randomInputs(rng *rand.Rand, m *nn.Model, n int) []*tensor.Tensor {
	xs := make([]*tensor.Tensor, n)
	for i := range xs {
		xs[i] = tensor.Randn(rng, 1, m.Input.C, m.Input.H, m.Input.W)
	}
	return xs
}
