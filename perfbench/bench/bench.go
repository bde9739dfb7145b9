// Package bench is the repository benchmark: open-loop split serving through
// the gateway (offload, edge-burst), the offline model-tree search (search)
// and the Table IV/V replay (replay). Each workload builds its inputs in
// set-up (the serving workloads from the run's seed), measures for a fixed
// time, checks its outputs, and returns either its end-to-end metrics
// (untraced) or its per-layer metrics (traced).
// The program under test is reached only through its public API.
package bench

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// Options selects one run.
type Options struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
}

// Metric is one named measurement.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is what one run reports.
type Result struct {
	// Checks lists the output checks that failed; a correct run has none.
	Checks []string
	// Attempted counts the operations the run offered (requests, searches or
	// replay decisions) and Failed those that did not complete successfully.
	Attempted int64
	Failed    int64
	// Metrics are the end-to-end metrics of an untraced run or the per-layer
	// metrics of a traced one.
	Metrics map[string]Metric
	// Detail carries the workload's own named figures (the rates, every
	// latency percentile, rewards) for the human-readable report.
	Detail map[string]float64
	// NonFinite names the figures that came out infinite or NaN (see
	// finite).
	NonFinite []string
}

// Run executes one workload.
func Run(opt Options) (*Result, error) {
	if opt.Seconds <= 0 {
		return nil, fmt.Errorf("bench: --seconds must be positive, got %v", opt.Seconds)
	}
	var (
		res *Result
		err error
	)
	switch opt.Workload {
	case "offload":
		res, err = runServing(opt, offloadWorkload)
	case "edge-burst":
		res, err = runServing(opt, edgeBurstWorkload)
	case "search":
		res, err = runSearch(opt)
	case "replay":
		res, err = runReplay(opt)
	default:
		return nil, fmt.Errorf("bench: unknown workload %q (want offload, edge-burst, search or replay)", opt.Workload)
	}
	if err != nil {
		return nil, err
	}
	if opt.Trace {
		fillPerLayer(res.Metrics)
	}
	res.finite()
	return res, nil
}

// finite makes the result printable. A latency percentile over a phase whose
// shed or failed requests outnumber its tail is +Inf, and a difference of two
// such figures NaN; encoding/json refuses both, and the run's verdict must
// still print. A non-finite metric is capped at ±math.MaxFloat64 (NaN reads
// 0), so every metric keeps its key; a non-finite detail figure is dropped.
// Either way its name goes into NonFinite.
func (r *Result) finite() {
	for name, m := range r.Metrics {
		switch {
		case math.IsNaN(m.Value):
			m.Value = 0
		case math.IsInf(m.Value, 0):
			m.Value = math.Copysign(math.MaxFloat64, m.Value)
		default:
			continue
		}
		r.Metrics[name] = m
		r.NonFinite = append(r.NonFinite, name)
	}
	for name, v := range r.Detail {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			delete(r.Detail, name)
			r.NonFinite = append(r.NonFinite, name)
		}
	}
	sort.Strings(r.NonFinite)
}

// newResult returns an empty result.
func newResult() *Result {
	return &Result{Metrics: make(map[string]Metric), Detail: make(map[string]float64)}
}

// failf records one failed output check.
func (r *Result) failf(format string, args ...any) {
	if len(r.Checks) < 32 {
		r.Checks = append(r.Checks, fmt.Sprintf(format, args...))
	}
}

func (r *Result) set(name, unit string, v float64) { r.Metrics[name] = Metric{Value: v, Unit: unit} }

// endToEnd writes the five end-to-end metrics every workload reports.
func (r *Result) endToEnd(setupS, heapMB, p50ms, perS, quality float64) {
	r.set("setup_s", "s", setupS)
	r.set("heap_live_mb", "MB", heapMB)
	r.set("lat_p50_ms", "ms", p50ms)
	r.set("throughput_per_s", "1/s", perS)
	r.set("quality", "score", quality)
}

// perLayerUnits is every per-layer metric with its unit. A traced run of any
// workload reports all of them; a layer the workload does not reach reads 0,
// which is itself the bypass check (serving.* on edge-burst, rl.* on replay).
var perLayerUnits = map[string]string{
	"loadgen.late_p99_ms":        "ms",
	"gateway.queue_ms_p50":       "ms",
	"gateway.queue_ms_p99":       "ms",
	"gateway.exec_ms_p50":        "ms",
	"gateway.batch_mean":         "count",
	"gateway.batch_mean_high":    "count",
	"gateway.admitted":           "count",
	"gateway.shed":               "count",
	"gateway.errored":            "count",
	"serving.offload_ms_p50":     "ms",
	"serving.offload_ms_p99":     "ms",
	"serving.offload_calls":      "count",
	"serving.bytes_per_req":      "B",
	"serving.encode_ns":          "ns",
	"serving.decode_ns":          "ns",
	"serving.retries":            "count",
	"nn.edge_ms_p50":             "ms",
	"nn.edge_batches":            "count",
	"nn.infer_dims_us":           "us",
	"telemetry.scrape_ms_p50":    "ms",
	"telemetry.scrape_ms_max":    "ms",
	"telemetry.scrapes":          "count",
	"parallel.arena_hit_ratio":   "ratio",
	"parallel.arena_gets":        "count",
	"rl.partition_ms":            "ms",
	"rl.partition_calls":         "count",
	"rl.compression_ms":          "ms",
	"rl.compression_calls":       "count",
	"rl.observe_ms":              "ms",
	"rl.observe_calls":           "count",
	"rl.commit_ms":               "ms",
	"rl.commit_calls":            "count",
	"core.self_ms":               "ms",
	"core.memo_hit_ratio":        "ratio",
	"core.memo_lookups":          "count",
	"core.compose_us":            "us",
	"surgery.partition_us":       "us",
	"latency.range_ms_us":        "us",
	"accuracy.evaluate_us":       "us",
	"replay.allocs_per_decision": "count",
	"replay.bytes_per_decision":  "B",
	"network.trace_gen_ms":       "ms",
	"trace.overhead_pct":         "%",
}

// fillPerLayer adds a zero for every per-layer metric the workload did not
// reach, so every traced run reports the same key set.
func fillPerLayer(m map[string]Metric) {
	for name, unit := range perLayerUnits {
		if _, ok := m[name]; !ok {
			m[name] = Metric{Value: 0, Unit: unit}
		}
	}
}

// overheadPct is the traced-minus-untraced difference as a share of the
// untraced figure, in percent.
func overheadPct(untraced, traced float64) float64 {
	if untraced <= 0 {
		return 0
	}
	return (traced - untraced) / untraced * 100
}

// quantile returns the nearest-rank q-quantile of xs (sorted in place). An
// element may be +Inf: a shed or failed request misses every latency limit.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

// median returns the median of xs without reordering the caller's slice.
func median(xs []float64) float64 {
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	n := len(c)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return c[n/2]
	default:
		return (c[n/2-1] + c[n/2]) / 2
	}
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

func minOf(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		m = math.Min(m, x)
	}
	return m
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// liveHeapMB forces a collection and returns the live heap in MB.
func liveHeapMB() float64 {
	runtime.GC()
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	return float64(st.HeapAlloc) / 1e6
}

// timeIt returns how long fn took, or its error.
func timeIt(fn func() error) (time.Duration, error) {
	start := time.Now()
	err := fn()
	return time.Since(start), err
}
