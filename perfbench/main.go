// Command perfbench runs one workload of the repository benchmark and prints
// its metrics. See README.md for the workloads, the metrics and the layers
// each metric is expected to move.
//
//	perfbench --workload offload --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. The line before it is a
// JSON report with the environment, the seed, the fixed rates and the
// workload's own named figures. A failed output check exits 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"cadmc/internal/parallel"
	"cadmc/perfbench/bench"
)

type report struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Seconds  float64            `json:"seconds"`
	Trace    bool               `json:"trace"`
	Env      parallel.EnvInfo   `json:"env"`
	Detail   map[string]float64 `json:"detail"`
	Checks   []string           `json:"failed_checks,omitempty"`
	// NonFinite names figures that came out infinite or NaN: dropped from
	// Detail, capped in the metrics.
	NonFinite []string `json:"non_finite,omitempty"`
}

type summary struct {
	Correct   bool                    `json:"correct"`
	Attempted int64                   `json:"attempted"`
	Failed    int64                   `json:"failed"`
	Metrics   map[string]bench.Metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload to run: offload, edge-burst, search or replay")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are built from")
	seconds := flag.Float64("seconds", 20, "length of the measured phase")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end one")
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds float64, trace int) error {
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	env := parallel.Env()
	// The benchmark runs the program as deployed, one proc per CPU: more
	// would time the scheduler's oversubscription, fewer a smaller machine.
	if env.GOMAXPROCS != env.NumCPU {
		return fmt.Errorf("GOMAXPROCS=%d but %d CPUs are available; unset GOMAXPROCS", env.GOMAXPROCS, env.NumCPU)
	}
	res, err := bench.Run(bench.Options{Workload: workload, Seed: seed, Seconds: seconds, Trace: trace == 1})
	if err != nil {
		return err
	}
	enc := json.NewEncoder(os.Stdout)
	// The summary line goes out whatever becomes of the report line before
	// it: it carries the run's verdict.
	repErr := enc.Encode(report{
		Workload: workload, Seed: seed, Seconds: seconds, Trace: trace == 1,
		Env: env, Detail: res.Detail, Checks: res.Checks, NonFinite: res.NonFinite,
	})
	correct := len(res.Checks) == 0
	if err := enc.Encode(summary{Correct: correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: res.Metrics}); err != nil {
		return err
	}
	if repErr != nil {
		return repErr
	}
	if !correct {
		return fmt.Errorf("%d output check(s) failed, first: %s", len(res.Checks), res.Checks[0])
	}
	return nil
}
