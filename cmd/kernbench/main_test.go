package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestRunQuickWritesReport smokes the whole pipeline with tiny problem
// sizes and a millisecond benchtime, then checks the report's shape.
func TestRunQuickWritesReport(t *testing.T) {
	out := filepath.Join(t.TempDir(), "kernels.json")
	if err := run(time.Millisecond, true, out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep benchReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Env.GoVersion == "" || rep.Env.GOMAXPROCS < 1 || rep.Env.NumCPU < 1 {
		t.Fatalf("environment not recorded: %+v", rep.Env)
	}
	want := map[string]bool{"matmul": true, "conv2d": true, "forward_batch": true, "train_forward": true, "infer_forward": true}
	if len(rep.Kernels) != len(want) {
		t.Fatalf("got %d kernels, want %d", len(rep.Kernels), len(want))
	}
	for _, k := range rep.Kernels {
		if !want[k.Kernel] {
			t.Fatalf("unexpected kernel %q", k.Kernel)
		}
		for _, mode := range []string{"serial", "parallel", "parallel_arena"} {
			m, ok := k.Modes[mode]
			if !ok {
				t.Fatalf("%s: missing mode %s", k.Kernel, mode)
			}
			if m.Iterations < 1 || m.NsPerOp <= 0 {
				t.Fatalf("%s/%s: empty measurement %+v", k.Kernel, mode, m)
			}
		}
	}
	if rep.Evaluate.Stats.Iterations < 1 || rep.Evaluate.Stats.NsPerOp <= 0 {
		t.Fatalf("evaluate pipeline not measured: %+v", rep.Evaluate)
	}
	if rep.Inference.SerialSpeedup <= 0 || rep.Inference.AllocsPerSample <= 0 {
		t.Fatalf("inference summary empty: %+v", rep.Inference)
	}
}
