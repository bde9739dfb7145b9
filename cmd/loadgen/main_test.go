package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestRunSmoke drives all three phases end to end on a tiny load with no
// injected latency and checks the report's accounting.
func TestRunSmoke(t *testing.T) {
	out := filepath.Join(t.TempDir(), "bench.json")
	if err := run(8, 2, 2, 0, 1, out, true, "", ""); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep benchReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("report does not decode: %v", err)
	}
	if rep.Baseline.Requests != 8 || rep.Gateway.Requests != rep.Baseline.Requests {
		t.Fatalf("requests: baseline %d, gateway %d, want 8 each", rep.Baseline.Requests, rep.Gateway.Requests)
	}
	if o := rep.Overload; o.Offered != 32 || o.Offered != o.Admitted+o.Shed {
		t.Fatalf("overload accounting: offered %d (want 32) != admitted %d + shed %d", o.Offered, o.Admitted, o.Shed)
	}
	if rep.Metrics == nil {
		t.Fatal("-metrics set but the report carries no snapshot")
	}
}
