package bench

import (
	"encoding/json"
	"math"
	"testing"
	"time"
)

// missingPhase is a two-window phase of n requests in which every k-th one
// was shed, so its latency is +Inf.
func missingPhase(n, k int) *phase {
	p := &phase{}
	for i := 0; i < n; i++ {
		p.due = append(p.due, time.Duration(i)*2*Window/time.Duration(n))
		if i%k == 0 {
			p.lat = append(p.lat, math.Inf(1))
			p.shed++
		} else {
			p.lat = append(p.lat, 2+float64(i%7)/10)
		}
	}
	return p
}

func TestMissedRequestsStillEncode(t *testing.T) {
	for _, tc := range []struct {
		name     string
		k        int  // every k-th request is shed
		p50IsInf bool // more than half of every window is missing
	}{
		{"tenth missing", 10, false},
		{"all missing", 1, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			low, high := missingPhase(1000, tc.k), missingPhase(2000, tc.k)
			res := newResult()
			res.endToEnd(0.5, 12, minOf(high.perWindow(0.50)), 5000, high.withinSLO())
			phaseDetail(res, low, high)
			res.set("trace.overhead_pct", "%", overheadPct(low.latQ(0.50), high.latQ(0.50)))
			res.finite()

			if _, err := json.Marshal(res.Metrics); err != nil {
				t.Fatalf("metrics do not encode: %v", err)
			}
			if _, err := json.Marshal(res.Detail); err != nil {
				t.Fatalf("detail does not encode: %v", err)
			}
			if got, want := res.Detail["missed.high"], float64(high.shed); got != want {
				t.Errorf("missed.high = %v, want %v", got, want)
			}
			if _, ok := res.Detail["lat_p99_ms.high"]; ok {
				t.Errorf("lat_p99_ms.high kept though it is +Inf")
			}
			p50 := res.Metrics["lat_p50_ms"].Value
			if tc.p50IsInf != (p50 == math.MaxFloat64) {
				t.Errorf("lat_p50_ms = %v with every %d-th request missing", p50, tc.k)
			}
			if len(res.NonFinite) == 0 {
				t.Errorf("no figure named non-finite")
			}
		})
	}
}
