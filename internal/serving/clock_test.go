package serving

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"cadmc/internal/faultnet"
	"cadmc/internal/tensor"
)

// eventLog records, in order, every read of an injected auto-advancing clock
// ("now") and every metric the client emits ("c:", "g:", "o:" plus the name
// with its package prefix dropped). The replay suites run on exactly such a
// clock, so an extra or moved read anywhere in the offload loop shifts every
// later timestamp; pinning the log pins the replay bytes.
type eventLog struct {
	mu     sync.Mutex
	t      time.Duration
	events []string
}

func (l *eventLog) now() time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.t += time.Millisecond
	l.events = append(l.events, "now")
	return l.t
}

func (l *eventLog) add(kind, name, suffix string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.events = append(l.events, kind+strings.TrimPrefix(name, "serving.")+suffix)
}

func (l *eventLog) Count(name string, _ int64)      { l.add("c:", name, "") }
func (l *eventLog) SetGauge(name string, v float64) { l.add("g:", name, fmt.Sprintf("=%g", v)) }
func (l *eventLog) Observe(name string, _ float64)  { l.add("o:", name, "") }

// take returns the log so far and clears it.
func (l *eventLog) take() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := strings.Join(l.events, " ")
	l.events = nil
	return s
}

// TestResilientClockReadsPinned pins, for Offload and OffloadWithin, metered
// and unmetered, the exact sequence of injected clock reads and metric
// emissions on the success, resync, retry-then-exhausted and circuit-open
// paths, together with the result class and the breaker transitions.
func TestResilientClockReadsPinned(t *testing.T) {
	model := testNet(t, 91)
	addr := startServer(t, "m", model)
	act, err := model.ForwardRange(tensor.New(3, 12, 12), 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	healthy := func(int64) faultnet.Spec { return faultnet.Spec{Seed: 1} }
	corruptFirst := func(i int64) faultnet.Spec {
		if i == 0 {
			return faultnet.Spec{Seed: 1, CorruptByteAt: corruptRequestPayload}
		}
		return faultnet.Spec{Seed: 1}
	}
	down := func() (net.Conn, error) { return nil, errors.New("cloud is down") }

	type call struct {
		within bool
		budget time.Duration
		// wantErr is the result class (nil: success); want is the call's
		// event log.
		wantErr error
		want    string
	}
	cases := []struct {
		name      string
		metered   bool
		threshold int
		dial      func() (net.Conn, error)
		calls     []call
		wantOpens int64
		wantState BreakerState
	}{
		{
			name: "success", calls: []call{
				{want: ""},
				{within: true, budget: time.Hour, want: "now now"},
			},
			wantState: BreakerClosed,
		},
		{
			name: "success-metered", metered: true, calls: []call{
				{want: "c:offload.requests now c:offload.attempts c:offload.redials now now o:wire.encode_ns c:wire.tx_bytes now now o:wire.decode_ns c:wire.rx_bytes c:offload.success now o:offload.latency_ms g:breaker.state=1"},
				{within: true, budget: time.Hour, want: "now c:offload.requests now c:offload.attempts now now o:wire.encode_ns c:wire.tx_bytes now now o:wire.decode_ns c:wire.rx_bytes c:offload.success now o:offload.latency_ms g:breaker.state=1"},
			},
			wantState: BreakerClosed,
		},
		{
			name: "resync", calls: []call{
				{want: ""},
			},
			wantState: BreakerClosed,
		},
		{
			name: "resync-within", calls: []call{
				{within: true, budget: time.Hour, want: "now now now now"},
			},
			wantState: BreakerClosed,
		},
		{
			name: "resync-metered", metered: true, calls: []call{
				{want: "c:offload.requests now c:offload.attempts c:offload.redials now now o:wire.encode_ns c:wire.tx_bytes c:offload.resyncs c:offload.retries c:offload.attempts now now o:wire.encode_ns c:wire.tx_bytes now now o:wire.decode_ns c:wire.rx_bytes c:offload.success now o:offload.latency_ms g:breaker.state=1"},
			},
			wantState: BreakerClosed,
		},
		{
			name: "resync-within-metered", metered: true, calls: []call{
				{within: true, budget: time.Hour, want: "now c:offload.requests now c:offload.attempts c:offload.redials now now o:wire.encode_ns c:wire.tx_bytes c:offload.resyncs now c:offload.retries now c:offload.attempts now now o:wire.encode_ns c:wire.tx_bytes now now o:wire.decode_ns c:wire.rx_bytes c:offload.success now o:offload.latency_ms g:breaker.state=1"},
			},
			wantState: BreakerClosed,
		},
		{
			name: "retry-then-exhausted", dial: down, calls: []call{
				{wantErr: ErrUnavailable, want: ""},
				{within: true, budget: time.Hour, wantErr: ErrBudgetExhausted, want: "now now now now now now"},
			},
			wantState: BreakerClosed,
		},
		{
			name: "retry-then-exhausted-metered", metered: true, dial: down, calls: []call{
				{wantErr: ErrUnavailable, want: "c:offload.requests now c:offload.attempts c:offload.retries c:offload.attempts c:offload.retries c:offload.attempts c:offload.unavailable"},
				{within: true, budget: time.Hour, wantErr: ErrBudgetExhausted, want: "now c:offload.requests now c:offload.attempts now c:offload.retries now c:offload.attempts now c:offload.retries now c:offload.attempts c:offload.budget_exhausted"},
			},
			wantState: BreakerClosed,
		},
		{
			name: "budget-runs-out-metered", metered: true, dial: down, calls: []call{
				{within: true, budget: 3 * time.Millisecond, wantErr: ErrBudgetExhausted, want: "now c:offload.requests now c:offload.attempts now c:offload.retries now c:offload.budget_exhausted"},
			},
			wantState: BreakerClosed,
		},
		{
			name: "circuit-open", threshold: 1, dial: down, calls: []call{
				{wantErr: ErrCircuitOpen, want: "now now"},
				{wantErr: ErrCircuitOpen, want: "now"},
				{within: true, budget: time.Hour, wantErr: ErrCircuitOpen, want: "now now now"},
			},
			wantOpens: 1, wantState: BreakerOpen,
		},
		{
			name: "circuit-open-metered", metered: true, threshold: 1, dial: down, calls: []call{
				{wantErr: ErrCircuitOpen, want: "c:offload.requests now c:offload.attempts now c:breaker.opens g:breaker.state=2 c:offload.retries now c:offload.rejected_open"},
				{wantErr: ErrCircuitOpen, want: "c:offload.requests now now c:offload.rejected_open"},
				{within: true, budget: time.Hour, wantErr: ErrCircuitOpen, want: "now c:offload.requests now now c:offload.rejected_open"},
			},
			wantOpens: 1, wantState: BreakerOpen,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			log := &eventLog{}
			opts := fastOpts()
			opts.Now = log.now
			opts.Sleep = func(time.Duration) {}
			opts.BreakerCooldown = time.Hour
			if tc.threshold > 0 {
				opts.BreakerThreshold = tc.threshold
			}
			if tc.metered {
				opts.Metrics = log
			}
			dial := tc.dial
			if dial == nil {
				spec := healthy
				if strings.HasPrefix(tc.name, "resync") {
					spec = corruptFirst
				}
				dial, _ = chaosDialer(addr, faultnet.NewManualClock(), spec)
			}
			client, err := NewResilientClient(dial, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer client.Close()
			log.take() // construction reads nothing, but start from a clean log
			for i, c := range tc.calls {
				if c.within {
					_, err = client.OffloadWithin("m", 2, act, c.budget)
				} else {
					_, err = client.Offload("m", 2, act)
				}
				if c.wantErr == nil && err != nil || c.wantErr != nil && !errors.Is(err, c.wantErr) {
					t.Fatalf("call %d err = %v, want %v", i, err, c.wantErr)
				}
				if got := log.take(); got != c.want {
					t.Fatalf("call %d events:\n got:  %q\n want: %q", i, got, c.want)
				}
			}
			if st := client.Stats(); st.BreakerOpens != tc.wantOpens {
				t.Fatalf("breaker opens = %d, want %d (stats %+v)", st.BreakerOpens, tc.wantOpens, st)
			}
			if state := client.BreakerState(); state != tc.wantState {
				t.Fatalf("breaker = %v, want %v", state, tc.wantState)
			}
		})
	}
}
