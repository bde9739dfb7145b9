package serving

import (
	"errors"
	"io"
	"math"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"cadmc/internal/tensor"
)

// fakeSink is a minimal MetricSink for asserting codec metering without
// pulling the telemetry package into serving's tests.
type fakeSink struct {
	mu       sync.Mutex
	counts   map[string]int64
	observed map[string]int
}

func newFakeSink() *fakeSink {
	return &fakeSink{counts: map[string]int64{}, observed: map[string]int{}}
}

func (s *fakeSink) Count(name string, delta int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.counts[name] += delta
}
func (s *fakeSink) SetGauge(string, float64) {}
func (s *fakeSink) Observe(name string, _ float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.observed[name]++
}

func (s *fakeSink) count(name string) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.counts[name]
}

func (s *fakeSink) observations(name string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.observed[name]
}

// TestWireRoundTripTable round-trips requests and responses through the
// binary codec over an in-memory loopback: every field must survive
// bit-exactly in float64 mode, and within float32 precision in narrowed
// mode.
func TestWireRoundTripTable(t *testing.T) {
	requests := []*Request{
		{ID: 1, ModelID: "m", Cut: 2, Shape: []int{2, 3, 4}, Activation: make([]float64, 24)},
		{ID: 1<<64 - 1, ModelID: "", Cut: -1, Shape: []int{1}, Activation: []float64{math.Pi}},
		{ID: 7, ModelID: strings.Repeat("x", 300), Cut: 0, Shape: []int{3, 1, 1},
			Activation: []float64{math.NaN(), math.Inf(1), -0}},
		{ID: 8, ModelID: "empty", Cut: 5, Shape: nil, Activation: nil},
	}
	for _, narrow := range []bool{false, true} {
		conn := newLoopConn()
		enc := newBinCodec(conn, 0, nil, nil, clientWireNames)
		enc.narrow = narrow
		dec := newBinCodec(conn, 0, nil, nil, serverWireNames)
		got := new(Request)
		for i, req := range requests {
			if err := enc.writeRequest(req); err != nil {
				t.Fatalf("narrow=%v request %d encode: %v", narrow, i, err)
			}
			if err := dec.readRequest(got); err != nil {
				t.Fatalf("narrow=%v request %d decode: %v", narrow, i, err)
			}
			if !narrow && !sameRequest(req, got) {
				t.Fatalf("request %d diverged:\n in:  %+v\n out: %+v", i, req, got)
			}
			if narrow {
				if got.ID != req.ID || got.Cut != req.Cut || got.ModelID != req.ModelID {
					t.Fatalf("narrowed request %d envelope diverged: %+v vs %+v", i, req, got)
				}
				for j := range req.Activation {
					if want := float64(float32(req.Activation[j])); math.Float64bits(want) != math.Float64bits(got.Activation[j]) {
						t.Fatalf("narrowed element %d/%d = %v, want float32-rounded %v", i, j, got.Activation[j], want)
					}
				}
			}
		}
	}

	responses := []*Response{
		{ID: 3, Logits: []float64{1.5, -2.25, math.NaN()}},
		{ID: 4, Err: "unknown model \"zebra\""},
		{ID: 0, Logits: nil},
	}
	conn := newLoopConn()
	enc := newBinCodec(conn, 0, nil, nil, serverWireNames)
	dec := newBinCodec(conn, 0, nil, nil, clientWireNames)
	got := new(Response)
	for i, resp := range responses {
		if err := enc.writeResponse(resp); err != nil {
			t.Fatalf("response %d encode: %v", i, err)
		}
		if err := dec.readResponse(got); err != nil {
			t.Fatalf("response %d decode: %v", i, err)
		}
		if got.ID != resp.ID || got.Err != resp.Err || len(got.Logits) != len(resp.Logits) {
			t.Fatalf("response %d diverged:\n in:  %+v\n out: %+v", i, resp, got)
		}
		for j := range resp.Logits {
			if math.Float64bits(resp.Logits[j]) != math.Float64bits(got.Logits[j]) {
				t.Fatalf("response %d logit %d = %v, want %v", i, j, got.Logits[j], resp.Logits[j])
			}
		}
	}
}

// TestWireZeroAllocSteadyState is the tentpole's allocation contract: once
// buffers are warm, a full request+response round trip through the binary
// codec — encode, decode, encode, decode — allocates nothing.
func TestWireZeroAllocSteadyState(t *testing.T) {
	conn := newLoopConn()
	client := newBinCodec(conn, 0, nil, nil, clientWireNames)
	server := newBinCodec(conn, 0, nil, nil, serverWireNames)
	req := &Request{ID: 1, ModelID: "m", Cut: 3, Shape: []int{8, 16, 16},
		Activation: make([]float64, 8*16*16)}
	resp := &Response{ID: 1, Logits: make([]float64, 10)}
	gotReq := new(Request)
	gotResp := new(Response)
	roundTrip := func() {
		req.ID++
		resp.ID = req.ID
		if err := client.writeRequest(req); err != nil {
			t.Fatal(err)
		}
		if err := server.readRequest(gotReq); err != nil {
			t.Fatal(err)
		}
		if err := server.writeResponse(resp); err != nil {
			t.Fatal(err)
		}
		if err := client.readResponse(gotResp); err != nil {
			t.Fatal(err)
		}
	}
	roundTrip() // warm the staged buffers and destination slices
	if allocs := testing.AllocsPerRun(50, roundTrip); allocs > 0 {
		t.Fatalf("steady-state round trip allocates %.1f times per frame pair, want 0", allocs)
	}
}

// TestWireNegotiationMatrix covers the handshake outcomes: binary where
// both sides speak it, feature flags granted by intersection, and a version
// neither side shares declined on both ends.
func TestWireNegotiationMatrix(t *testing.T) {
	model := testNet(t, 77)
	rng := rand.New(rand.NewSource(78))
	x := tensor.Randn(rng, 1, 3, 12, 12)
	act, err := model.ForwardRange(x, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	want, err := model.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	addr := startServer(t, "m", model)

	cases := []struct {
		name      string
		narrow    bool
		wantProto string
		// bitExact demands logits identical to the local forward; narrowed
		// activations only promise float32-level agreement.
		bitExact bool
	}{
		{name: "binary-default", wantProto: "binary-v1", bitExact: true},
		{name: "binary-narrowed", narrow: true, wantProto: "binary-v1+f32"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := fastOpts()
			opts.NarrowActivations = tc.narrow
			client, err := DialResilient(addr, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer client.Close()

			for i := 0; i < 3; i++ {
				logits, err := client.Offload("m", 2, act)
				if err != nil {
					t.Fatalf("offload %d: %v", i, err)
				}
				for j := range logits {
					diff := math.Abs(logits[j] - want.Data[j])
					if tc.bitExact && diff != 0 {
						t.Fatalf("offload %d logit %d = %v, want bit-exact %v", i, j, logits[j], want.Data[j])
					}
					if diff > 1e-5 {
						t.Fatalf("offload %d logit %d = %v, drifted %v from %v", i, j, logits[j], diff, want.Data[j])
					}
				}
			}
			if got := client.WireProtocol(); got != tc.wantProto {
				t.Fatalf("negotiated %q, want %q", got, tc.wantProto)
			}
			stats := client.Stats()
			if stats.Redials != 1 {
				t.Fatalf("negotiation over %s redialed %d times, want 1", tc.name, stats.Redials)
			}
			if stats.Offloads != 3 {
				t.Fatalf("offloads = %d, want 3", stats.Offloads)
			}
		})
	}

	// A raw hello proposing version 9: the server answers accepted = 0,
	// hangs up, and keeps serving everyone else.
	t.Run("version-9-declined", func(t *testing.T) {
		raw, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer raw.Close()
		if err := raw.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
			t.Fatal(err)
		}
		bc := newBinCodec(raw, 0, nil, nil, clientWireNames)
		if err := bc.writeHello(9, 0); err != nil {
			t.Fatal(err)
		}
		var ack frame
		if err := bc.readFrame(&ack); err != nil {
			t.Fatalf("hello ack: %v", err)
		}
		if ack.ftype != frameHelloAck || len(ack.payload) != 1 || ack.payload[0] != 0 {
			t.Fatalf("ack = type %d payload %v, want a hello ack accepting 0", ack.ftype, ack.payload)
		}
		if _, err := raw.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
			t.Fatalf("read after decline = %v, want EOF", err)
		}
		client, err := dialTest(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		if _, err := client.Offload("m", 2, act); err != nil {
			t.Fatalf("server stopped serving after a declined hello: %v", err)
		}
	})

	// The client side of a decline: a peer that answers accepted = 0 fails
	// the negotiation, which the client treats as a transport failure.
	t.Run("client-rejects-decline", func(t *testing.T) {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer lis.Close()
		go func() {
			for {
				conn, err := lis.Accept()
				if err != nil {
					return
				}
				bc := newBinCodec(conn, 0, nil, nil, serverWireNames)
				var hello frame
				if bc.readFrame(&hello) == nil {
					_ = bc.writeHelloAck(0, 0)
				}
				_ = conn.Close()
			}
		}()
		opts := fastOpts()
		opts.MaxAttempts = 2
		client, err := DialResilient(lis.Addr().String(), opts)
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		_, err = client.Offload("m", 2, act)
		if !errors.Is(err, ErrUnavailable) || !strings.Contains(err.Error(), "negotiate") {
			t.Fatalf("err = %v, want ErrUnavailable after failed negotiations", err)
		}
		if st := client.Stats(); st.Redials != 2 || st.Offloads != 0 {
			t.Fatalf("stats = %+v, want 2 redials and no offload", st)
		}
	})
}

// TestWireNarrowedAccuracy measures what float32 narrowing costs on a real
// model: logits must track the full-precision forward to float32-roundoff
// scale, and the top class must not flip on this well-separated net.
func TestWireNarrowedAccuracy(t *testing.T) {
	model := testNet(t, 81)
	addr := startServer(t, "m", model)
	opts := fastOpts()
	opts.NarrowActivations = true
	client, err := DialResilient(addr, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	rng := rand.New(rand.NewSource(82))
	for i := 0; i < 8; i++ {
		x := tensor.Randn(rng, 1, 3, 12, 12)
		act, err := model.ForwardRange(x, 0, 3)
		if err != nil {
			t.Fatal(err)
		}
		want, err := model.Forward(x)
		if err != nil {
			t.Fatal(err)
		}
		logits, err := client.Offload("m", 2, act)
		if err != nil {
			t.Fatal(err)
		}
		wantTop, gotTop := 0, 0
		for j := range logits {
			if diff := math.Abs(logits[j] - want.Data[j]); diff > 1e-4 {
				t.Fatalf("input %d logit %d drifted %v under f32 narrowing", i, j, diff)
			}
			if logits[j] > logits[gotTop] {
				gotTop = j
			}
			if want.Data[j] > want.Data[wantTop] {
				wantTop = j
			}
		}
		if wantTop != gotTop {
			t.Fatalf("input %d: top class flipped %d -> %d under f32 narrowing", i, wantTop, gotTop)
		}
	}
}

// TestWireMetricsCounted asserts the codec meters frame bytes and
// encode/decode cost through the attached sink, and reads no clock and
// counts nothing when none is attached.
func TestWireMetricsCounted(t *testing.T) {
	model := testNet(t, 83)
	addr := startServer(t, "m", model)
	sink := newFakeSink()
	opts := fastOpts()
	opts.Metrics = sink
	client, err := DialResilient(addr, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	rng := rand.New(rand.NewSource(84))
	x := tensor.Randn(rng, 1, 3, 12, 12)
	act, err := model.ForwardRange(x, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	const offloads = 4
	for i := 0; i < offloads; i++ {
		if _, err := client.Offload("m", 2, act); err != nil {
			t.Fatal(err)
		}
	}
	// Request frames dominate: activation elements × 8 bytes each, plus the
	// envelope, per offload.
	minTx := int64(offloads * len(act.Data) * 8)
	if tx := sink.count(MetricWireTxBytes); tx < minTx {
		t.Fatalf("tx bytes = %d, want ≥ %d", tx, minTx)
	}
	if rx := sink.count(MetricWireRxBytes); rx <= 0 {
		t.Fatalf("rx bytes = %d, want > 0", rx)
	}
	if n := sink.observations(MetricWireEncodeNS); n != offloads {
		t.Fatalf("encode_ns observations = %d, want %d", n, offloads)
	}
	if n := sink.observations(MetricWireDecodeNS); n != offloads {
		t.Fatalf("decode_ns observations = %d, want %d", n, offloads)
	}
}
