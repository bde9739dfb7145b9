package gateway

import (
	"errors"
	"math"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"cadmc/internal/faultnet"
	"cadmc/internal/nn"
	"cadmc/internal/serving"
	"cadmc/internal/tensor"
)

func demoProvider(t *testing.T, seed int64, register func(string, *nn.Net) error) *VariantProvider {
	t.Helper()
	tree, err := DemoTree([]float64{2, 8})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewVariantProvider(tree, seed, register)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func demoInput(rng *rand.Rand) *tensor.Tensor {
	return tensor.Randn(rng, 1, 3, 16, 16)
}

// startCloud runs an in-process cloud server and returns its address plus a
// register callback for the variant provider.
func startCloud(t *testing.T) (string, *serving.Server) {
	t.Helper()
	srv := serving.NewServer()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := srv.Serve(lis); err != nil {
			t.Errorf("serve: %v", err)
		}
	}()
	t.Cleanup(func() {
		_ = srv.Close()
		<-done
	})
	return lis.Addr().String(), srv
}

// dialOffloader gives each gateway worker its own resilient offload client to
// the cloud at addr; closeOffloader releases it.
func dialOffloader(addr string) func(int) (serving.Offloader, error) {
	return func(int) (serving.Offloader, error) {
		return serving.DialResilient(addr, serving.ResilientOptions{})
	}
}

func closeOffloader(o serving.Offloader) error {
	return o.(*serving.ResilientClient).Close()
}

// Admission control must shed deterministically: per-session fairness first,
// queue capacity second, and a closed gateway completes (never drops) what
// it already accepted.
func TestAdmissionSheddingAndFairness(t *testing.T) {
	p := demoProvider(t, 11, nil)
	v, err := p.ForClass(0)
	if err != nil {
		t.Fatal(err)
	}
	gw, err := New(Config{QueueCapacity: 4, MaxBatch: 2, PerSessionLimit: 2, Clock: faultnet.NewManualClock()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gw.SetVariant(v); err != nil {
		t.Fatal(err)
	}
	// Deliberately not started: the queue fills and nothing drains.
	rng := rand.New(rand.NewSource(12))
	var accepted []<-chan Result
	for i := 0; i < 2; i++ {
		ch, err := gw.Submit("session-a", demoInput(rng))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		accepted = append(accepted, ch)
	}
	if _, err := gw.Submit("session-a", demoInput(rng)); !errors.Is(err, ErrSessionLimit) {
		t.Fatalf("third request of one session: %v, want ErrSessionLimit", err)
	}
	for _, s := range []string{"session-b", "session-c"} {
		ch, err := gw.Submit(s, demoInput(rng))
		if err != nil {
			t.Fatal(err)
		}
		accepted = append(accepted, ch)
	}
	if _, err := gw.Submit("session-d", demoInput(rng)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("over-capacity submit: %v, want ErrQueueFull", err)
	}
	rep := gw.Stop()
	if _, err := gw.Submit("session-e", demoInput(rng)); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after stop: %v, want ErrClosed", err)
	}
	for i, ch := range accepted {
		res := <-ch
		if !errors.Is(res.Err, ErrClosed) {
			t.Fatalf("accepted request %d: err %v, want ErrClosed", i, res.Err)
		}
	}
	if rep.Admitted != 6 || rep.Shed != 2 || rep.Completed != 4 {
		t.Fatalf("accounting admitted=%d shed=%d completed=%d", rep.Admitted, rep.Shed, rep.Completed)
	}
	if rep.ShedSession != 1 || rep.ShedQueueFull != 1 {
		t.Fatalf("shed breakdown %+v", rep)
	}
	if rep.Admitted != rep.Completed+rep.Shed {
		t.Fatalf("invariant broken: %d != %d + %d", rep.Admitted, rep.Completed, rep.Shed)
	}
}

func pushN(t *testing.T, q *admitQueue, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := q.push(&request{session: "s", done: make(chan Result, 1)}); err != nil {
			t.Fatal(err)
		}
	}
}

// The micro-batcher must take what is queued without waiting, cap at
// MaxBatch, and coalesce shallow backlogs within the wait window.
func TestPopBatchAdaptiveCoalescing(t *testing.T) {
	q := newAdmitQueue(16, -1)
	pushN(t, q, 5)
	if got := len(q.popBatch(8, 0)); got != 5 {
		t.Fatalf("deep backlog batch %d, want 5", got)
	}
	pushN(t, q, 3)
	if got := len(q.popBatch(2, 0)); got != 2 {
		t.Fatalf("capped batch %d, want 2", got)
	}
	if got := len(q.popBatch(8, 0)); got != 1 {
		t.Fatalf("leftover batch %d, want 1", got)
	}
	// Shallow backlog: a second request arriving inside the wait window must
	// ride the same batch.
	pushN(t, q, 1)
	late := make(chan struct{})
	go func() {
		defer close(late)
		time.Sleep(10 * time.Millisecond)
		if err := q.push(&request{session: "late", done: make(chan Result, 1)}); err != nil {
			t.Errorf("late push: %v", err)
		}
	}()
	batch := q.popBatch(4, 2*time.Second)
	<-late
	if len(batch) != 2 {
		t.Fatalf("coalesced batch %d, want 2", len(batch))
	}
	// Closed queue: remaining items drain, then popBatch reports end.
	pushN(t, q, 2)
	q.close()
	if got := len(q.popBatch(8, time.Second)); got != 2 {
		t.Fatalf("drain batch %d, want 2", got)
	}
	if q.popBatch(8, time.Second) != nil {
		t.Fatal("closed empty queue must return nil")
	}
}

// End to end: many sessions, a mid-stream hot-swap from the edge-resident
// variant to the partitioned one, every logit bit-identical to an
// out-of-band recompute from a provider with the same seed, exact
// accounting, zero drops.
func TestGatewayServesAcrossSwapWithoutDrops(t *testing.T) {
	srvAddr, srv := startCloud(t)
	// The provider registers each composed net with the cloud server, so
	// offloaded and edge completions share identical weights.
	p := demoProvider(t, 21, srv.Register)
	gw, err := New(Config{
		Workers:         4,
		QueueCapacity:   256,
		PerSessionLimit: -1,
		MaxBatch:        4,
		MaxWait:         time.Millisecond,
		NewOffloader:    dialOffloader(srvAddr),
		CloseOffloader:  closeOffloader,
	})
	if err != nil {
		t.Fatal(err)
	}
	v0, err := p.ForClass(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gw.SetVariant(v0); err != nil {
		t.Fatal(err)
	}
	if err := gw.Start(); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(22))
	const total = 48
	inputs := make([]*tensor.Tensor, total)
	chans := make([]<-chan Result, total)
	sessions := []string{"alice", "bob", "carol", "dave", "erin", "frank"}
	// First half under the class-0 variant; wait for it to drain, swap, then
	// the second half under class 1 — both variants are guaranteed to serve,
	// and TestHotSwapDrainsInFlight covers requests straddling the swap.
	results := make([]Result, total)
	for i := 0; i < total; i++ {
		inputs[i] = demoInput(rng)
		ch, err := gw.Submit(sessions[i%len(sessions)], inputs[i])
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		chans[i] = ch
		if i == total/2 {
			for j := 0; j <= i; j++ {
				results[j] = <-chans[j]
			}
			v1, err := p.ForClass(1)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := gw.SetVariant(v1); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := total/2 + 1; i < total; i++ {
		results[i] = <-chans[i]
	}
	rep := gw.Stop()

	// Recompute expected logits out-of-band from an identically seeded
	// provider: the variant sig in each result pins the serving chain.
	ref := demoProvider(t, 21, nil)
	nets := map[string]*nn.Net{}
	for k := 0; k < 2; k++ {
		v, err := ref.ForClass(k)
		if err != nil {
			t.Fatal(err)
		}
		nets[v.Sig] = v.Net
	}
	sigs := map[string]int{}
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("request %d: %v", i, res.Err)
		}
		net, ok := nets[res.VariantSig]
		if !ok {
			t.Fatalf("request %d served by unknown variant %q", i, res.VariantSig)
		}
		sigs[res.VariantSig]++
		want, err := net.Forward(inputs[i])
		if err != nil {
			t.Fatal(err)
		}
		for j := range want.Data {
			if res.Logits[j] != want.Data[j] { //cadmc:allow floateq — bit-exactness is the contract under test
				t.Fatalf("request %d logit %d differs from recompute", i, j)
			}
		}
	}
	if len(sigs) != 2 {
		t.Fatalf("expected both variants to serve, got %v", sigs)
	}
	if rep.Admitted != total || rep.Completed != total || rep.Shed != 0 {
		t.Fatalf("accounting admitted=%d completed=%d shed=%d", rep.Admitted, rep.Completed, rep.Shed)
	}
	if rep.Swaps != 1 {
		t.Fatalf("swaps %d, want 1", rep.Swaps)
	}
	if rep.Errored != 0 {
		t.Fatalf("errored %d", rep.Errored)
	}
	if rep.Routes.Inferences != total {
		t.Fatalf("route stats count %d inferences, want %d", rep.Routes.Inferences, total)
	}
	if rep.Routes.Offloaded == 0 || rep.Routes.EdgeOnly == 0 {
		t.Fatalf("both routes should appear after the swap: %s", rep.Routes)
	}
	if rep.Routes.InFlight != 0 {
		t.Fatalf("drained gateway reports %d in flight", rep.Routes.InFlight)
	}
	// The workers' offload codecs meter into the gateway registry, so the
	// report carries the wire cost of the offloaded half of the run.
	if rep.WireTxBytes == 0 || rep.WireRxBytes == 0 {
		t.Fatalf("wire bytes tx=%d rx=%d, want both > 0 after offloads", rep.WireTxBytes, rep.WireRxBytes)
	}
	if rep.BytesPerRequest <= 0 {
		t.Fatalf("bytes per request = %v, want > 0", rep.BytesPerRequest)
	}
	if rep.MeanEncodeNS <= 0 || rep.MeanDecodeNS <= 0 {
		t.Fatalf("mean encode/decode ns = %v/%v, want both > 0", rep.MeanEncodeNS, rep.MeanDecodeNS)
	}
}

// stallOffloader blocks offloads until released so the test can hold
// requests in flight across a hot-swap.
type stallOffloader struct {
	entered chan struct{}
	release chan struct{}
}

func (s *stallOffloader) Offload(string, int, *tensor.Tensor) ([]float64, error) {
	s.entered <- struct{}{}
	<-s.release
	return make([]float64, 10), nil
}

// A hot-swap must not touch in-flight work: requests dispatched before the
// swap drain on the old variant while new requests run the new one.
func TestHotSwapDrainsInFlight(t *testing.T) {
	p := demoProvider(t, 31, nil)
	stall := &stallOffloader{entered: make(chan struct{}, 8), release: make(chan struct{})}
	gw, err := New(Config{
		Workers:         4,
		PerSessionLimit: -1,
		MaxBatch:        1, // one request per batch so stalls pin distinct workers
		NewOffloader:    func(int) (serving.Offloader, error) { return stall, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	vOld, err := p.ForClass(1) // partitioned: goes through the stalling offloader
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gw.SetVariant(vOld); err != nil {
		t.Fatal(err)
	}
	if err := gw.Start(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(32))
	const stalled = 2
	oldChans := make([]<-chan Result, stalled)
	for i := range oldChans {
		ch, err := gw.Submit("old", demoInput(rng))
		if err != nil {
			t.Fatal(err)
		}
		oldChans[i] = ch
	}
	for i := 0; i < stalled; i++ {
		<-stall.entered
	}
	if got := vOld.InFlight(); got != stalled {
		t.Fatalf("old variant in flight %d, want %d", got, stalled)
	}

	vNew, err := p.ForClass(0) // edge-resident: no offloader involved
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gw.SetVariant(vNew); err != nil {
		t.Fatal(err)
	}
	newCh, err := gw.Submit("new", demoInput(rng))
	if err != nil {
		t.Fatal(err)
	}
	res := <-newCh
	if res.Err != nil || res.VariantSig != vNew.Sig {
		t.Fatalf("post-swap request: sig %q err %v, want sig %q", res.VariantSig, res.Err, vNew.Sig)
	}
	if got := vOld.InFlight(); got != stalled {
		t.Fatalf("swap disturbed in-flight work: %d, want %d", got, stalled)
	}
	close(stall.release)
	for i, ch := range oldChans {
		res := <-ch
		if res.Err != nil {
			t.Fatalf("stalled request %d: %v", i, res.Err)
		}
		if res.VariantSig != vOld.Sig {
			t.Fatalf("stalled request %d served by %q, want old variant %q", i, res.VariantSig, vOld.Sig)
		}
	}
	rep := gw.Stop()
	if vOld.InFlight() != 0 || vNew.InFlight() != 0 {
		t.Fatal("variants still report in-flight work after drain")
	}
	if rep.Admitted != stalled+1 || rep.Completed != stalled+1 || rep.Shed != 0 {
		t.Fatalf("accounting %+v", rep)
	}
	if rep.Swaps != 1 {
		t.Fatalf("swaps %d, want 1", rep.Swaps)
	}
}

// Two providers with the same seed must build bit-identical variants — the
// property the e2e recompute relies on — and the provider must cache by
// branch signature.
func TestVariantProviderDeterministicAndCached(t *testing.T) {
	a := demoProvider(t, 41, nil)
	b := demoProvider(t, 41, nil)
	va, err := a.ForClass(0)
	if err != nil {
		t.Fatal(err)
	}
	vb, err := b.ForClass(0)
	if err != nil {
		t.Fatal(err)
	}
	if va.Sig != vb.Sig || va.Cut != vb.Cut {
		t.Fatalf("same seed, different variants: %q/%d vs %q/%d", va.Sig, va.Cut, vb.Sig, vb.Cut)
	}
	rng := rand.New(rand.NewSource(42))
	x := demoInput(rng)
	ya, err := va.Net.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	yb, err := vb.Net.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ya.Data {
		if ya.Data[i] != yb.Data[i] { //cadmc:allow floateq — determinism is the contract under test
			t.Fatalf("logit %d differs between identically seeded providers", i)
		}
	}
	again, err := a.ForClass(0)
	if err != nil {
		t.Fatal(err)
	}
	if again != va {
		t.Fatal("provider must cache variants by signature")
	}
	other, err := a.ForClass(1)
	if err != nil {
		t.Fatal(err)
	}
	if other.Sig == va.Sig {
		t.Fatal("distinct classes must map to distinct signatures in the demo tree")
	}
	if other.Cut >= len(other.Net.Model.Layers)-1 {
		t.Fatal("class 1 demo variant should partition")
	}
	if va.Cut != len(va.Net.Model.Layers)-1 {
		t.Fatal("class 0 demo variant should be edge-resident")
	}
}

// Percentile must be total: any (sample set, q) pair — empty, out-of-range,
// even NaN — yields a finite, in-range value, never a panic or a NaN.
func TestPercentile(t *testing.T) {
	s := []float64{1, 2, 3, 4}
	cases := []struct {
		name   string
		sorted []float64
		q      float64
		want   float64
	}{
		{"empty-mid", nil, 0.5, 0},
		{"empty-nan", nil, math.NaN(), 0},
		{"empty-over", []float64{}, 2, 0},
		{"p0", s, 0, 1},
		{"p100", s, 1, 4},
		{"p50", s, 0.5, 2.5},
		{"p25", s, 0.25, 1.75},
		{"negative-q-clamps-to-min", s, -0.5, 1},
		{"over-one-clamps-to-max", s, 1.5, 4},
		{"negative-inf-q", s, math.Inf(-1), 1},
		{"positive-inf-q", s, math.Inf(1), 4},
		{"nan-q", s, math.NaN(), 0},
		{"single-sample", []float64{7}, 0.99, 7},
	}
	for _, c := range cases {
		got := Percentile(c.sorted, c.q)
		if math.IsNaN(got) {
			t.Errorf("%s: Percentile returned NaN", c.name)
			continue
		}
		if math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s: Percentile(%v, %v) = %v, want %v", c.name, c.sorted, c.q, got, c.want)
		}
	}
}

// The gateway must hold up under concurrent submitters — this is the unit-
// level soak the race detector chews on.
func TestGatewayConcurrentSubmitters(t *testing.T) {
	srvAddr, srv := startCloud(t)
	p := demoProvider(t, 51, srv.Register)
	gw, err := New(Config{
		Workers:         4,
		QueueCapacity:   512,
		PerSessionLimit: 4,
		MaxBatch:        8,
		MaxWait:         time.Millisecond,
		NewOffloader:    dialOffloader(srvAddr),
		CloseOffloader:  closeOffloader,
	})
	if err != nil {
		t.Fatal(err)
	}
	v0, err := p.ForClass(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gw.SetVariant(v0); err != nil {
		t.Fatal(err)
	}
	if err := gw.Start(); err != nil {
		t.Fatal(err)
	}
	const submitters = 8
	const perSubmitter = 16
	var wg sync.WaitGroup
	var mu sync.Mutex
	received := 0
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + id)))
			session := sessionName(id)
			for i := 0; i < perSubmitter; i++ {
				ch, err := gw.Submit(session, demoInput(rng))
				if err != nil {
					// Shed under pressure is legitimate; drops are not.
					continue
				}
				res := <-ch
				if res.Err != nil {
					t.Errorf("submitter %d: %v", id, res.Err)
				}
				mu.Lock()
				received++
				mu.Unlock()
			}
		}(s)
	}
	// One swap racing the submitters.
	v1, err := p.ForClass(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gw.SetVariant(v1); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	rep := gw.Stop()
	if rep.Admitted != rep.Completed+rep.Shed {
		t.Fatalf("invariant broken: admitted %d != completed %d + shed %d", rep.Admitted, rep.Completed, rep.Shed)
	}
	if int64(received) != rep.Completed {
		t.Fatalf("callers received %d results, gateway counts %d completed", received, rep.Completed)
	}
	if rep.Routes.InFlight != 0 {
		t.Fatalf("drained gateway reports in-flight: %s", rep.Routes)
	}
}

func sessionName(id int) string {
	return string(rune('a'+id)) + "-session"
}
