package serving

import (
	"math"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"cadmc/internal/compress"
	"cadmc/internal/nn"
	"cadmc/internal/tensor"
)

func testNet(t *testing.T, seed int64) *nn.Net {
	t.Helper()
	m := &nn.Model{
		Name:    "servenet",
		Input:   nn.Shape{C: 3, H: 12, W: 12},
		Classes: 5,
		Layers: []nn.Layer{
			nn.NewConv(3, 8, 3, 1, 1),
			nn.NewReLU(),
			nn.NewMaxPool(2, 2),
			nn.NewConv(8, 16, 3, 1, 1),
			nn.NewReLU(),
			nn.NewMaxPool(2, 2),
			nn.NewFlatten(),
			nn.NewFC(16*3*3, 32),
			nn.NewReLU(),
			nn.NewFC(32, 5),
		},
	}
	net, err := nn.NewNet(m, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// dialTest connects the package's offload client to addr with the quick
// test tuning; the connection is established lazily on the first Offload.
func dialTest(addr string) (*ResilientClient, error) {
	return DialResilient(addr, fastOpts())
}

// startServer brings up a loopback server with the model registered and
// returns its address plus a cleanup.
func startServer(t *testing.T, id string, model *nn.Net) string {
	t.Helper()
	srv := NewServer()
	if err := srv.Register(id, model); err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(lis) }()
	t.Cleanup(func() {
		if err := srv.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	return lis.Addr().String()
}

func TestSplitInferenceMatchesLocalExactly(t *testing.T) {
	model := testNet(t, 1)
	addr := startServer(t, "m", model)
	client, err := dialTest(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	exec := &SplitExecutor{Edge: model, ModelID: "m", Client: client}
	rng := rand.New(rand.NewSource(9))
	cuts, err := model.Model.CutPoints()
	if err != nil {
		t.Fatal(err)
	}
	allCuts := append([]int{-1}, cuts...)
	for trial := 0; trial < 5; trial++ {
		x := tensor.Randn(rng, 1, 3, 12, 12)
		local, err := model.Forward(x)
		if err != nil {
			t.Fatal(err)
		}
		for _, cut := range allCuts {
			got, err := exec.Infer(x, cut)
			if err != nil {
				t.Fatalf("cut %d: %v", cut, err)
			}
			if len(got) != local.Len() {
				t.Fatalf("cut %d: %d logits, want %d", cut, len(got), local.Len())
			}
			for i := range got {
				// the binary codec ships float64 exactly: results must be identical.
				if got[i] != local.Data[i] {
					t.Fatalf("cut %d logit %d: %v vs local %v", cut, i, got[i], local.Data[i])
				}
			}
		}
	}
}

func TestSplitAllEdgeNeedsNoClient(t *testing.T) {
	model := testNet(t, 2)
	exec := &SplitExecutor{Edge: model, ModelID: "m"}
	x := tensor.Randn(rand.New(rand.NewSource(3)), 1, 3, 12, 12)
	n := len(model.Model.Layers)
	logits, err := exec.Infer(x, n-1)
	if err != nil {
		t.Fatal(err)
	}
	if len(logits) != 5 {
		t.Fatalf("got %d logits, want 5", len(logits))
	}
	if _, err := exec.Infer(x, 3); err == nil {
		t.Fatal("partitioned inference without a client must fail")
	}
	if _, err := exec.Infer(x, 99); err == nil {
		t.Fatal("expected cut-range error")
	}
}

func TestPredictAgrees(t *testing.T) {
	model := testNet(t, 4)
	addr := startServer(t, "m", model)
	client, err := dialTest(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	exec := &SplitExecutor{Edge: model, ModelID: "m", Client: client}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 5; trial++ {
		x := tensor.Randn(rng, 1, 3, 12, 12)
		want, err := model.Predict(x)
		if err != nil {
			t.Fatal(err)
		}
		got, err := exec.Predict(x, 2)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("split predict %d, local %d", got, want)
		}
	}
}

func TestConcurrentClients(t *testing.T) {
	model := testNet(t, 6)
	addr := startServer(t, "m", model)
	rng := rand.New(rand.NewSource(7))
	x := tensor.Randn(rng, 1, 3, 12, 12)
	want, err := model.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	act, err := model.ForwardRange(x, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client, err := dialTest(addr)
			if err != nil {
				errs <- err
				return
			}
			defer client.Close()
			for i := 0; i < 10; i++ {
				logits, err := client.Offload("m", 2, act)
				if err != nil {
					errs <- err
					return
				}
				for j := range logits {
					if math.Abs(logits[j]-want.Data[j]) > 0 {
						errs <- errMismatch
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

var errMismatch = &mismatchError{}

type mismatchError struct{}

func (*mismatchError) Error() string { return "concurrent offload produced wrong logits" }

func TestServerErrors(t *testing.T) {
	model := testNet(t, 8)
	addr := startServer(t, "m", model)
	client, err := dialTest(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	act := tensor.New(3, 12, 12)

	if _, err := client.Offload("ghost", -1, act); err == nil {
		t.Fatal("expected unknown-model error")
	}
	if _, err := client.Offload("m", 50, act); err == nil {
		t.Fatal("expected cut-range error")
	}
	// Wrong activation shape for the cut.
	if _, err := client.Offload("m", 3, act); err == nil {
		t.Fatal("expected shape-mismatch error")
	}
	// The connection must survive error responses: a valid request after
	// the failures still works.
	if _, err := client.Offload("m", -1, act); err != nil {
		t.Fatalf("connection broken after error responses: %v", err)
	}
}

func TestRegisterValidation(t *testing.T) {
	srv := NewServer()
	if err := srv.Register("", nil); err == nil {
		t.Fatal("expected empty-registration error")
	}
	model := testNet(t, 9)
	if err := srv.Register("m", model); err != nil {
		t.Fatal(err)
	}
	if err := srv.Register("m", model); err == nil {
		t.Fatal("expected duplicate-registration error")
	}
}

func TestServerCloseUnblocksClients(t *testing.T) {
	model := testNet(t, 10)
	srv := NewServer()
	if err := srv.Register("m", model); err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(lis) }()
	client, err := dialTest(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	// One round trip establishes the connection the close must kill.
	act := tensor.New(3, 12, 12)
	if _, err := client.Offload("m", -1, act); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("serve returned %v after close", err)
	}
	// Offloading on the dead connection must fail, not hang.
	if _, err := client.Offload("m", -1, act); err == nil {
		t.Fatal("expected error on closed server")
	}
	// Closing twice is fine.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestMalformedFrameDoesNotCrashServer(t *testing.T) {
	model := testNet(t, 11)
	addr := startServer(t, "m", model)
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := raw.Write([]byte("this is not gob")); err != nil {
		t.Fatal(err)
	}
	_ = raw.Close()
	// The server must still answer well-formed clients.
	client, err := dialTest(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	act := tensor.New(3, 12, 12)
	if _, err := client.Offload("m", -1, act); err != nil {
		t.Fatalf("server unhealthy after malformed frame: %v", err)
	}
}

func TestActivationValidation(t *testing.T) {
	cases := []Request{
		{ModelID: "m", Shape: nil, Activation: []float64{1}},
		{ModelID: "m", Shape: []int{0, 2}, Activation: nil},
		{ModelID: "m", Shape: []int{2, 2}, Activation: []float64{1, 2, 3}},
	}
	for i, req := range cases {
		if _, err := activationTensor(&req, DefaultMaxPayloadElems); err == nil {
			t.Fatalf("case %d: expected validation error", i)
		}
	}
	ok := Request{Shape: []int{2, 2}, Activation: []float64{1, 2, 3, 4}}
	tt, err := activationTensor(&ok, DefaultMaxPayloadElems)
	if err != nil {
		t.Fatal(err)
	}
	if tt.At(1, 1) != 4 {
		t.Fatal("activation round trip wrong")
	}
}

func TestServerStats(t *testing.T) {
	model := testNet(t, 12)
	srv := NewServer()
	if err := srv.Register("m", model); err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(lis) }()
	defer func() {
		_ = srv.Close()
		<-done
	}()
	client, err := dialTest(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	act := tensor.New(3, 12, 12)
	if _, err := client.Offload("m", -1, act); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Offload("ghost", -1, act); err == nil {
		t.Fatal("expected unknown-model error")
	}
	served, failed := srv.Stats()
	if served != 1 || failed != 1 {
		t.Fatalf("stats = %d served / %d failed, want 1/1", served, failed)
	}
}

func TestClientTimeoutAgainstStalledServer(t *testing.T) {
	// A raw listener that accepts but never replies.
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		conn, err := lis.Accept()
		if err == nil {
			accepted <- conn
		}
	}()
	opts := fastOpts()
	opts.Timeout = 50 * time.Millisecond
	opts.MaxAttempts = 1
	client, err := DialResilient(lis.Addr().String(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	start := time.Now()
	_, err = client.Offload("m", -1, tensor.New(3, 12, 12))
	if err == nil {
		t.Fatal("expected timeout error")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("timeout took %v — deadline not applied", elapsed)
	}
	select {
	case conn := <-accepted:
		_ = conn.Close()
	default:
	}
}

// The serving stack must also execute structurally compressed models: apply
// C1 (depthwise split) and Q1 (quantisation) with weights, register the
// result, and verify split inference still matches local execution exactly.
func TestServeCompressedModel(t *testing.T) {
	model := testNet(t, 13)
	rng := rand.New(rand.NewSource(14))
	c1, err := compress.ApplyWithWeights(model, 3, compress.Technique{ID: compress.C1}, rng)
	if err != nil {
		t.Fatal(err)
	}
	q1, err := compress.ApplyWithWeights(c1, 0, compress.Technique{ID: compress.Q1, Bits: 8}, rng)
	if err != nil {
		t.Fatal(err)
	}
	addr := startServer(t, "compressed", q1)
	client, err := dialTest(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	exec := &SplitExecutor{Edge: q1, ModelID: "compressed", Client: client}
	x := tensor.Randn(rng, 1, 3, 12, 12)
	local, err := q1.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	cuts, err := q1.Model.CutPoints()
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range cuts[:len(cuts)-1] {
		got, err := exec.Infer(x, cut)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		for i := range got {
			if got[i] != local.Data[i] {
				t.Fatalf("cut %d: compressed split differs from local", cut)
			}
		}
	}
}
