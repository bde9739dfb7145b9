package emulator

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"cadmc/internal/faultnet"
	"cadmc/internal/network"
	"cadmc/internal/nn"
	"cadmc/internal/serving"
	"cadmc/internal/tensor"
)

// TestRunTraceGolden pins the traced replay's output at seed 7 against
// hashes recorded before the scenario harness existed. Unlike
// TestRunTraceBitIdenticalReplay, which compares the code with itself, one
// extra or missing AutoClock read anywhere on the request path changes these
// bytes.
func TestRunTraceGolden(t *testing.T) {
	res, err := RunTrace(TraceOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	const (
		wantExposition = "414737abee7f54a0685311ef2993f2901fa642b45dc27e83eab967ebcbaaa0d4"
		wantWaterfalls = "6f0788961a63a037db09969311893e4c09d3af769d01c134033e95c10f0961e1"
	)
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(res.Exposition))); got != wantExposition {
		t.Errorf("exposition sha256 = %s, want %s:\n%s", got, wantExposition, res.Exposition)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(res.Waterfalls))); got != wantWaterfalls {
		t.Errorf("waterfalls sha256 = %s, want %s:\n%s", got, wantWaterfalls, res.Waterfalls)
	}
}

// TestRunLiveGolden pins the live chaos replay at cmd/emulate -mode live's
// defaults (scenario "WiFi (weak) indoor", seed 1, 60 inferences at 100 ms
// steps): the route timeline, every logit's bits and the metrics exposition.
func TestRunLiveGolden(t *testing.T) {
	const (
		seed       = 1
		inferences = 60
		stepMS     = 100
	)
	sc, err := network.ByName("WiFi (weak) indoor")
	if err != nil {
		t.Fatal(err)
	}
	spec := faultnet.FromScenario(sc, seed, inferences*stepMS)
	rng := rand.New(rand.NewSource(seed))
	m := &nn.Model{
		Name:    "live-cnn",
		Input:   nn.Shape{C: 3, H: 16, W: 16},
		Classes: 10,
		Layers: []nn.Layer{
			nn.NewConv(3, 8, 3, 1, 1),
			nn.NewReLU(),
			nn.NewMaxPool(2, 2),
			nn.NewConv(8, 16, 3, 1, 1),
			nn.NewReLU(),
			nn.NewMaxPool(2, 2),
			nn.NewFlatten(),
			nn.NewFC(16*4*4, 32),
			nn.NewReLU(),
			nn.NewFC(32, 10),
		},
	}
	net, err := nn.NewNet(m, rng)
	if err != nil {
		t.Fatal(err)
	}
	inputs := make([]*tensor.Tensor, 8)
	for i := range inputs {
		inputs[i] = tensor.Randn(rng, 1, 3, 16, 16)
	}
	res, err := RunLive(net, inputs, LiveOptions{
		Inferences: inferences,
		StepMS:     stepMS,
		Cut:        2,
		Spec:       spec,
		Resilience: serving.DefaultResilientOptions(),
	})
	if err != nil {
		t.Fatal(err)
	}
	const (
		wantRoutes  = "OOOOOOOOOOOOOOOOOOOOOOOOOOOOOOOOOOOOOOOOOOOOOOOOOeeeeeeOOOOO"
		wantLogits  = "9835f02b5c887cf5825e7ada21a1a6fa6f12650f879ca80b0cfb5270842ca05f"
		wantMetrics = "7cbae3daa46741539854fd2dbdc0e84d61e1693b648fa60f31a9513724c4a0ea"
	)
	// The timeline uses cmd/emulate's letters: O offloaded, e edge fallback.
	routes := make([]byte, len(res.Routes))
	for i, r := range res.Routes {
		switch r {
		case serving.RouteOffloaded:
			routes[i] = 'O'
		case serving.RouteFallback:
			routes[i] = 'e'
		default:
			routes[i] = '.'
		}
	}
	if got := string(routes); got != wantRoutes {
		t.Errorf("routes = %s, want %s", got, wantRoutes)
	}
	h := sha256.New()
	var buf [8]byte
	for _, logits := range res.Logits {
		for _, v := range logits {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != wantLogits {
		t.Errorf("logit bits sha256 = %s, want %s", got, wantLogits)
	}
	text := res.Metrics.Text()
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(text))); got != wantMetrics {
		t.Errorf("metrics sha256 = %s, want %s:\n%s", got, wantMetrics, text)
	}
}

// TestRunIntegrityGolden pins the self-healing replay at cmd/emulate -mode
// integrity -sessions 4: exactly one worker restart (the wedged one — the
// healthy worker is never mistaken for it across the clock jump), the one
// request it held re-queued, and the metrics exposition byte for byte.
func TestRunIntegrityGolden(t *testing.T) {
	res, err := RunIntegrity(IntegrityOptions{Sessions: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Restarts != 1 || res.Report.Requeued != 1 {
		t.Errorf("restarts=%d requeued=%d, want 1/1", res.Report.Restarts, res.Report.Requeued)
	}
	const wantMetrics = "01000619f582bb6e53b81719d5be40c6a1c74409cc86f702c4d56bec44a0ce1e"
	text := res.Metrics.Text()
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(text))); got != wantMetrics {
		t.Errorf("metrics sha256 = %s, want %s:\n%s", got, wantMetrics, text)
	}
}
