package nn

import (
	"math"
	"math/rand"
	"testing"

	"cadmc/internal/tensor"
)

// oracleModels covers every layer kind the executor runs: a stride-4 conv,
// depthwise, BatchNorm, identity and projection Adds, Fire, GAP, Dropout
// and Flatten, fused Conv/DW/FC+ReLU pairs and unfused ones, and a Dropout
// whose (aliased) output is a skip source.
func oracleModels(t *testing.T) []*Model {
	t.Helper()
	models := []*Model{
		{
			Name: "oracle-residual", Input: Shape{C: 3, H: 12, W: 12}, Classes: 5,
			Layers: []Layer{
				NewConv(3, 8, 3, 1, 1),       // 0
				NewBatchNorm(),               // 1
				NewReLU(),                    // 2: identity skip source
				NewConv(8, 8, 3, 1, 1),       // 3: fused with 4
				NewReLU(),                    // 4
				NewAdd(2),                    // 5
				NewReLU(),                    // 6: projection skip source
				NewDepthwiseConv(8, 3, 2, 1), // 7: fused with 8
				NewReLU(),                    // 8
				NewProjAdd(6, 8, 8, 2),       // 9
				NewFire(8, 4, 16),            // 10
				NewMaxPool(2, 2),             // 11
				NewDropout(),                 // 12
				NewGlobalAvgPool(),           // 13
				NewFlatten(),                 // 14
				NewFC(16, 5),                 // 15
			},
		},
		{
			Name: "oracle-stride4", Input: Shape{C: 3, H: 24, W: 24}, Classes: 5,
			Layers: []Layer{
				NewConv(3, 6, 5, 4, 2), // 0: stride 4
				NewReLU(),              // 1
				NewMaxPool(2, 2),       // 2
				NewFlatten(),           // 3
				NewFC(54, 20),          // 4: fused with 5
				NewReLU(),              // 5
				NewDropout(),           // 6
				NewFC(20, 5),           // 7
			},
		},
		{
			Name: "oracle-alias-skip", Input: Shape{C: 2, H: 6, W: 6}, Classes: 3,
			Layers: []Layer{
				NewConv(2, 4, 3, 1, 1), // 0: not fused: its output is kept
				NewReLU(),              // 1
				NewDropout(),           // 2: aliased skip source
				NewConv(4, 4, 3, 1, 1), // 3
				NewAdd(2),              // 4
				NewAdd(0),              // 5: a second, longer skip
				NewBatchNorm(),         // 6
				NewFlatten(),           // 7
				NewReLU(),              // 8
				NewFC(144, 3),          // 9
			},
		},
	}
	for _, m := range models {
		if err := m.Validate(); err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
	}
	return models
}

// zeroSomeWeights sets about a fifth of every parameter tensor to +0 or −0,
// so the executor's zero-weight skip is exercised against the oracle's.
func zeroSomeWeights(net *Net, rng *rand.Rand) {
	zero := func(ts ...*tensor.Tensor) {
		for _, t := range ts {
			if t == nil {
				continue
			}
			for j := range t.Data {
				switch rng.Intn(10) {
				case 0:
					t.Data[j] = 0
				case 1:
					t.Data[j] = math.Copysign(0, -1)
				}
			}
		}
	}
	zero(net.Weights...)
	zero(net.Biases...)
	for _, p := range net.FireAt {
		zero(p.SqueezeW, p.SqueezeB, p.E1W, p.E1B, p.E3W, p.E3B)
	}
}

// plantSpecials overwrites a few random elements of x with NaN, ±Inf, −0
// and +0, and about a tenth of the rest with −0.
func plantSpecials(rng *rand.Rand, x *tensor.Tensor) {
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0}
	for k := 0; k < 4; k++ {
		x.Data[rng.Intn(len(x.Data))] = specials[rng.Intn(len(specials))]
	}
	for j := range x.Data {
		if rng.Intn(10) == 0 {
			x.Data[j] = math.Copysign(0, -1)
		}
	}
}

// oracleRange runs layers [from, to) one applyLayer at a time — the
// training forward's kernels — on x, the output of layer from-1. outs[i] is
// layer i's output.
func oracleRange(t *testing.T, net *Net, x *tensor.Tensor, from, to int) []*tensor.Tensor {
	t.Helper()
	outs := make([]*tensor.Tensor, len(net.Model.Layers))
	skip := func(src int) (*tensor.Tensor, error) {
		if src == from-1 {
			return x, nil
		}
		return outs[src], nil
	}
	cur := x
	for i := from; i < to; i++ {
		res, err := net.applyLayer(i, cur, skip)
		if err != nil {
			t.Fatalf("oracle layer %d: %v", i, err)
		}
		outs[i], cur = res.out, res.out
	}
	return outs
}

// sameBits demands identical Float64bits, except that a NaN matches any
// NaN. Which payload a NaN+NaN sum keeps is the hardware's pick of operand
// (x86 keeps the first), and the Go compiler commutes float additions as
// register allocation suits it — the race-instrumented build orders some
// differently from the plain one — so payloads are not part of the source's
// semantics. Where a value is NaN, and every non-NaN bit including −0's
// sign, stays exact.
func sameBits(t *testing.T, label string, want, got *tensor.Tensor) {
	t.Helper()
	if len(want.Shape) != len(got.Shape) {
		t.Fatalf("%s: shape %v, want %v", label, got.Shape, want.Shape)
	}
	for i := range want.Shape {
		if want.Shape[i] != got.Shape[i] {
			t.Fatalf("%s: shape %v, want %v", label, got.Shape, want.Shape)
		}
	}
	if len(want.Data) != len(got.Data) {
		t.Fatalf("%s: %d elements, want %d", label, len(got.Data), len(want.Data))
	}
	for i := range want.Data {
		w, g := want.Data[i], got.Data[i]
		if math.Float64bits(w) != math.Float64bits(g) && !(math.IsNaN(w) && math.IsNaN(g)) {
			t.Fatalf("%s: element %d is %v (%#x), want %v (%#x)", label, i,
				got.Data[i], math.Float64bits(got.Data[i]), want.Data[i], math.Float64bits(want.Data[i]))
		}
	}
}

func snapshot(xs []*tensor.Tensor) [][]uint64 {
	out := make([][]uint64, len(xs))
	for b, x := range xs {
		for _, v := range x.Data {
			out[b] = append(out[b], math.Float64bits(v))
		}
	}
	return out
}

func unchanged(t *testing.T, label string, before [][]uint64, xs []*tensor.Tensor) {
	t.Helper()
	for b, x := range xs {
		for j, v := range x.Data {
			if math.Float64bits(v) != before[b][j] {
				t.Fatalf("%s: tensor %d element %d was written", label, b, j)
			}
		}
	}
}

// strandsSkip reports whether some Add in [from, to) reads a source that
// was never handed to the range: the executor must refuse such a range.
func strandsSkip(m *Model, from, to int) bool {
	for i := from; i < to; i++ {
		if l := m.Layers[i]; l.Type == Add && l.SkipFrom < from-1 {
			return true
		}
	}
	return false
}

// TestInferenceExecutorBitExact holds the executor to the training forward
// bit for bit: every range [from, to) of every oracle model, alone and in
// batches of 1–9, on inputs carrying NaN, ±Inf and −0 through weights with
// exact zeros. It also checks that inputs are never written and that a
// returned output survives later calls.
func TestInferenceExecutorBitExact(t *testing.T) {
	for mi, m := range oracleModels(t) {
		rng := rand.New(rand.NewSource(int64(900 + mi)))
		net, err := NewNet(m, rng)
		if err != nil {
			t.Fatal(err)
		}
		zeroSomeWeights(net, rng)
		const pool = 9
		L := len(m.Layers)
		// acts[b][i] is sample b's input to layer i, on the oracle's own
		// path from an input with specials planted.
		acts := make([][]*tensor.Tensor, pool)
		xs := make([]*tensor.Tensor, pool)
		for b := range acts {
			xs[b] = tensor.Randn(rng, 1, m.Input.C, m.Input.H, m.Input.W)
			plantSpecials(rng, xs[b])
			outs := oracleRange(t, net, xs[b], 0, L)
			acts[b] = append([]*tensor.Tensor{xs[b]}, outs...)
			full, err := net.Forward(xs[b])
			if err != nil {
				t.Fatal(err)
			}
			sameBits(t, m.Name+" Forward vs per-layer oracle", outs[L-1], full)
		}
		for from := 0; from <= L; from++ {
			// Every range from here starts on a fresh activation with its
			// own specials, so each layer kind meets NaN, ±Inf and −0.
			in := make([]*tensor.Tensor, pool)
			for b := range in {
				in[b] = acts[b][from].Clone()
				plantSpecials(rng, in[b])
			}
			before := snapshot(in)
			for to := from; to <= L; to++ {
				if strandsSkip(m, from, to) {
					if _, err := net.ForwardRangeBatch(in, from, to); err == nil {
						t.Fatalf("%s [%d,%d): stranded skip source accepted", m.Name, from, to)
					}
					continue
				}
				want := make([]*tensor.Tensor, pool)
				for b := range want {
					want[b] = in[b]
					if to > from {
						want[b] = oracleRange(t, net, in[b], from, to)[to-1]
					}
				}
				for batch := 1; batch <= pool; batch++ {
					ys, err := net.ForwardRangeBatch(in[:batch], from, to)
					if err != nil {
						t.Fatalf("%s [%d,%d) batch %d: %v", m.Name, from, to, batch, err)
					}
					for b, y := range ys {
						sameBits(t, m.Name+" ForwardRangeBatch", want[b], y)
					}
				}
				y, err := net.ForwardRange(in[0], from, to)
				if err != nil {
					t.Fatalf("%s [%d,%d): %v", m.Name, from, to, err)
				}
				sameBits(t, m.Name+" ForwardRange", want[0], y)
				if to == L {
					y, err := net.ForwardFrom(in[1], from)
					if err != nil {
						t.Fatal(err)
					}
					sameBits(t, m.Name+" ForwardFrom", want[1], y)
				}
			}
			unchanged(t, m.Name+" inputs", before, in)
		}

		// A returned output is the caller's: later calls on the same
		// workspaces must not touch it.
		first, err := net.ForwardBatch(xs[:3])
		if err != nil {
			t.Fatal(err)
		}
		kept := snapshot(first)
		for round := 0; round < 3; round++ {
			if _, err := net.ForwardBatch(xs[3:]); err != nil {
				t.Fatal(err)
			}
			if _, err := net.ForwardRange(xs[round], 0, L-1); err != nil {
				t.Fatal(err)
			}
		}
		unchanged(t, m.Name+" earlier outputs", kept, first)
	}
}

// demoNet is the serving demo tree's base network (gateway.DemoTree).
func demoNet(t testing.TB) *Net {
	t.Helper()
	m := &Model{
		Name: "gateway-demo", Input: Shape{C: 3, H: 16, W: 16}, Classes: 10,
		Layers: []Layer{
			NewConv(3, 8, 3, 1, 1),
			NewReLU(),
			NewMaxPool(2, 2),
			NewConv(8, 16, 3, 1, 1),
			NewReLU(),
			NewMaxPool(2, 2),
			NewFlatten(),
			NewFC(16*4*4, 48),
			NewReLU(),
			NewFC(48, 10),
		},
	}
	net, err := NewNet(m, rand.New(rand.NewSource(61)))
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// TestInferenceForwardAllocs bounds the steady-state allocations of the
// demo network's batch-8 forward at two per sample (before the executor it
// was 488 per batch at GOMAXPROCS=1): the outputs and their headers, with
// activations and im2col columns drawn from reused workspaces.
func TestInferenceForwardAllocs(t *testing.T) {
	net := demoNet(t)
	rng := rand.New(rand.NewSource(62))
	xs := make([]*tensor.Tensor, 8)
	for i := range xs {
		xs[i] = tensor.Randn(rng, 1, 3, 16, 16)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := net.ForwardBatch(xs); err != nil {
			t.Fatal(err)
		}
	})
	if limit := float64(2 * len(xs)); allocs > limit {
		t.Fatalf("batch-%d forward: %.1f allocs, want at most %.0f", len(xs), allocs, limit)
	}
}
