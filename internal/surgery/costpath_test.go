package surgery

import (
	"fmt"
	"math"
	"testing"

	"cadmc/internal/latency"
	"cadmc/internal/nn"
)

// This file pins the cost path — Partition, Evaluate, RangeMS, EndToEnd,
// EdgeEnergy — bit for bit to a reference copy of the per-layer code it
// replaced, which re-ran shape inference for every layer it priced.

// refLayerMS is the reference Eq. 6 latency of one layer.
func refLayerMS(l nn.Layer, maccs int64, dev latency.Device, out nn.Shape) float64 {
	if maccs == 0 && !l.HasWeights() {
		return 0
	}
	convCoeff := func(kernel int) float64 {
		if c, ok := dev.ConvCoeffNS[kernel]; ok {
			return c
		}
		return dev.DefaultConvCoeffNS
	}
	spatial := false
	var coeff float64
	switch l.Type {
	case nn.Conv:
		coeff = convCoeff(l.Kernel)
		spatial = true
	case nn.DepthwiseConv:
		coeff = convCoeff(l.Kernel)
		if dev.DepthwiseInefficiency > 1 {
			coeff *= dev.DepthwiseInefficiency
		}
		spatial = true
	case nn.Fire:
		coeff = convCoeff(3)
		spatial = true
	case nn.FC:
		coeff = dev.FCCoeffNS
	case nn.Add:
		if l.Out <= 0 {
			return 0
		}
		coeff = convCoeff(1)
		spatial = true
	default:
		return 0
	}
	if spatial && dev.SmallMapPixels > 0 {
		hw := float64(out.H * out.W)
		if hw > 0 {
			coeff *= 1 + math.Sqrt(dev.SmallMapPixels/hw)
		}
	}
	if l.Bits > 0 && l.Bits < 32 {
		coeff *= 0.45
	}
	return (coeff*float64(maccs) + dev.LayerOverheadNS) / 1e6
}

// refRangeMS is the reference RangeMS: whole-model shape inference on every
// call, then the in-order sum over [from, to).
func refRangeMS(m *nn.Model, from, to int, dev latency.Device) (float64, error) {
	per, err := m.MACCsPerLayer()
	if err != nil {
		return 0, err
	}
	dims, err := m.InferDims()
	if err != nil {
		return 0, err
	}
	total := 0.0
	for i := from; i < to; i++ {
		total += refLayerMS(m.Layers[i], per[i], dev, dims[i].Out)
	}
	return total, nil
}

// refFeatureBytes is the reference FeatureBytes: shape inference per call.
func refFeatureBytes(m *nn.Model, i int) (int64, error) {
	if i == -1 {
		return m.Input.Bytes(), nil
	}
	dims, err := m.InferDims()
	if err != nil {
		return 0, err
	}
	return dims[i].Out.Bytes(), nil
}

func refSkip(l nn.Layer, j int) bool {
	return l.Type == nn.Add && l.SkipFrom >= 0 && l.SkipFrom != j-1
}

// refTable prices a model the reference way: refRangeMS(m, i, i+1, …) and
// refFeatureBytes in a loop, each call re-running shape inference. Its range
// sums add the same per-layer terms in the same order as refRangeMS does.
type refTable struct {
	m               *nn.Model
	est             *latency.Estimator
	edgeMS, cloudMS []float64
	bytes           []int64 // bytes[i+1] is refFeatureBytes(m, i)
}

func newRefTable(t *testing.T, m *nn.Model, est *latency.Estimator) *refTable {
	t.Helper()
	n := len(m.Layers)
	r := &refTable{m: m, est: est, edgeMS: make([]float64, n), cloudMS: make([]float64, n), bytes: make([]int64, n+1)}
	for i := -1; i < n; i++ {
		var err error
		if r.bytes[i+1], err = refFeatureBytes(m, i); err != nil {
			t.Fatal(err)
		}
		if i < 0 {
			continue
		}
		if r.edgeMS[i], err = refRangeMS(m, i, i+1, est.Edge); err != nil {
			t.Fatal(err)
		}
		if r.cloudMS[i], err = refRangeMS(m, i, i+1, est.Cloud); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

// rangeMS is the reference RangeMS on the edge or the cloud.
func (r *refTable) rangeMS(from, to int, edge bool) float64 {
	per := r.cloudMS
	if edge {
		per = r.edgeMS
	}
	total := 0.0
	for i := from; i < to; i++ {
		total += per[i]
	}
	return total
}

// evaluate is the reference Evaluate.
func (r *refTable) evaluate(edgeSide []bool, bw float64) latency.Breakdown {
	var b latency.Breakdown
	for i := range r.m.Layers {
		if edgeSide[i] {
			b.EdgeMS += r.edgeMS[i]
		} else {
			b.CloudMS += r.cloudMS[i]
		}
	}
	var crossBytes int64
	addCross := func(producer int, consumerEdge bool) {
		if (producer < 0 || edgeSide[producer]) && !consumerEdge {
			crossBytes += r.bytes[producer+1]
		}
	}
	for i := range r.m.Layers {
		addCross(i-1, edgeSide[i])
	}
	for j, l := range r.m.Layers {
		if refSkip(l, j) {
			addCross(l.SkipFrom, edgeSide[j])
		}
	}
	if crossBytes > 0 {
		b.TransferMS = r.est.Transfer.MS(crossBytes, bw)
	}
	return b
}

// partition is the reference Partition: the same DADS graph, priced from
// the reference table.
func (r *refTable) partition(bw float64) *Result {
	n := len(r.m.Layers)
	inputNode, src, sink := n, n+1, n+2
	g := newGraph(n + 3)
	inf := math.Inf(1)
	g.addArc(src, inputNode, inf)
	for i := 0; i < n; i++ {
		g.addArc(src, i, r.cloudMS[i])
		g.addArc(i, sink, r.edgeMS[i])
	}
	addDataArc := func(u, v, producer int) {
		t := r.est.Transfer.MS(r.bytes[producer+1], bw)
		if math.IsInf(t, 1) {
			t = 1e12
		}
		g.addArc(u, v, t)
		g.addArc(v, u, inf)
	}
	addDataArc(inputNode, 0, -1)
	for i := 0; i < n-1; i++ {
		addDataArc(i, i+1, i)
	}
	for j, l := range r.m.Layers {
		if refSkip(l, j) {
			addDataArc(l.SkipFrom, j, l.SkipFrom)
		}
	}
	g.maxflow(src, sink)
	side := g.minCutSourceSide(src)
	res := &Result{EdgeSide: append([]bool(nil), side[:n]...), Cut: -1}
	for i := 0; i < n && res.EdgeSide[i]; i++ {
		res.Cut = i
	}
	res.Latency = r.evaluate(res.EdgeSide, bw)
	return res
}

// edgeEnergy is the reference EdgeEnergy on a valid cut.
func (r *refTable) edgeEnergy(e latency.EnergyModel, cut int, transferMS, cloudMS float64) latency.EnergyBreakdown {
	per, _ := r.m.MACCsPerLayer()
	var edgeMACCs int64
	for i := 0; i <= cut; i++ {
		edgeMACCs += per[i]
	}
	b := latency.EnergyBreakdown{ComputeMJ: float64(edgeMACCs) * e.ComputeNJPerMACC / 1e6, BaseMJ: e.BaseMJ}
	if cut < len(r.m.Layers)-1 {
		b.RadioMJ = float64(r.bytes[cut+1]) / 1e6 * e.RadioMJPerMB
		b.IdleMJ = e.IdleMW * (transferMS + cloudMS) / 1e3
	}
	return b
}

// costPathModels is every zoo model at both input scales (the ImageNet
// ResNets carry projection skips), plus models exercising sparsity,
// quantisation, depthwise, Fire and projection-add pricing.
func costPathModels(t *testing.T) []*nn.Model {
	t.Helper()
	var models []*nn.Model
	for _, name := range []string{"VGG11", "VGG19", "AlexNet", "ResNet50", "ResNet101", "ResNet152"} {
		for _, in := range []struct {
			shape   nn.Shape
			classes int
		}{{nn.CIFARInput, nn.CIFARClasses}, {nn.ImageNetInput, 1000}} {
			m, err := nn.Zoo(name, in.shape, in.classes)
			if err != nil {
				t.Fatal(err)
			}
			models = append(models, m)
		}
	}
	compressed := nn.VGG11(nn.CIFARInput, nn.CIFARClasses)
	for i := range compressed.Layers {
		l := &compressed.Layers[i]
		switch {
		case l.Type == nn.Conv && i%2 == 0:
			l.Sparsity, l.Tag = 0.37, "F2"
		case l.HasWeights():
			l.Bits, l.Tag = 8, "Q1"
		}
	}
	kinds := &nn.Model{
		Name: "kinds", Input: nn.Shape{C: 16, H: 8, W: 8},
		Layers: []nn.Layer{
			nn.NewFire(16, 4, 32),
			nn.NewDepthwiseConv(32, 3, 1, 1),
			nn.NewConv(32, 32, 3, 2, 1),
			nn.NewProjAdd(0, 32, 32, 2),
			nn.NewConv(32, 32, 9, 1, 4),
			nn.NewAdd(3),
			nn.NewGlobalAvgPool(),
			nn.NewFlatten(),
			nn.NewFC(32, 10),
		},
	}
	return append(models, compressed, kinds)
}

func costPathEstimators(t *testing.T) []*latency.Estimator {
	t.Helper()
	var ests []*latency.Estimator
	for _, edge := range []latency.Device{latency.Phone(), latency.TX2()} {
		est, err := latency.NewEstimator(edge, latency.CloudServer(), latency.DefaultTransferModel())
		if err != nil {
			t.Fatal(err)
		}
		ests = append(ests, est)
	}
	return ests
}

// costPathMbps includes 0 Mbps, an outage.
var costPathMbps = []float64{0, 0.05, 1, 7.3, 20, 300}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameBreakdown(a, b latency.Breakdown) bool {
	return sameBits(a.EdgeMS, b.EdgeMS) && sameBits(a.TransferMS, b.TransferMS) && sameBits(a.CloudMS, b.CloudMS)
}

func TestCostPathBitIdenticalToPerLayerReference(t *testing.T) {
	energy := latency.DefaultPhoneEnergy()
	for _, est := range costPathEstimators(t) {
		for _, m := range costPathModels(t) {
			name := fmt.Sprintf("%s/%s/%s", est.Edge.Name, m.Name, m.Input)
			n := len(m.Layers)
			ref := newRefTable(t, m, est)
			// RangeMS: every single layer, prefix and suffix, on both devices.
			for _, edge := range []bool{true, false} {
				dev := est.Cloud
				if edge {
					dev = est.Edge
				}
				for i := 0; i < n; i++ {
					for _, r := range [][2]int{{i, i + 1}, {0, i}, {i, n}} {
						got, err := latency.RangeMS(m, r[0], r[1], dev)
						if err != nil {
							t.Fatal(err)
						}
						if want := ref.rangeMS(r[0], r[1], edge); !sameBits(got, want) {
							t.Fatalf("%s: RangeMS(%d,%d,%s) = %v, reference %v", name, r[0], r[1], dev.Name, got, want)
						}
					}
				}
			}
			for _, bw := range costPathMbps {
				got, err := Partition(m, est, bw)
				if err != nil {
					t.Fatal(err)
				}
				want := ref.partition(bw)
				if got.Cut != want.Cut || fmt.Sprint(got.EdgeSide) != fmt.Sprint(want.EdgeSide) ||
					!sameBreakdown(got.Latency, want.Latency) {
					t.Fatalf("%s at %v Mbps: Partition = cut %d %+v, reference cut %d %+v",
						name, bw, got.Cut, got.Latency, want.Cut, want.Latency)
				}
				// Evaluate on every clean cut, and on an alternating
				// assignment (cut -2) that splits skip connections.
				for cut := -2; cut < n; cut++ {
					side := make([]bool, n)
					for i := range side {
						side[i] = i <= cut || (cut == -2 && i%2 == 1)
					}
					gotB, err := Evaluate(m, side, est, bw)
					if err != nil {
						t.Fatal(err)
					}
					if wantB := ref.evaluate(side, bw); !sameBreakdown(gotB, wantB) {
						t.Fatalf("%s at %v Mbps: Evaluate(cut %d) = %+v, reference %+v", name, bw, cut, gotB, wantB)
					}
					if cut == -2 {
						continue
					}
					e2e, err := est.EndToEnd(m, cut, bw)
					if err != nil {
						t.Fatal(err)
					}
					wantE := latency.Breakdown{EdgeMS: ref.rangeMS(0, cut+1, true), CloudMS: ref.rangeMS(cut+1, n, false)}
					if cut < n-1 {
						wantE.TransferMS = est.Transfer.MS(ref.bytes[cut+1], bw)
					}
					if !sameBreakdown(e2e, wantE) {
						t.Fatalf("%s at %v Mbps: EndToEnd(cut %d) = %+v, reference %+v", name, bw, cut, e2e, wantE)
					}
					eb, err := energy.EdgeEnergy(m, cut, e2e.TransferMS, e2e.CloudMS)
					if err != nil {
						t.Fatal(err)
					}
					if want := ref.edgeEnergy(energy, cut, e2e.TransferMS, e2e.CloudMS); eb != want {
						t.Fatalf("%s at %v Mbps: EdgeEnergy(cut %d) = %+v, reference %+v", name, bw, cut, eb, want)
					}
				}
			}
		}
	}
}

func TestCostPathKeepsShapeErrors(t *testing.T) {
	est := newEstimator(t)
	m := nn.VGG11(nn.CIFARInput, nn.CIFARClasses)
	m.Layers[4].In = 7 // conv expects 7 channels, activation has 64
	_, want := m.InferDims()
	if want == nil {
		t.Fatal("broken model must fail shape inference")
	}
	n := len(m.Layers)
	errs := map[string]error{}
	_, errs["Partition"] = Partition(m, est, 10)
	_, errs["Evaluate"] = Evaluate(m, make([]bool, n), est, 10)
	_, errs["RangeMS"] = latency.RangeMS(m, 0, 1, est.Edge)
	_, errs["EndToEnd"] = est.EndToEnd(m, 2, 10)
	_, errs["EdgeEnergy"] = latency.DefaultPhoneEnergy().EdgeEnergy(m, 2, 1, 1)
	_, errs["FeatureBytes"] = m.FeatureBytes(0)
	_, errs["MACCsPerLayer"] = m.MACCsPerLayer()
	for fn, err := range errs {
		if err == nil || err.Error() != want.Error() {
			t.Errorf("%s error = %v, want %v", fn, err, want)
		}
	}
}

// partitionAllocCeiling bounds surgery.Partition(VGG11) allocations. With
// one cost table per call it allocates 13 times; pricing each layer with its
// own shape inference took over 400.
const partitionAllocCeiling = 20

func TestPartitionAllocs(t *testing.T) {
	est := newEstimator(t)
	m := nn.VGG11(nn.CIFARInput, nn.CIFARClasses)
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := Partition(m, est, 7.3); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > partitionAllocCeiling {
		t.Fatalf("Partition(VGG11) allocates %.0f times per call, ceiling %d", allocs, partitionAllocCeiling)
	}
	t.Logf("Partition(VGG11): %.0f allocs per call", allocs)
}

func BenchmarkPartition(b *testing.B) {
	est, err := latency.NewEstimator(latency.Phone(), latency.CloudServer(), latency.DefaultTransferModel())
	if err != nil {
		b.Fatal(err)
	}
	for _, m := range []*nn.Model{nn.VGG11(nn.CIFARInput, nn.CIFARClasses), nn.ResNet50(nn.ImageNetInput, 1000)} {
		b.Run(m.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Partition(m, est, 7.3); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
