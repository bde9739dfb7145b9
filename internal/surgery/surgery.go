package surgery

import (
	"fmt"
	"math"

	"cadmc/internal/latency"
	"cadmc/internal/nn"
)

// Result is an optimal partition of a fixed model at a constant bandwidth.
type Result struct {
	// EdgeSide[i] reports whether layer i runs on the edge device.
	EdgeSide []bool
	// Cut is the clean split point when the assignment is a prefix: the last
	// edge-side layer index, or -1 when everything runs on the cloud. For
	// non-prefix assignments (a skip connection split by the cut) Cut is the
	// last contiguous edge-side prefix layer.
	Cut int
	// Latency is the Eq. 3 breakdown of the chosen assignment.
	Latency latency.Breakdown
}

// Partition finds the minimum-latency edge/cloud assignment of m at the given
// bandwidth via min-cut on the DADS graph construction:
//
//   - arc S→v with capacity = cloud compute cost of layer v (paid if v is
//     assigned to the cloud),
//   - arc v→T with capacity = edge compute cost of v (paid if v stays on the
//     edge),
//   - arc u→v with capacity = transfer cost of u's output (paid if u is on
//     the edge and v on the cloud), with an ∞ reverse arc forbidding
//     cloud→edge backflow,
//   - a pinned input node whose outgoing arc carries the input-upload cost.
func Partition(m *nn.Model, est *latency.Estimator, bandwidthMbps float64) (*Result, error) {
	n := len(m.Layers)
	if n == 0 {
		return nil, fmt.Errorf("surgery: empty model")
	}
	p, err := newPricing(m, est)
	if err != nil {
		return nil, err
	}
	// Nodes: 0..n-1 layers, n = input holder, n+1 = source, n+2 = sink.
	inputNode, src, sink := n, n+1, n+2
	skips := 0
	for j := range m.Layers {
		if isSkipArc(&m.Layers[j], j) {
			skips++
		}
	}
	// Arcs: source→input, two compute arcs per layer, and a forward plus a
	// backflow arc per data edge (input→0, the n-1 chain links, the skips).
	g := newGraph(n + 3)
	g.reserve(1 + 2*n + 2*(n+skips))
	inf := math.Inf(1)
	g.addArc(src, inputNode, inf) // input data lives on the edge
	for i := 0; i < n; i++ {
		g.addArc(src, i, p.cloudMS[i])
		g.addArc(i, sink, p.edgeMS[i])
	}
	addDataArc := func(u, v int, bytes int64) {
		t := est.Transfer.MS(bytes, bandwidthMbps)
		if math.IsInf(t, 1) {
			// Outage: make offloading across this arc prohibitively
			// expensive but finite so max-flow terminates.
			t = 1e12
		}
		g.addArc(u, v, t)
		g.addArc(v, u, inf) // forbid cloud→edge backflow
	}
	inBytes, err := p.costs.FeatureBytes(-1)
	if err != nil {
		return nil, err
	}
	addDataArc(inputNode, 0, inBytes)
	for i := 0; i < n-1; i++ {
		bytes, err := p.costs.FeatureBytes(i)
		if err != nil {
			return nil, err
		}
		addDataArc(i, i+1, bytes)
	}
	for j := range m.Layers {
		if l := &m.Layers[j]; isSkipArc(l, j) {
			bytes, err := p.costs.FeatureBytes(l.SkipFrom)
			if err != nil {
				return nil, err
			}
			addDataArc(l.SkipFrom, j, bytes)
		}
	}
	g.maxflow(src, sink)
	side := g.minCutSourceSide(src)

	res := &Result{EdgeSide: side[:n:n], Cut: -1}
	for i := 0; i < n && res.EdgeSide[i]; i++ {
		res.Cut = i
	}
	res.Latency, err = p.evaluate(m, res.EdgeSide, est, bandwidthMbps)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// isSkipArc reports whether layer j is an Add whose skip source is not its
// direct predecessor, i.e. whether it adds a data edge beyond the chain.
func isSkipArc(l *nn.Layer, j int) bool {
	return l.Type == nn.Add && l.SkipFrom >= 0 && l.SkipFrom != j-1
}

// pricing is a model's cost table plus its per-layer compute latency on the
// edge and on the cloud: everything Partition and Evaluate price an
// assignment with, computed once per call.
type pricing struct {
	costs   *nn.Costs
	edgeMS  []float64
	cloudMS []float64
}

func newPricing(m *nn.Model, est *latency.Estimator) (*pricing, error) {
	c, err := m.Costs()
	if err != nil {
		return nil, err
	}
	return &pricing{
		costs:   c,
		edgeMS:  latency.PerLayerMS(m, c, est.Edge),
		cloudMS: latency.PerLayerMS(m, c, est.Cloud),
	}, nil
}

// Evaluate computes the Eq. 3 latency breakdown of an arbitrary edge/cloud
// assignment: edge compute + transfer of every activation crossing the cut +
// cloud compute. Crossing tensors are shipped back-to-back over one
// connection, so the RTT is paid once.
func Evaluate(m *nn.Model, edgeSide []bool, est *latency.Estimator, bandwidthMbps float64) (latency.Breakdown, error) {
	if len(edgeSide) != len(m.Layers) {
		return latency.Breakdown{}, fmt.Errorf("surgery: assignment length %d for %d layers", len(edgeSide), len(m.Layers))
	}
	p, err := newPricing(m, est)
	if err != nil {
		return latency.Breakdown{}, err
	}
	return p.evaluate(m, edgeSide, est, bandwidthMbps)
}

// evaluate is Evaluate on an already-priced model; edgeSide has one entry
// per layer.
func (p *pricing) evaluate(m *nn.Model, edgeSide []bool, est *latency.Estimator, bandwidthMbps float64) (latency.Breakdown, error) {
	n := len(m.Layers)
	var b latency.Breakdown
	for i := 0; i < n; i++ {
		if edgeSide[i] {
			b.EdgeMS += p.edgeMS[i]
		} else {
			b.CloudMS += p.cloudMS[i]
		}
	}
	var crossBytes int64
	addCross := func(producer int, consumerEdge bool) error {
		producerEdge := true
		if producer >= 0 {
			producerEdge = edgeSide[producer]
		}
		if producerEdge && !consumerEdge {
			bytes, err := p.costs.FeatureBytes(producer)
			if err != nil {
				return err
			}
			crossBytes += bytes
		}
		return nil
	}
	for i := 0; i < n; i++ {
		if err := addCross(i-1, edgeSide[i]); err != nil {
			return latency.Breakdown{}, err
		}
	}
	for j := range m.Layers {
		if l := &m.Layers[j]; isSkipArc(l, j) {
			if err := addCross(l.SkipFrom, edgeSide[j]); err != nil {
				return latency.Breakdown{}, err
			}
		}
	}
	if crossBytes > 0 {
		b.TransferMS = est.Transfer.MS(crossBytes, bandwidthMbps)
	}
	return b, nil
}

// OptimalChainCut enumerates every clean cut (including all-edge and
// all-cloud) and returns the latency-minimal one. On chain models this is the
// Neurosurgeon-style exact solution and must agree with Partition; it also
// serves as a cross-check oracle in tests.
func OptimalChainCut(m *nn.Model, est *latency.Estimator, bandwidthMbps float64) (int, latency.Breakdown, error) {
	n := len(m.Layers)
	cuts, err := m.CutPoints()
	if err != nil {
		return 0, latency.Breakdown{}, err
	}
	candidates := append([]int{-1}, cuts...)
	if len(cuts) == 0 || cuts[len(cuts)-1] != n-1 {
		candidates = append(candidates, n-1)
	}
	bestCut := n - 1
	best := latency.Breakdown{EdgeMS: math.Inf(1)}
	for _, c := range candidates {
		b, err := est.EndToEnd(m, c, bandwidthMbps)
		if err != nil {
			return 0, latency.Breakdown{}, err
		}
		if b.TotalMS() < best.TotalMS() {
			best = b
			bestCut = c
		}
	}
	return bestCut, best, nil
}
