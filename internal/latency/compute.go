package latency

import (
	"fmt"
	"math"

	"cadmc/internal/nn"
)

// LayerMS returns the estimated computational latency in milliseconds of
// layer i of m on dev.
func LayerMS(m *nn.Model, i int, dev Device) (float64, error) {
	c, err := m.Costs()
	if err != nil {
		return 0, err
	}
	if i < 0 || i >= c.Len() {
		return 0, fmt.Errorf("latency: layer %d out of range", i)
	}
	return costMS(m, c, i, &dev), nil
}

// PerLayerMS returns the estimated computational latency in milliseconds of
// every layer of m on dev, read from c, which must be m's cost table
// (m.Costs()). Element i equals RangeMS(m, i, i+1, dev) bit for bit.
func PerLayerMS(m *nn.Model, c *nn.Costs, dev Device) []float64 {
	out := make([]float64, c.Len())
	for i := range out {
		out[i] = costMS(m, c, i, &dev)
	}
	return out
}

// costMS is layer i's latency on dev, read from m's cost table c.
func costMS(m *nn.Model, c *nn.Costs, i int, dev *Device) float64 {
	return layerMS(&m.Layers[i], c.MACCs(i), dev, c.Dims(i).Out)
}

func layerMS(l *nn.Layer, maccs int64, dev *Device, out nn.Shape) float64 {
	spatial := false
	var coeff float64
	switch l.Type {
	case nn.Conv:
		coeff = dev.convCoeff(l.Kernel)
		spatial = true
	case nn.DepthwiseConv:
		coeff = dev.convCoeff(l.Kernel)
		if dev.DepthwiseInefficiency > 1 {
			coeff *= dev.DepthwiseInefficiency
		}
		spatial = true
	case nn.Fire:
		// Fire is 1×1- and 3×3-conv work; use the blended 3×3 coefficient.
		coeff = dev.convCoeff(3)
		spatial = true
	case nn.FC:
		coeff = dev.FCCoeffNS
	case nn.Add:
		// An identity add is free; a projection shortcut is a 1×1 conv.
		if l.Out <= 0 || maccs == 0 {
			return 0
		}
		coeff = dev.convCoeff(1)
		spatial = true
	default:
		// Pooling, normalisation, activation, dropout: negligible per the
		// paper's measurements ("cost little time ... and can be ignored");
		// batch-norm folds into the preceding convolution on real runtimes.
		return 0
	}
	if spatial && dev.SmallMapPixels > 0 {
		hw := float64(out.H * out.W)
		if hw > 0 {
			coeff *= 1 + math.Sqrt(dev.SmallMapPixels/hw)
		}
	}
	if l.Bits > 0 && l.Bits < 32 {
		// Quantised kernels run on integer SIMD paths; int8 is ≈2.2×
		// faster than float32 on mobile CPUs.
		coeff *= 0.45
	}
	return (coeff*float64(maccs) + dev.LayerOverheadNS) / 1e6
}

// RangeMS returns the summed computational latency in milliseconds of layers
// [from, to) of m on dev. An empty range costs zero. The per-layer terms are
// added in layer order, so the result equals the in-order sum of PerLayerMS
// over the same range bit for bit.
func RangeMS(m *nn.Model, from, to int, dev Device) (float64, error) {
	if from < 0 || to > len(m.Layers) || from > to {
		return 0, fmt.Errorf("latency: range [%d,%d) invalid for %d layers", from, to, len(m.Layers))
	}
	c, err := m.Costs()
	if err != nil {
		return 0, err
	}
	return sumMS(m, c, from, to, &dev), nil
}

// sumMS is RangeMS over an already-built cost table.
func sumMS(m *nn.Model, c *nn.Costs, from, to int, dev *Device) float64 {
	total := 0.0
	for i := from; i < to; i++ {
		total += costMS(m, c, i, dev)
	}
	return total
}

// ModelMS returns the full-model computational latency in milliseconds.
func ModelMS(m *nn.Model, dev Device) (float64, error) {
	return RangeMS(m, 0, len(m.Layers), dev)
}
