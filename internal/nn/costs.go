package nn

import "fmt"

// Costs is the per-layer cost table of one model: every layer's inferred
// input/output shapes and its Eq. 4–5 MACC count. Model.Costs builds it in a
// single shape-inference pass, and every cost query — MACCsPerLayer,
// FeatureBytes, the latency estimator, DNN surgery — reads it instead of
// re-running inference per layer. A Costs is immutable and describes the
// model as it was when the table was built; mutate the model and build a new
// one.
type Costs struct {
	input Shape
	dims  []Dims
	maccs []int64
}

// Costs builds the model's cost table. It fails with the InferDims error when
// any layer is inconsistent with its input.
func (m *Model) Costs() (*Costs, error) {
	dims, err := m.InferDims()
	if err != nil {
		return nil, err
	}
	maccs := make([]int64, len(dims))
	for i := range m.Layers {
		maccs[i] = layerMACCs(&m.Layers[i], dims[i])
	}
	return &Costs{input: m.Input, dims: dims, maccs: maccs}, nil
}

// Len returns the number of layers in the table.
func (c *Costs) Len() int { return len(c.dims) }

// Dims returns layer i's inferred input and output shapes.
func (c *Costs) Dims(i int) Dims { return c.dims[i] }

// MACCs returns layer i's multiply-accumulate count (see MACCsPerLayer).
func (c *Costs) MACCs(i int) int64 { return c.maccs[i] }

// FeatureBytes returns the wire size of the activation produced by layer i;
// FeatureBytes(-1) is the input size (see Model.FeatureBytes).
func (c *Costs) FeatureBytes(i int) (int64, error) {
	if i == -1 {
		return c.input.Bytes(), nil
	}
	if i < 0 || i >= len(c.dims) {
		return 0, fmt.Errorf("nn: feature index %d out of range [−1,%d)", i, len(c.dims))
	}
	return c.dims[i].Out.Bytes(), nil
}
