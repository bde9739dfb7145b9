package nn

import (
	"encoding/json"
	"fmt"
	"strconv"
)

// BytesPerElement is the wire/storage width of one activation or weight
// element. Features are shipped to the cloud as float32.
const BytesPerElement = 4

// Shape is the extent of an activation: channels × height × width. Flattened
// activations are represented as C×1×1.
type Shape struct {
	C, H, W int
}

// Elems returns the number of elements in the shape.
func (s Shape) Elems() int { return s.C * s.H * s.W }

// Bytes returns the wire size of an activation with this shape.
func (s Shape) Bytes() int64 { return int64(s.Elems()) * BytesPerElement }

// String renders the shape as CxHxW.
func (s Shape) String() string { return fmt.Sprintf("%dx%dx%d", s.C, s.H, s.W) }

// Dims records the inferred input and output shapes of one layer.
type Dims struct {
	In, Out Shape
}

// Model is a DNN expressed as a layer sequence plus its input specification.
type Model struct {
	Name    string  `json:"name"`
	Input   Shape   `json:"input"`
	Classes int     `json:"classes"`
	Layers  []Layer `json:"layers"`
}

// Clone returns a deep copy of the model.
func (m *Model) Clone() *Model {
	c := *m
	c.Layers = make([]Layer, len(m.Layers))
	copy(c.Layers, m.Layers)
	return &c
}

// InferDims propagates shapes through the network, returning per-layer input
// and output shapes. It returns an error if any layer is inconsistent with
// its input (wrong channel count, empty spatial output, bad skip target).
func (m *Model) InferDims() ([]Dims, error) {
	dims := make([]Dims, len(m.Layers))
	cur := m.Input
	for i := range m.Layers {
		l := &m.Layers[i]
		dims[i].In = cur
		out, err := outputShape(l, cur, dims, i)
		if err != nil {
			return nil, fmt.Errorf("nn: model %q layer %d (%s): %w", m.Name, i, l.Type, err)
		}
		dims[i].Out = out
		cur = out
	}
	return dims, nil
}

func outputShape(l *Layer, in Shape, dims []Dims, idx int) (Shape, error) {
	switch l.Type {
	case Conv:
		if l.In != in.C {
			return Shape{}, fmt.Errorf("conv expects %d input channels, activation has %d", l.In, in.C)
		}
		h := (in.H+2*l.Padding-l.Kernel)/l.Stride + 1
		w := (in.W+2*l.Padding-l.Kernel)/l.Stride + 1
		if h <= 0 || w <= 0 {
			return Shape{}, fmt.Errorf("conv output %dx%d is empty (input %s)", h, w, in)
		}
		return Shape{C: l.Out, H: h, W: w}, nil
	case DepthwiseConv:
		if l.In != in.C || l.Out != in.C {
			return Shape{}, fmt.Errorf("depthwise conv channels %d/%d mismatch activation %d", l.In, l.Out, in.C)
		}
		h := (in.H+2*l.Padding-l.Kernel)/l.Stride + 1
		w := (in.W+2*l.Padding-l.Kernel)/l.Stride + 1
		if h <= 0 || w <= 0 {
			return Shape{}, fmt.Errorf("depthwise conv output %dx%d is empty", h, w)
		}
		return Shape{C: l.Out, H: h, W: w}, nil
	case Fire:
		if l.In != in.C {
			return Shape{}, fmt.Errorf("fire expects %d input channels, activation has %d", l.In, in.C)
		}
		if l.Squeeze <= 0 {
			return Shape{}, fmt.Errorf("fire squeeze width must be positive, got %d", l.Squeeze)
		}
		// Fire preserves spatial extent (1×1 squeeze, padded 3×3 expand).
		return Shape{C: l.Out, H: in.H, W: in.W}, nil
	case MaxPool, AvgPool:
		h := (in.H+2*l.Padding-l.Kernel)/l.Stride + 1
		w := (in.W+2*l.Padding-l.Kernel)/l.Stride + 1
		if h <= 0 || w <= 0 {
			return Shape{}, fmt.Errorf("pool output %dx%d is empty (input %s)", h, w, in)
		}
		return Shape{C: in.C, H: h, W: w}, nil
	case GlobalAvgPool:
		return Shape{C: in.C, H: 1, W: 1}, nil
	case ReLU, BatchNorm, Dropout:
		return in, nil
	case Flatten:
		return Shape{C: in.Elems(), H: 1, W: 1}, nil
	case FC:
		if in.H != 1 || in.W != 1 {
			return Shape{}, fmt.Errorf("fc requires flattened input, got %s", in)
		}
		if l.In != in.C {
			return Shape{}, fmt.Errorf("fc expects %d input features, activation has %d", l.In, in.C)
		}
		return Shape{C: l.Out, H: 1, W: 1}, nil
	case Add:
		if l.SkipFrom < 0 || l.SkipFrom >= idx {
			return Shape{}, fmt.Errorf("add skip source %d out of range [0,%d)", l.SkipFrom, idx)
		}
		src := dims[l.SkipFrom].Out
		if l.Out > 0 {
			// Projection shortcut: 1×1 stride-s conv on the skip path.
			if l.In != src.C {
				return Shape{}, fmt.Errorf("add projection expects %d skip channels, got %d", l.In, src.C)
			}
			src = Shape{C: l.Out, H: (src.H-1)/l.Stride + 1, W: (src.W-1)/l.Stride + 1}
		}
		if src != in {
			return Shape{}, fmt.Errorf("add operands mismatch: skip %s vs activation %s", src, in)
		}
		return in, nil
	default:
		return Shape{}, fmt.Errorf("unknown layer type %d", l.Type)
	}
}

// Validate checks structural consistency and that the final output matches
// the class count.
func (m *Model) Validate() error {
	if len(m.Layers) == 0 {
		return fmt.Errorf("nn: model %q has no layers", m.Name)
	}
	dims, err := m.InferDims()
	if err != nil {
		return err
	}
	last := dims[len(dims)-1].Out
	if m.Classes > 0 && (last.C != m.Classes || last.H != 1 || last.W != 1) {
		return fmt.Errorf("nn: model %q final output %s, want %dx1x1", m.Name, last, m.Classes)
	}
	return nil
}

// Normalize rewrites the redundant In fields (and DepthwiseConv Out fields)
// so that every layer is consistent with the activation flowing into it.
// Compression transforms call it after changing channel counts so the
// downstream layers track the new widths. The final FC's Out is never
// touched.
func (m *Model) Normalize() error {
	cur := m.Input
	dims := make([]Dims, len(m.Layers))
	for i := range m.Layers {
		l := &m.Layers[i]
		dims[i].In = cur
		switch l.Type {
		case Conv, Fire:
			l.In = cur.C
		case DepthwiseConv:
			l.In = cur.C
			l.Out = cur.C
		case FC:
			if cur.H != 1 || cur.W != 1 {
				return fmt.Errorf("nn: model %q layer %d: fc after unflattened activation %s", m.Name, i, cur)
			}
			l.In = cur.C
		}
		out, err := outputShape(l, cur, dims, i)
		if err != nil {
			return fmt.Errorf("nn: model %q layer %d (%s): %w", m.Name, i, l.Type, err)
		}
		dims[i].Out = out
		cur = out
	}
	return nil
}

// MACCsPerLayer returns the multiply-accumulate count of each layer following
// the paper's Eqs. 4–5: conv and FC layers dominate; batch-norm, pooling and
// dropout are counted as zero ("cost little time ... and can be ignored").
// KSVD sparsity scales effective MACCs by (1 − Sparsity).
func (m *Model) MACCsPerLayer() ([]int64, error) {
	c, err := m.Costs()
	if err != nil {
		return nil, err
	}
	// c is private to this call, so its slice can be handed out.
	return c.maccs, nil
}

func layerMACCs(l *Layer, d Dims) int64 {
	switch l.Type {
	case Conv:
		// Eq. 4: K·K·Cin·Cout·Hout·Wout.
		raw := int64(l.Kernel) * int64(l.Kernel) * int64(l.In) * int64(l.Out) *
			int64(d.Out.H) * int64(d.Out.W)
		return applySparsity(raw, l.Sparsity)
	case DepthwiseConv:
		// One filter per channel: K·K·C·Hout·Wout.
		return int64(l.Kernel) * int64(l.Kernel) * int64(l.Out) *
			int64(d.Out.H) * int64(d.Out.W)
	case FC:
		// Eq. 5: Cin·Cout.
		return applySparsity(int64(l.In)*int64(l.Out), l.Sparsity)
	case Fire:
		// Squeeze 1×1 (Cin→s) + expand 1×1 (s→e1) + expand 3×3 (s→e3),
		// with e1 + e3 = Out split evenly.
		hw := int64(d.Out.H) * int64(d.Out.W)
		s := int64(l.Squeeze)
		e1 := int64(l.Out / 2)
		e3 := int64(l.Out) - e1
		return hw * (int64(l.In)*s + s*e1 + 9*s*e3)
	case Add:
		if l.Out > 0 {
			// Projection shortcut conv: 1·1·Cin·Cout·Hout·Wout.
			return int64(l.In) * int64(l.Out) * int64(d.Out.H) * int64(d.Out.W)
		}
		return 0
	default:
		return 0
	}
}

func applySparsity(raw int64, sparsity float64) int64 {
	if sparsity <= 0 {
		return raw
	}
	if sparsity >= 1 {
		return 0
	}
	return int64(float64(raw) * (1 - sparsity))
}

// MACCs returns the total multiply-accumulate count of the model.
func (m *Model) MACCs() (int64, error) {
	per, err := m.MACCsPerLayer()
	if err != nil {
		return 0, err
	}
	var total int64
	for _, v := range per {
		total += v
	}
	return total, nil
}

// ParamsPerLayer returns the trainable parameter count of each layer
// (weights + biases; batch-norm counts scale and shift).
func (m *Model) ParamsPerLayer() ([]int64, error) {
	dims, err := m.InferDims()
	if err != nil {
		return nil, err
	}
	out := make([]int64, len(m.Layers))
	for i := range m.Layers {
		out[i] = layerParams(&m.Layers[i], dims[i])
	}
	return out, nil
}

func layerParams(l *Layer, d Dims) int64 {
	switch l.Type {
	case Conv:
		return applySparsity(int64(l.Kernel)*int64(l.Kernel)*int64(l.In)*int64(l.Out), l.Sparsity) + int64(l.Out)
	case DepthwiseConv:
		return int64(l.Kernel)*int64(l.Kernel)*int64(l.Out) + int64(l.Out)
	case FC:
		return applySparsity(int64(l.In)*int64(l.Out), l.Sparsity) + int64(l.Out)
	case Fire:
		s := int64(l.Squeeze)
		e1 := int64(l.Out / 2)
		e3 := int64(l.Out) - e1
		return int64(l.In)*s + s + s*e1 + e1 + 9*s*e3 + e3
	case BatchNorm:
		return 2 * int64(d.In.C)
	case Add:
		if l.Out > 0 {
			return int64(l.In)*int64(l.Out) + int64(l.Out)
		}
		return 0
	default:
		return 0
	}
}

// ParamBytes returns the model's storage footprint in bytes, honouring
// per-layer quantisation bit widths (full precision is 32 bits).
func (m *Model) ParamBytes() (int64, error) {
	per, err := m.ParamsPerLayer()
	if err != nil {
		return 0, err
	}
	var total int64
	for i, count := range per {
		bits := m.Layers[i].Bits
		if bits <= 0 {
			bits = 32
		}
		total += count * int64(bits) / 8
	}
	return total, nil
}

// Params returns the total trainable parameter count.
func (m *Model) Params() (int64, error) {
	per, err := m.ParamsPerLayer()
	if err != nil {
		return 0, err
	}
	var total int64
	for _, v := range per {
		total += v
	}
	return total, nil
}

// FeatureBytes returns the wire size of the activation produced by layer i —
// the number of bytes that must cross the network if the model is cut right
// after layer i. FeatureBytes(-1) is the input size.
func (m *Model) FeatureBytes(i int) (int64, error) {
	if i == -1 {
		return m.Input.Bytes(), nil
	}
	c, err := m.Costs()
	if err != nil {
		return 0, err
	}
	return c.FeatureBytes(i)
}

// FNV-1a 64-bit parameters (the hash/fnv constants).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnv1a(h uint64, b []byte) uint64 {
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime64
	}
	return h
}

// Hash returns a stable FNV-1a digest of the architecture (name excluded) —
// the key of the decision engine's memory pool. It hashes
// "CxHxW|classes|" and then "i:<Layer.String>;In;SkipFrom;" per layer,
// rendered into a stack buffer so the call does not allocate.
func (m *Model) Hash() uint64 {
	var buf [128]byte
	b := strconv.AppendInt(buf[:0], int64(m.Input.C), 10)
	b = append(b, 'x')
	b = strconv.AppendInt(b, int64(m.Input.H), 10)
	b = append(b, 'x')
	b = strconv.AppendInt(b, int64(m.Input.W), 10)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(m.Classes), 10)
	b = append(b, '|')
	h := fnv1a(fnvOffset64, b)
	for i := range m.Layers {
		l := &m.Layers[i]
		b = strconv.AppendInt(buf[:0], int64(i), 10)
		b = append(b, ':')
		b = l.appendString(b)
		b = append(b, ';')
		b = strconv.AppendInt(b, int64(l.In), 10)
		b = append(b, ';')
		b = strconv.AppendInt(b, int64(l.SkipFrom), 10)
		b = append(b, ';')
		h = fnv1a(h, b)
	}
	return h
}

// MarshalJSON implements json.Marshaler (the default struct encoding).
func (m *Model) MarshalJSON() ([]byte, error) {
	type alias Model
	return json.Marshal((*alias)(m))
}

// UnmarshalJSON implements json.Unmarshaler.
func (m *Model) UnmarshalJSON(data []byte) error {
	type alias Model
	if err := json.Unmarshal(data, (*alias)(m)); err != nil {
		return fmt.Errorf("nn: decode model: %w", err)
	}
	return nil
}
