package nn

import (
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"

	"cadmc/internal/parallel"
	"cadmc/internal/tensor"
)

// Net is a weight-carrying, executable instantiation of a Model. Every layer
// kind the substrate can describe is executable — Conv, DepthwiseConv, FC,
// ReLU, MaxPool, GlobalAvgPool, Flatten, Dropout (an inference no-op),
// BatchNorm (as a frozen per-channel affine), residual Add (with optional
// 1×1 projection), and SqueezeNet Fire — with explicit forward and backward
// passes and SGD. This is what grounds the accuracy oracle and powers the
// serving substrate: compressed structures (C1/C2/C3 outputs) and residual
// networks really run and really train.
type Net struct {
	Model   *Model
	Weights []*tensor.Tensor // nil for weight-free layers
	Biases  []*tensor.Tensor
	// FireAt holds the composite parameters of Fire layers, keyed by layer
	// index.
	FireAt map[int]*FireParams

	// plan is the inference executor's per-Net liveness and workspace pool,
	// built on the first ForwardRange (infer.go).
	plan atomic.Pointer[inferPlan]
}

// FireParams holds a Fire module's three convolutions: a 1×1 squeeze and the
// parallel 1×1 / 3×3 expands whose outputs concatenate.
type FireParams struct {
	SqueezeW, SqueezeB *tensor.Tensor // [s, Cin], [s]
	E1W, E1B           *tensor.Tensor // [e1, s], [e1]
	E3W, E3B           *tensor.Tensor // [e3, 9s], [e3]
}

func newFireParams(l Layer, rng *rand.Rand) *FireParams {
	s := l.Squeeze
	e1 := l.Out / 2
	e3 := l.Out - e1
	return &FireParams{
		SqueezeW: tensor.Randn(rng, math.Sqrt(2/float64(l.In)), s, l.In),
		SqueezeB: tensor.New(s),
		E1W:      tensor.Randn(rng, math.Sqrt(2/float64(s)), e1, s),
		E1B:      tensor.New(e1),
		E3W:      tensor.Randn(rng, math.Sqrt(2/float64(9*s)), e3, 9*s),
		E3B:      tensor.New(e3),
	}
}

func zeroFireParams(p *FireParams) *FireParams {
	return &FireParams{
		SqueezeW: tensor.New(p.SqueezeW.Shape...),
		SqueezeB: tensor.New(p.SqueezeB.Shape...),
		E1W:      tensor.New(p.E1W.Shape...),
		E1B:      tensor.New(p.E1B.Shape...),
		E3W:      tensor.New(p.E3W.Shape...),
		E3B:      tensor.New(p.E3B.Shape...),
	}
}

// NewNet allocates a network with He-initialised weights. BatchNorm starts
// as the identity affine; Add projections are He-initialised 1×1 convs.
func NewNet(m *Model, rng *rand.Rand) (*Net, error) {
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("nn: new net: %w", err)
	}
	dims, err := m.InferDims()
	if err != nil {
		return nil, err
	}
	n := &Net{
		Model:   m,
		Weights: make([]*tensor.Tensor, len(m.Layers)),
		Biases:  make([]*tensor.Tensor, len(m.Layers)),
		FireAt:  make(map[int]*FireParams),
	}
	for i, l := range m.Layers {
		switch l.Type {
		case Conv:
			fanIn := l.Kernel * l.Kernel * l.In
			std := math.Sqrt(2 / float64(fanIn))
			n.Weights[i] = tensor.Randn(rng, std, l.Out, fanIn)
			n.Biases[i] = tensor.New(l.Out)
		case DepthwiseConv:
			fanIn := l.Kernel * l.Kernel
			std := math.Sqrt(2 / float64(fanIn))
			n.Weights[i] = tensor.Randn(rng, std, l.Out, fanIn)
			n.Biases[i] = tensor.New(l.Out)
		case FC:
			std := math.Sqrt(2 / float64(l.In))
			n.Weights[i] = tensor.Randn(rng, std, l.Out, l.In)
			n.Biases[i] = tensor.New(l.Out)
		case BatchNorm:
			c := dims[i].In.C
			gamma := tensor.New(c)
			for j := range gamma.Data {
				gamma.Data[j] = 1
			}
			n.Weights[i] = gamma
			n.Biases[i] = tensor.New(c)
		case Add:
			if l.Out > 0 { // projection shortcut
				std := math.Sqrt(2 / float64(l.In))
				n.Weights[i] = tensor.Randn(rng, std, l.Out, l.In)
				n.Biases[i] = tensor.New(l.Out)
			}
		case Fire:
			n.FireAt[i] = newFireParams(l, rng)
		case ReLU, MaxPool, GlobalAvgPool, Flatten, Dropout:
			// No parameters.
		default:
			return nil, fmt.Errorf("nn: layer type %s not executable", l.Type)
		}
	}
	return n, nil
}

// forwardCache holds per-layer activations for the backward pass.
type forwardCache struct {
	inputs []*tensor.Tensor // input to each layer (== output of the previous)
	pools  [][]int          // argmax maps for MaxPool layers
	fires  map[int]*fireCache
	output *tensor.Tensor
}

type fireCache struct {
	pre, act *tensor.Tensor // squeeze pre-activation and post-ReLU
}

// Forward runs one C×H×W input through the network, returning the logits.
func (n *Net) Forward(x *tensor.Tensor) (*tensor.Tensor, error) {
	cache, err := n.forward(x)
	if err != nil {
		return nil, err
	}
	return cache.output, nil
}

// ForwardFrom runs layers [from, end) on an activation produced by layer
// from-1 — the cloud half of a partitioned inference. ForwardFrom(x, 0)
// equals Forward(x) bit for bit. Residual adds whose skip source lies before
// `from` cannot execute (the activation never crossed the network); legal
// cut points never produce that situation.
func (n *Net) ForwardFrom(x *tensor.Tensor, from int) (*tensor.Tensor, error) {
	return n.ForwardRange(x, from, len(n.Model.Layers))
}

// ForwardRange runs layers [from, to), returning the resulting activation —
// the edge half of a partitioned inference when to < len(layers). It is the
// inference executor (infer.go) on a batch of one: x is never written, and
// the result is fresh memory (an empty range returns x itself),
// bit-identical to what Forward computes for the same layers.
func (n *Net) ForwardRange(x *tensor.Tensor, from, to int) (*tensor.Tensor, error) {
	ys, err := n.infer([]*tensor.Tensor{x}, from, to)
	if err != nil {
		return nil, err
	}
	return ys[0], nil
}

// layerResult carries one layer's forward outputs.
type layerResult struct {
	out  *tensor.Tensor
	pool []int      // MaxPool argmax
	fire *fireCache // Fire intermediates
}

// applyLayer executes one layer. skip resolves a residual source activation
// (the output of an earlier layer).
func (n *Net) applyLayer(i int, cur *tensor.Tensor, skip func(int) (*tensor.Tensor, error)) (layerResult, error) {
	l := n.Model.Layers[i]
	switch l.Type {
	case Conv:
		cs := tensor.ConvShape{
			InC: l.In, InH: cur.Shape[1], InW: cur.Shape[2],
			OutC: l.Out, Kernel: l.Kernel, Stride: l.Stride, Padding: l.Padding,
		}
		out, err := tensor.Conv2D(cur, n.Weights[i], n.Biases[i], cs)
		return layerResult{out: out}, err
	case DepthwiseConv:
		out, err := n.depthwiseForward(i, l, cur)
		return layerResult{out: out}, err
	case FC:
		out, err := fcForward(n.Weights[i], n.Biases[i], cur)
		return layerResult{out: out}, err
	case ReLU:
		out := cur.Clone()
		for j, v := range out.Data {
			if v < 0 {
				out.Data[j] = 0
			}
		}
		return layerResult{out: out}, nil
	case MaxPool:
		out, arg, err := tensor.MaxPool2D(cur, l.Kernel, l.Stride)
		return layerResult{out: out, pool: arg}, err
	case GlobalAvgPool:
		v, err := tensor.GlobalAvgPool(cur)
		if err != nil {
			return layerResult{}, err
		}
		out, err := v.Reshape(v.Len(), 1, 1)
		return layerResult{out: out}, err
	case Flatten:
		out, err := cur.Reshape(cur.Len(), 1, 1)
		return layerResult{out: out}, err
	case Dropout:
		return layerResult{out: cur}, nil
	case BatchNorm:
		out, err := n.batchNormForward(i, cur)
		return layerResult{out: out}, err
	case Add:
		src, err := skip(l.SkipFrom)
		if err != nil {
			return layerResult{}, err
		}
		if src == nil {
			return layerResult{}, fmt.Errorf("skip source %d unavailable", l.SkipFrom)
		}
		out, err := n.addForward(i, l, cur, src)
		return layerResult{out: out}, err
	case Fire:
		out, fc, err := n.fireForward(i, l, cur)
		return layerResult{out: out, fire: fc}, err
	default:
		return layerResult{}, fmt.Errorf("layer type %s not executable", l.Type)
	}
}

func (n *Net) forward(x *tensor.Tensor) (*forwardCache, error) {
	cache := &forwardCache{
		inputs: make([]*tensor.Tensor, len(n.Model.Layers)),
		pools:  make([][]int, len(n.Model.Layers)),
		fires:  make(map[int]*fireCache),
	}
	outs := make([]*tensor.Tensor, len(n.Model.Layers))
	cur := x
	for i, l := range n.Model.Layers {
		cache.inputs[i] = cur
		res, err := n.applyLayer(i, cur, func(src int) (*tensor.Tensor, error) { return outs[src], nil })
		if err != nil {
			return nil, fmt.Errorf("nn: forward layer %d (%s): %w", i, l.Type, err)
		}
		cache.pools[i] = res.pool
		if res.fire != nil {
			cache.fires[i] = res.fire
		}
		outs[i] = res.out
		cur = res.out
	}
	cache.output = cur
	return cache, nil
}

// batchNormForward applies the frozen-affine normalisation y = γ_c·x + β_c.
// (Per-sample training cannot estimate batch statistics, so the substrate
// treats BN as its inference-time affine form.)
func (n *Net) batchNormForward(i int, x *tensor.Tensor) (*tensor.Tensor, error) {
	c := n.Weights[i].Len()
	if len(x.Shape) != 3 || x.Shape[0] != c {
		return nil, fmt.Errorf("batchnorm expects %d channels, got shape %v", c, x.Shape)
	}
	out := tensor.New(x.Shape...)
	hw := x.Shape[1] * x.Shape[2]
	for ch := 0; ch < c; ch++ {
		g, b := n.Weights[i].Data[ch], n.Biases[i].Data[ch]
		src := x.Data[ch*hw : (ch+1)*hw]
		dst := out.Data[ch*hw : (ch+1)*hw]
		for j, v := range src {
			dst[j] = g*v + b
		}
	}
	return out, nil
}

// addForward computes cur + skip (optionally projecting the skip through a
// strided 1×1 convolution).
func (n *Net) addForward(i int, l Layer, cur, src *tensor.Tensor) (*tensor.Tensor, error) {
	skipVal := src
	if l.Out > 0 {
		cs := tensor.ConvShape{
			InC: l.In, InH: src.Shape[1], InW: src.Shape[2],
			OutC: l.Out, Kernel: 1, Stride: l.Stride, Padding: 0,
		}
		proj, err := tensor.Conv2D(src, n.Weights[i], n.Biases[i], cs)
		if err != nil {
			return nil, err
		}
		skipVal = proj
	}
	if len(skipVal.Data) != len(cur.Data) {
		return nil, fmt.Errorf("add operands mismatch: %v vs %v", skipVal.Shape, cur.Shape)
	}
	out := cur.Clone()
	for j, v := range skipVal.Data {
		out.Data[j] += v
	}
	return out, nil
}

// fireForward runs squeeze(1×1)+ReLU, then the parallel 1×1 and 3×3 expands,
// concatenated along channels.
func (n *Net) fireForward(i int, l Layer, x *tensor.Tensor) (*tensor.Tensor, *fireCache, error) {
	p := n.FireAt[i]
	if p == nil {
		return nil, nil, fmt.Errorf("fire parameters missing at layer %d", i)
	}
	h, w := x.Shape[1], x.Shape[2]
	s := l.Squeeze
	csS := tensor.ConvShape{InC: l.In, InH: h, InW: w, OutC: s, Kernel: 1, Stride: 1}
	pre, err := tensor.Conv2D(x, p.SqueezeW, p.SqueezeB, csS)
	if err != nil {
		return nil, nil, err
	}
	act := pre.Clone()
	for j, v := range act.Data {
		if v < 0 {
			act.Data[j] = 0
		}
	}
	e1 := l.Out / 2
	e3 := l.Out - e1
	cs1 := tensor.ConvShape{InC: s, InH: h, InW: w, OutC: e1, Kernel: 1, Stride: 1}
	out1, err := tensor.Conv2D(act, p.E1W, p.E1B, cs1)
	if err != nil {
		return nil, nil, err
	}
	cs3 := tensor.ConvShape{InC: s, InH: h, InW: w, OutC: e3, Kernel: 3, Stride: 1, Padding: 1}
	out3, err := tensor.Conv2D(act, p.E3W, p.E3B, cs3)
	if err != nil {
		return nil, nil, err
	}
	out := tensor.New(l.Out, h, w)
	copy(out.Data[:e1*h*w], out1.Data)
	copy(out.Data[e1*h*w:], out3.Data)
	return out, &fireCache{pre: pre, act: act}, nil
}

func (n *Net) depthwiseForward(i int, l Layer, x *tensor.Tensor) (*tensor.Tensor, error) {
	h, w := x.Shape[1], x.Shape[2]
	outH := (h+2*l.Padding-l.Kernel)/l.Stride + 1
	outW := (w+2*l.Padding-l.Kernel)/l.Stride + 1
	if outH <= 0 || outW <= 0 {
		return nil, fmt.Errorf("depthwise output empty")
	}
	out := tensor.New(l.Out, outH, outW)
	for c := 0; c < l.Out; c++ {
		chanIn, err := tensor.FromSlice(x.Data[c*h*w:(c+1)*h*w], 1, h, w)
		if err != nil {
			return nil, err
		}
		cs := tensor.ConvShape{InC: 1, InH: h, InW: w, OutC: 1, Kernel: l.Kernel, Stride: l.Stride, Padding: l.Padding}
		wRow, err := tensor.FromSlice(n.Weights[i].Data[c*l.Kernel*l.Kernel:(c+1)*l.Kernel*l.Kernel], 1, l.Kernel*l.Kernel)
		if err != nil {
			return nil, err
		}
		res, err := tensor.Conv2D(chanIn, wRow, nil, cs)
		if err != nil {
			return nil, err
		}
		b := n.Biases[i].Data[c]
		dst := out.Data[c*outH*outW : (c+1)*outH*outW]
		for j, v := range res.Data {
			dst[j] = v + b
		}
	}
	return out, nil
}

func fcForward(w, b, x *tensor.Tensor) (*tensor.Tensor, error) {
	out, in := w.Shape[0], w.Shape[1]
	if x.Len() != in {
		return nil, fmt.Errorf("fc input len %d, want %d", x.Len(), in)
	}
	y := tensor.New(out, 1, 1)
	// Row-partitioned matvec: each output neuron's dot product is computed
	// whole by one executor, so the summation order matches the serial loop
	// exactly at any worker count.
	parallel.For(out, parallel.Grain(out, 2*in), func(lo, hi int) {
		for o := lo; o < hi; o++ {
			row := w.Data[o*in : (o+1)*in]
			s := b.Data[o]
			for j, v := range x.Data {
				s += row[j] * v
			}
			y.Data[o] = s
		}
	})
	return y, nil
}

// Grads accumulates parameter gradients across a mini-batch.
type Grads struct {
	Weights []*tensor.Tensor
	Biases  []*tensor.Tensor
	FireAt  map[int]*FireParams
}

// NewGrads allocates zeroed gradient storage matching the network.
func (n *Net) NewGrads() *Grads {
	g := &Grads{
		Weights: make([]*tensor.Tensor, len(n.Weights)),
		Biases:  make([]*tensor.Tensor, len(n.Biases)),
		FireAt:  make(map[int]*FireParams),
	}
	for i, w := range n.Weights {
		if w != nil {
			g.Weights[i] = tensor.New(w.Shape...)
			g.Biases[i] = tensor.New(n.Biases[i].Shape...)
		}
	}
	for i, p := range n.FireAt {
		g.FireAt[i] = zeroFireParams(p)
	}
	return g
}

// backward accumulates gradients for one sample given the gradient of the
// loss with respect to the logits. Gradients are routed per layer output, so
// residual skips accumulate correctly.
func (n *Net) backward(cache *forwardCache, gradOut *tensor.Tensor, g *Grads) error {
	numLayers := len(n.Model.Layers)
	// outGrad[i] = gradient w.r.t. the output of layer i.
	outGrad := make([]*tensor.Tensor, numLayers)
	outGrad[numLayers-1] = gradOut
	accumulate := func(slot int, grad *tensor.Tensor) error {
		if outGrad[slot] == nil {
			outGrad[slot] = grad.Clone()
			return nil
		}
		return outGrad[slot].AddInPlace(grad)
	}
	for i := numLayers - 1; i >= 0; i-- {
		l := n.Model.Layers[i]
		in := cache.inputs[i]
		grad := outGrad[i]
		if grad == nil {
			// No gradient flows to this layer's output (dead sub-path).
			continue
		}
		var gin *tensor.Tensor
		var err error
		switch l.Type {
		case Conv:
			gin, err = n.convBackward(i, l, in, grad, g)
		case DepthwiseConv:
			gin, err = n.depthwiseBackward(i, l, in, grad, g)
		case FC:
			gin, err = fcBackward(n.Weights[i], in, grad, g.Weights[i], g.Biases[i])
		case ReLU:
			gin = grad.Clone()
			for j := range gin.Data {
				if in.Data[j] <= 0 {
					gin.Data[j] = 0
				}
			}
		case MaxPool:
			gin, err = tensor.MaxPool2DBackward(grad, cache.pools[i], in.Shape)
		case GlobalAvgPool:
			c, h, w := in.Shape[0], in.Shape[1], in.Shape[2]
			gin = tensor.New(c, h, w)
			hw := float64(h * w)
			for ch := 0; ch < c; ch++ {
				gv := grad.Data[ch] / hw
				seg := gin.Data[ch*h*w : (ch+1)*h*w]
				for j := range seg {
					seg[j] = gv
				}
			}
		case Flatten:
			gin, err = grad.Reshape(in.Shape...)
		case Dropout:
			gin = grad
		case BatchNorm:
			gin, err = n.batchNormBackward(i, in, grad, g)
		case Add:
			var gskip *tensor.Tensor
			gin, gskip, err = n.addBackward(i, l, cache, grad, g)
			if err == nil {
				if aerr := accumulate(l.SkipFrom, gskip); aerr != nil {
					err = aerr
				}
			}
		case Fire:
			gin, err = n.fireBackward(i, l, in, cache.fires[i], grad, g)
		default:
			err = fmt.Errorf("layer type %s not executable", l.Type)
		}
		if err != nil {
			return fmt.Errorf("nn: backward layer %d (%s): %w", i, l.Type, err)
		}
		if i > 0 {
			if err := accumulate(i-1, gin); err != nil {
				return fmt.Errorf("nn: backward layer %d (%s): %w", i, l.Type, err)
			}
		}
	}
	return nil
}

func (n *Net) batchNormBackward(i int, in, gradOut *tensor.Tensor, g *Grads) (*tensor.Tensor, error) {
	c := n.Weights[i].Len()
	if len(in.Shape) != 3 || in.Shape[0] != c {
		return nil, fmt.Errorf("batchnorm backward shape mismatch")
	}
	hw := in.Shape[1] * in.Shape[2]
	gin := tensor.New(in.Shape...)
	for ch := 0; ch < c; ch++ {
		gamma := n.Weights[i].Data[ch]
		var gGamma, gBeta float64
		for j := 0; j < hw; j++ {
			idx := ch*hw + j
			gv := gradOut.Data[idx]
			gGamma += gv * in.Data[idx]
			gBeta += gv
			gin.Data[idx] = gv * gamma
		}
		g.Weights[i].Data[ch] += gGamma
		g.Biases[i].Data[ch] += gBeta
	}
	return gin, nil
}

// addBackward returns the gradient for the chain operand and the skip
// operand (through the projection, when present).
func (n *Net) addBackward(i int, l Layer, cache *forwardCache, gradOut *tensor.Tensor, g *Grads) (*tensor.Tensor, *tensor.Tensor, error) {
	gin := gradOut // identity path
	if l.Out == 0 {
		return gin, gradOut, nil
	}
	// Projection path: backprop the 1×1 strided conv applied to the skip
	// source (the output of layer SkipFrom = the input of layer SkipFrom+1).
	src := cache.inputs[l.SkipFrom+1]
	cs := tensor.ConvShape{
		InC: l.In, InH: src.Shape[1], InW: src.Shape[2],
		OutC: l.Out, Kernel: 1, Stride: l.Stride, Padding: 0,
	}
	gskip, err := convBackwardGeneric(src, n.Weights[i], gradOut, cs, g.Weights[i], g.Biases[i])
	if err != nil {
		return nil, nil, err
	}
	return gin, gskip, nil
}

// fireBackward backpropagates through the concat, the two expands, the
// squeeze ReLU and the squeeze conv.
func (n *Net) fireBackward(i int, l Layer, in *tensor.Tensor, fc *fireCache, gradOut *tensor.Tensor, g *Grads) (*tensor.Tensor, error) {
	if fc == nil {
		return nil, fmt.Errorf("fire cache missing")
	}
	p := n.FireAt[i]
	gp := g.FireAt[i]
	h, w := in.Shape[1], in.Shape[2]
	s := l.Squeeze
	e1 := l.Out / 2
	e3 := l.Out - e1
	g1, err := tensor.FromSlice(gradOut.Data[:e1*h*w], e1, h, w)
	if err != nil {
		return nil, err
	}
	g3, err := tensor.FromSlice(gradOut.Data[e1*h*w:], e3, h, w)
	if err != nil {
		return nil, err
	}
	cs1 := tensor.ConvShape{InC: s, InH: h, InW: w, OutC: e1, Kernel: 1, Stride: 1}
	gAct1, err := convBackwardGeneric(fc.act, p.E1W, g1, cs1, gp.E1W, gp.E1B)
	if err != nil {
		return nil, err
	}
	cs3 := tensor.ConvShape{InC: s, InH: h, InW: w, OutC: e3, Kernel: 3, Stride: 1, Padding: 1}
	gAct3, err := convBackwardGeneric(fc.act, p.E3W, g3, cs3, gp.E3W, gp.E3B)
	if err != nil {
		return nil, err
	}
	if err := gAct1.AddInPlace(gAct3); err != nil {
		return nil, err
	}
	// Squeeze ReLU.
	for j := range gAct1.Data {
		if fc.pre.Data[j] <= 0 {
			gAct1.Data[j] = 0
		}
	}
	csS := tensor.ConvShape{InC: l.In, InH: h, InW: w, OutC: s, Kernel: 1, Stride: 1}
	return convBackwardGeneric(in, p.SqueezeW, gAct1, csS, gp.SqueezeW, gp.SqueezeB)
}

// convBackwardGeneric backpropagates a convolution given its input, weights
// and output gradient, accumulating into gw/gb and returning the input
// gradient. All five transient matrices — the unfolded columns, both
// transposes, the weight-gradient delta and the column gradient — come from
// the scratch arena, so a steady training loop reuses the same buffers
// every step instead of allocating them.
func convBackwardGeneric(in, weights, gradOut *tensor.Tensor, cs tensor.ConvShape, gw, gb *tensor.Tensor) (*tensor.Tensor, error) {
	outH, outW := cs.OutHW()
	hw := outH * outW
	kk := cs.InC * cs.Kernel * cs.Kernel
	cols := tensor.Scratch(kk, hw)
	defer tensor.Release(cols)
	if err := tensor.Im2ColInto(in, cs, cols); err != nil {
		return nil, err
	}
	grad2d, err := gradOut.Reshape(cs.OutC, hw)
	if err != nil {
		return nil, err
	}
	colsT := tensor.Scratch(hw, kk)
	defer tensor.Release(colsT)
	if err := tensor.TransposeInto(cols, colsT); err != nil {
		return nil, err
	}
	gwDelta := tensor.Scratch(cs.OutC, kk)
	defer tensor.Release(gwDelta)
	if err := tensor.MatMulInto(grad2d, colsT, gwDelta); err != nil {
		return nil, err
	}
	if err := gw.AddInPlace(gwDelta); err != nil {
		return nil, err
	}
	for c := 0; c < cs.OutC; c++ {
		s := 0.0
		for _, v := range grad2d.Data[c*hw : (c+1)*hw] {
			s += v
		}
		gb.Data[c] += s
	}
	wT := tensor.Scratch(kk, cs.OutC)
	defer tensor.Release(wT)
	if err := tensor.TransposeInto(weights, wT); err != nil {
		return nil, err
	}
	gcols := tensor.Scratch(kk, hw)
	defer tensor.Release(gcols)
	if err := tensor.MatMulInto(wT, grad2d, gcols); err != nil {
		return nil, err
	}
	return tensor.Col2Im(gcols, cs)
}

func (n *Net) convBackward(i int, l Layer, in, gradOut *tensor.Tensor, g *Grads) (*tensor.Tensor, error) {
	cs := tensor.ConvShape{
		InC: l.In, InH: in.Shape[1], InW: in.Shape[2],
		OutC: l.Out, Kernel: l.Kernel, Stride: l.Stride, Padding: l.Padding,
	}
	return convBackwardGeneric(in, n.Weights[i], gradOut, cs, g.Weights[i], g.Biases[i])
}

func (n *Net) depthwiseBackward(i int, l Layer, in, gradOut *tensor.Tensor, g *Grads) (*tensor.Tensor, error) {
	h, w := in.Shape[1], in.Shape[2]
	outH := (h+2*l.Padding-l.Kernel)/l.Stride + 1
	outW := (w+2*l.Padding-l.Kernel)/l.Stride + 1
	gin := tensor.New(l.In, h, w)
	kk := l.Kernel * l.Kernel
	for c := 0; c < l.Out; c++ {
		cs := tensor.ConvShape{InC: 1, InH: h, InW: w, OutC: 1, Kernel: l.Kernel, Stride: l.Stride, Padding: l.Padding}
		chanIn, err := tensor.FromSlice(in.Data[c*h*w:(c+1)*h*w], 1, h, w)
		if err != nil {
			return nil, err
		}
		cols, err := tensor.Im2Col(chanIn, cs)
		if err != nil {
			return nil, err
		}
		gradSeg, err := tensor.FromSlice(gradOut.Data[c*outH*outW:(c+1)*outH*outW], 1, outH*outW)
		if err != nil {
			return nil, err
		}
		colsT, err := tensor.Transpose(cols)
		if err != nil {
			return nil, err
		}
		gw, err := tensor.MatMul(gradSeg, colsT)
		if err != nil {
			return nil, err
		}
		for j := 0; j < kk; j++ {
			g.Weights[i].Data[c*kk+j] += gw.Data[j]
		}
		s := 0.0
		for _, v := range gradSeg.Data {
			s += v
		}
		g.Biases[i].Data[c] += s
		wRow, err := tensor.FromSlice(n.Weights[i].Data[c*kk:(c+1)*kk], 1, kk)
		if err != nil {
			return nil, err
		}
		wT, err := tensor.Transpose(wRow)
		if err != nil {
			return nil, err
		}
		gcols, err := tensor.MatMul(wT, gradSeg)
		if err != nil {
			return nil, err
		}
		gch, err := tensor.Col2Im(gcols, cs)
		if err != nil {
			return nil, err
		}
		copy(gin.Data[c*h*w:(c+1)*h*w], gch.Data)
	}
	return gin, nil
}

func fcBackward(w, in, gradOut *tensor.Tensor, gw, gb *tensor.Tensor) (*tensor.Tensor, error) {
	out, inDim := w.Shape[0], w.Shape[1]
	if gradOut.Len() != out || in.Len() != inDim {
		return nil, fmt.Errorf("fc backward shape mismatch")
	}
	for o := 0; o < out; o++ {
		gv := gradOut.Data[o]
		gb.Data[o] += gv
		if gv == 0 {
			continue
		}
		row := gw.Data[o*inDim : (o+1)*inDim]
		for j, v := range in.Data {
			row[j] += gv * v
		}
	}
	gin := tensor.New(inDim, 1, 1)
	for o := 0; o < out; o++ {
		gv := gradOut.Data[o]
		if gv == 0 {
			continue
		}
		row := w.Data[o*inDim : (o+1)*inDim]
		for j := range gin.Data {
			gin.Data[j] += gv * row[j]
		}
	}
	return gin, nil
}

// SoftmaxCrossEntropy returns the loss and the gradient w.r.t. the logits
// for an integer label.
func SoftmaxCrossEntropy(logits *tensor.Tensor, label int) (float64, *tensor.Tensor) {
	probs := softmax(logits.Data)
	grad := tensor.New(logits.Shape...)
	for i, p := range probs {
		grad.Data[i] = p
	}
	grad.Data[label]--
	return -math.Log(math.Max(probs[label], 1e-12)), grad
}

// DistillLoss returns the soft-target cross-entropy against teacher logits
// (temperature 1) and its gradient — the paper's knowledge-distillation
// trick: composed DNNs are trained on the base DNN's output logits.
func DistillLoss(logits, teacherLogits *tensor.Tensor) (float64, *tensor.Tensor) {
	p := softmax(logits.Data)
	q := softmax(teacherLogits.Data)
	loss := 0.0
	grad := tensor.New(logits.Shape...)
	for i := range p {
		loss -= q[i] * math.Log(math.Max(p[i], 1e-12))
		grad.Data[i] = p[i] - q[i]
	}
	return loss, grad
}

func softmax(logits []float64) []float64 {
	maxv := math.Inf(-1)
	for _, v := range logits {
		if v > maxv {
			maxv = v
		}
	}
	sum := 0.0
	out := make([]float64, len(logits))
	for i, v := range logits {
		out[i] = math.Exp(v - maxv)
		sum += out[i]
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

// Step applies accumulated gradients with learning rate lr divided by batch
// size, then zeroes them.
func (n *Net) Step(g *Grads, lr float64, batch int) {
	scale := lr / float64(batch)
	apply := func(val, grad *tensor.Tensor) {
		for j := range val.Data {
			val.Data[j] -= scale * grad.Data[j]
		}
		grad.Zero()
	}
	for i, w := range n.Weights {
		if w == nil {
			continue
		}
		apply(w, g.Weights[i])
		apply(n.Biases[i], g.Biases[i])
	}
	for i, p := range n.FireAt {
		gp := g.FireAt[i]
		if gp == nil {
			continue
		}
		apply(p.SqueezeW, gp.SqueezeW)
		apply(p.SqueezeB, gp.SqueezeB)
		apply(p.E1W, gp.E1W)
		apply(p.E1B, gp.E1B)
		apply(p.E3W, gp.E3W)
		apply(p.E3B, gp.E3B)
	}
}

// TrainSample accumulates one sample's gradients into g and returns its loss.
// When teacher is non-nil the distillation loss against the teacher's logits
// is used instead of the hard label.
func (n *Net) TrainSample(x *tensor.Tensor, label int, teacher *tensor.Tensor, g *Grads) (float64, error) {
	cache, err := n.forward(x)
	if err != nil {
		return 0, err
	}
	var loss float64
	var grad *tensor.Tensor
	if teacher != nil {
		loss, grad = DistillLoss(cache.output, teacher)
	} else {
		loss, grad = SoftmaxCrossEntropy(cache.output, label)
	}
	if err := n.backward(cache, grad, g); err != nil {
		return 0, err
	}
	return loss, nil
}

// Predict returns the argmax class of the logits for x.
func (n *Net) Predict(x *tensor.Tensor) (int, error) {
	logits, err := n.Forward(x)
	if err != nil {
		return 0, err
	}
	best, bestV := 0, math.Inf(-1)
	for i, v := range logits.Data {
		if v > bestV {
			best, bestV = i, v
		}
	}
	return best, nil
}
