package nn

import (
	"fmt"
	"math"
	"sync"

	"cadmc/internal/parallel"
	"cadmc/internal/tensor"
)

// The inference executor. ForwardRange, ForwardFrom, ForwardBatch and
// ForwardRangeBatch all run here; a single sample is a batch of one. It is
// bit-exact against the training forward (Net.Forward → applyLayer), which
// stays the oracle: every kernel keeps that path's arithmetic — the same
// operations in the same order on the same operands — and changes only
// where values are stored and when they are read (DESIGN.md §17).
//
//   - Conv and DepthwiseConv sum each output over k ascending from +0,
//     skipping zero weights, then write acc + bias; a Conv, DepthwiseConv or
//     FC followed by a ReLU applies ReLU's v < 0 → 0 in that same pass.
//   - MaxPool keeps the v > best scan but records no argmax.
//   - Activations live in a per-executor workspace: two ping-pong buffers,
//     plus one kept buffer per skip source a later Add reads. Flatten and
//     Dropout alias their input. The caller's inputs are never written and
//     each returned output is fresh memory the executor never touches again.
//   - One level of parallelism: a batch of two or more fans out one sample
//     per task and runs every kernel inline; a batch of one lets the
//     kernels use the worker pool instead.

// noUse marks an activation no Add reads.
const noUse = math.MaxInt

// inferPlan is the shape-independent half of the executor, built once per
// Net: the liveness of skip sources, which weight layers absorb the ReLU
// after them, and the pool of workspaces.
type inferPlan struct {
	// firstUse[i] is the first Add reading layer i's output as its skip
	// source, or noUse. A range [from, to) keeps layer i's output when
	// firstUse[i] < to.
	firstUse []int
	// fuse[i] marks a Conv, DepthwiseConv or FC whose output only feeds the
	// ReLU at i+1; the pair runs as one kernel when both are in range.
	fuse   []bool
	spaces sync.Pool // *workspace
}

// workspace is one executor's scratch: the ping-pong activation buffers,
// the kept skip sources, the im2col columns and an auxiliary buffer for an
// Add's projection or a Fire's squeeze. Buffers only grow, so a steady
// stream of same-shaped requests allocates nothing here.
type workspace struct {
	ping [2][]float64
	// keptBuf[i] is the storage layer i's output is kept in; kept[i] is that
	// activation for the range in flight (it may alias an earlier kept
	// buffer through Flatten or Dropout, which never write).
	keptBuf [][]float64
	kept    []act
	cols    []float64
	aux     []float64
}

// Where an activation lives. Only ping-pong buffers may be overwritten in
// place by the next layer.
const (
	inCaller = iota
	inPing0
	inPing1
	inKept
	inOutput
)

// act is one sample's activation in flight: its storage, where that storage
// lives, and its C×H×W shape. raw holds the caller's shape while it is not
// rank 3 (only the shape-preserving ReLU, Dropout and Add accept that).
type act struct {
	data    []float64
	where   int
	c, h, w int
	raw     []int
}

// inferSlot is one sample's result: the returned tensor with its shape
// inline, so the batch allocates results once rather than per sample.
type inferSlot struct {
	t    tensor.Tensor
	dims [3]int
	err  error
}

func (n *Net) inferPlan() *inferPlan {
	if p := n.plan.Load(); p != nil {
		return p
	}
	layers := n.Model.Layers
	p := &inferPlan{firstUse: make([]int, len(layers)), fuse: make([]bool, len(layers))}
	for i := range p.firstUse {
		p.firstUse[i] = noUse
	}
	for j, l := range layers {
		if l.Type == Add && l.SkipFrom >= 0 && l.SkipFrom < j && j < p.firstUse[l.SkipFrom] {
			p.firstUse[l.SkipFrom] = j
		}
	}
	for i, l := range layers {
		switch l.Type {
		case Conv, DepthwiseConv, FC:
			p.fuse[i] = i+1 < len(layers) && layers[i+1].Type == ReLU && p.firstUse[i] == noUse
		}
	}
	p.spaces.New = func() any {
		return &workspace{keptBuf: make([][]float64, len(layers)), kept: make([]act, len(layers))}
	}
	n.plan.CompareAndSwap(nil, p)
	return n.plan.Load()
}

// infer is the executor's one loop over a batch; see the comment at the
// top of this file.
func (n *Net) infer(xs []*tensor.Tensor, from, to int) ([]*tensor.Tensor, error) {
	if from < 0 || to > len(n.Model.Layers) || from > to {
		return nil, fmt.Errorf("nn: forward range [%d,%d) invalid for %d layers", from, to, len(n.Model.Layers))
	}
	for b, x := range xs {
		if x == nil {
			return nil, fmt.Errorf("nn: forward: nil input at batch index %d", b)
		}
	}
	if from == to {
		return append([]*tensor.Tensor(nil), xs...), nil
	}
	p := n.inferPlan()
	slots := make([]inferSlot, len(xs))
	if len(xs) == 1 {
		ws := p.spaces.Get().(*workspace)
		slots[0].err = n.inferSample(p, ws, xs[0], from, to, false, &slots[0])
		p.spaces.Put(ws)
	} else {
		parallel.For(len(xs), 1, func(lo, hi int) {
			ws := p.spaces.Get().(*workspace)
			for b := lo; b < hi; b++ {
				slots[b].err = n.inferSample(p, ws, xs[b], from, to, true, &slots[b])
			}
			p.spaces.Put(ws)
		})
	}
	ys := make([]*tensor.Tensor, len(xs))
	for b := range slots {
		if err := slots[b].err; err != nil {
			if len(xs) > 1 {
				return nil, fmt.Errorf("nn: batch index %d: %w", b, err)
			}
			return nil, err
		}
		ys[b] = &slots[b].t
	}
	return ys, nil
}

// inferSample runs layers [from, to) for one input on one workspace and
// leaves the output in slot.
func (n *Net) inferSample(p *inferPlan, ws *workspace, x *tensor.Tensor, from, to int, inline bool, slot *inferSlot) error {
	cur := callerAct(x)
	for i := from; i < to; i++ {
		end := i
		if p.fuse[i] && i+1 < to {
			end = i + 1
		}
		next, err := n.inferStep(ws, x, cur, i, end, from, to, inline)
		if err != nil {
			return fmt.Errorf("nn: forward layer %d (%s): %w", i, n.Model.Layers[i].Type, err)
		}
		if next.where != inOutput && end == to-1 {
			// An aliasing last layer (Flatten, Dropout): the result still
			// sits in scratch or in the caller's input.
			out := make([]float64, len(next.data))
			copy(out, next.data)
			next.data, next.where = out, inOutput
		}
		if p.firstUse[end] < to {
			if next.where != inKept {
				buf := grow(ws.keptBuf[end], len(next.data))
				copy(buf, next.data)
				ws.keptBuf[end] = buf
				next.data, next.where = buf, inKept
			}
			ws.kept[end] = next
		}
		cur = next
		i = end
	}
	slot.t.Data = cur.data
	if cur.raw != nil {
		slot.t.Shape = append([]int(nil), cur.raw...)
	} else {
		slot.dims = [3]int{cur.c, cur.h, cur.w}
		slot.t.Shape = slot.dims[:]
	}
	return nil
}

// dest returns storage of size elements for the activation that step
// [i, end] produces: fresh memory for the range's output, otherwise the
// ping-pong buffer cur does not occupy (inferSample copies a skip source
// on into its kept buffer). inPlace lets an elementwise layer overwrite cur
// when cur is a ping-pong buffer.
func (ws *workspace) dest(cur act, size, end, to int, inPlace bool) ([]float64, int) {
	switch {
	case end == to-1:
		return make([]float64, size), inOutput
	case inPlace && (cur.where == inPing0 || cur.where == inPing1):
		return cur.data, cur.where
	case cur.where == inPing0:
		ws.ping[1] = grow(ws.ping[1], size)
		return ws.ping[1], inPing1
	default:
		ws.ping[0] = grow(ws.ping[0], size)
		return ws.ping[0], inPing0
	}
}

// grow returns buf resliced to n elements, reallocating only when its
// capacity is short. Contents are unspecified: every kernel writes all of
// its output.
func grow(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// inferStep executes layer i, or the fused pair [i, i+1] when end == i+1.
func (n *Net) inferStep(ws *workspace, x *tensor.Tensor, cur act, i, end, from, to int, inline bool) (act, error) {
	l := &n.Model.Layers[i]
	relu := end > i
	switch l.Type {
	case Conv:
		if err := cur.spatial(); err != nil {
			return act{}, err
		}
		cs := tensor.ConvShape{InC: l.In, InH: cur.h, InW: cur.w, OutC: l.Out, Kernel: l.Kernel, Stride: l.Stride, Padding: l.Padding}
		return ws.conv(cur, cs, n.Weights[i].Data, n.Biases[i].Data, relu, end, to, inline)
	case DepthwiseConv:
		if err := cur.spatial(); err != nil {
			return act{}, err
		}
		if cur.c != l.Out {
			return act{}, fmt.Errorf("depthwise expects %d channels, got %d", l.Out, cur.c)
		}
		cs := tensor.ConvShape{InC: 1, InH: cur.h, InW: cur.w, OutC: 1, Kernel: l.Kernel, Stride: l.Stride, Padding: l.Padding}
		oh, ow := cs.OutHW()
		if oh <= 0 || ow <= 0 {
			return act{}, fmt.Errorf("depthwise output empty")
		}
		kk, hw, ohw := l.Kernel*l.Kernel, cur.h*cur.w, oh*ow
		dst, where := ws.dest(cur, l.Out*ohw, end, to, false)
		ws.cols = grow(ws.cols, kk*ohw)
		w, b := n.Weights[i].Data, n.Biases[i].Data
		for c := 0; c < l.Out; c++ {
			tensor.ConvInto(dst[c*ohw:(c+1)*ohw], cur.data[c*hw:(c+1)*hw], w[c*kk:(c+1)*kk], b[c:c+1], ws.cols, cs, relu, inline)
		}
		return act{data: dst, where: where, c: l.Out, h: oh, w: ow}, nil
	case FC:
		w, b := n.Weights[i], n.Biases[i]
		out, in := w.Shape[0], w.Shape[1]
		if len(cur.data) != in {
			return act{}, fmt.Errorf("fc input len %d, want %d", len(cur.data), in)
		}
		dst, where := ws.dest(cur, out, end, to, false)
		fcInto(dst, cur.data, w.Data, b.Data, relu, inline)
		return act{data: dst, where: where, c: out, h: 1, w: 1}, nil
	case ReLU:
		dst, where := ws.dest(cur, len(cur.data), end, to, true)
		for j, v := range cur.data {
			dst[j] = tensor.Relu(v)
		}
		cur.data, cur.where = dst, where
		return cur, nil
	case MaxPool:
		if err := cur.spatial(); err != nil {
			return act{}, err
		}
		k, s := l.Kernel, l.Stride
		oh, ow := (cur.h-k)/s+1, (cur.w-k)/s+1
		if oh <= 0 || ow <= 0 {
			return act{}, fmt.Errorf("maxpool output empty for %dx%dx%d k=%d s=%d", cur.c, cur.h, cur.w, k, s)
		}
		dst, where := ws.dest(cur, cur.c*oh*ow, end, to, false)
		tensor.MaxPoolInto(dst, cur.data, cur.c, cur.h, cur.w, k, s, inline)
		return act{data: dst, where: where, c: cur.c, h: oh, w: ow}, nil
	case GlobalAvgPool:
		if err := cur.spatial(); err != nil {
			return act{}, err
		}
		dst, where := ws.dest(cur, cur.c, end, to, false)
		hw := cur.h * cur.w
		for ch := range dst {
			s := 0.0
			for _, v := range cur.data[ch*hw : (ch+1)*hw] {
				s += v
			}
			dst[ch] = s / float64(hw)
		}
		return act{data: dst, where: where, c: cur.c, h: 1, w: 1}, nil
	case Flatten:
		return act{data: cur.data, where: cur.where, c: len(cur.data), h: 1, w: 1}, nil
	case Dropout:
		return cur, nil
	case BatchNorm:
		c := n.Weights[i].Len()
		if cur.raw != nil || cur.c != c {
			return act{}, fmt.Errorf("batchnorm expects %d channels, got shape %v", c, cur.shape())
		}
		dst, where := ws.dest(cur, len(cur.data), end, to, true)
		hw := cur.h * cur.w
		for ch := 0; ch < c; ch++ {
			g, b := n.Weights[i].Data[ch], n.Biases[i].Data[ch]
			src := cur.data[ch*hw : (ch+1)*hw]
			out := dst[ch*hw : (ch+1)*hw]
			for j, v := range src {
				out[j] = g*v + b
			}
		}
		cur.data, cur.where = dst, where
		return cur, nil
	case Add:
		return n.inferAdd(ws, x, cur, l, i, from, to, inline)
	case Fire:
		if err := cur.spatial(); err != nil {
			return act{}, err
		}
		return n.inferFire(ws, cur, l, i, to, inline)
	default:
		return act{}, fmt.Errorf("layer type %s not executable", l.Type)
	}
}

// callerAct is the caller's tensor as an activation: never written, its
// shape kept raw unless it is C×H×W.
func callerAct(x *tensor.Tensor) act {
	if len(x.Shape) == 3 {
		return act{data: x.Data, where: inCaller, c: x.Shape[0], h: x.Shape[1], w: x.Shape[2]}
	}
	return act{data: x.Data, where: inCaller, raw: x.Shape}
}

// spatial rejects an activation that is not C×H×W.
func (a act) spatial() error {
	if a.raw != nil {
		return fmt.Errorf("needs a C×H×W activation, got shape %v", a.raw)
	}
	return nil
}

// shape renders an activation's shape for error messages.
func (a act) shape() []int {
	if a.raw != nil {
		return a.raw
	}
	return []int{a.c, a.h, a.w}
}

// conv runs one convolution of cur into the destination of step end.
func (ws *workspace) conv(cur act, cs tensor.ConvShape, w, b []float64, relu bool, end, to int, inline bool) (act, error) {
	if cur.c != cs.InC {
		return act{}, fmt.Errorf("conv expects %d input channels, got %d", cs.InC, cur.c)
	}
	oh, ow := cs.OutHW()
	if oh <= 0 || ow <= 0 {
		return act{}, fmt.Errorf("conv output %dx%d is empty (in %dx%d k=%d s=%d p=%d)", oh, ow, cs.InH, cs.InW, cs.Kernel, cs.Stride, cs.Padding)
	}
	kk := cs.InC * cs.Kernel * cs.Kernel
	if len(w) != cs.OutC*kk {
		return act{}, fmt.Errorf("conv weights hold %d values, want %d×%d", len(w), cs.OutC, kk)
	}
	dst, where := ws.dest(cur, cs.OutC*oh*ow, end, to, false)
	ws.cols = grow(ws.cols, kk*oh*ow)
	tensor.ConvInto(dst, cur.data, w, b, ws.cols, cs, relu, inline)
	return act{data: dst, where: where, c: cs.OutC, h: oh, w: ow}, nil
}

// inferAdd computes cur + skip, projecting the skip through its strided
// 1×1 convolution first when the layer has one.
func (n *Net) inferAdd(ws *workspace, x *tensor.Tensor, cur act, l *Layer, i, from, to int, inline bool) (act, error) {
	var skip act
	switch src := l.SkipFrom; {
	case src == from-1:
		skip = callerAct(x)
	case src < from-1:
		return act{}, fmt.Errorf("skip source %d precedes range start %d", src, from)
	case src >= i:
		return act{}, fmt.Errorf("skip source %d unavailable", src)
	default:
		skip = ws.kept[src]
	}
	if l.Out > 0 {
		if skip.raw != nil {
			return act{}, fmt.Errorf("add projection needs a C×H×W skip, got shape %v", skip.raw)
		}
		cs := tensor.ConvShape{InC: l.In, InH: skip.h, InW: skip.w, OutC: l.Out, Kernel: 1, Stride: l.Stride}
		if skip.c != cs.InC {
			return act{}, fmt.Errorf("add projection expects %d channels, got %d", cs.InC, skip.c)
		}
		oh, ow := cs.OutHW()
		ws.aux = grow(ws.aux, l.Out*oh*ow)
		ws.cols = grow(ws.cols, cs.InC*oh*ow)
		tensor.ConvInto(ws.aux, skip.data, n.Weights[i].Data, n.Biases[i].Data, ws.cols, cs, false, inline)
		skip = act{data: ws.aux, c: l.Out, h: oh, w: ow}
	}
	if len(skip.data) != len(cur.data) {
		return act{}, fmt.Errorf("add operands mismatch: %v vs %v", skip.shape(), cur.shape())
	}
	dst, where := ws.dest(cur, len(cur.data), i, to, true)
	copy(dst, cur.data)
	for j, v := range skip.data {
		dst[j] += v
	}
	cur.data, cur.where = dst, where
	return cur, nil
}

// inferFire runs the squeeze 1×1 conv with its ReLU into the auxiliary
// buffer, then the 1×1 and 3×3 expands straight into the two channel
// halves of the output.
func (n *Net) inferFire(ws *workspace, cur act, l *Layer, i, to int, inline bool) (act, error) {
	fp := n.FireAt[i]
	if fp == nil {
		return act{}, fmt.Errorf("fire parameters missing at layer %d", i)
	}
	if cur.c != l.In {
		return act{}, fmt.Errorf("fire expects %d input channels, got %d", l.In, cur.c)
	}
	h, w, s := cur.h, cur.w, l.Squeeze
	hw := h * w
	e1 := l.Out / 2
	e3 := l.Out - e1
	dst, where := ws.dest(cur, l.Out*hw, i, to, false)
	ws.aux = grow(ws.aux, s*hw)
	ws.cols = grow(ws.cols, 9*s*hw) // the 1×1 convolutions need none
	csS := tensor.ConvShape{InC: l.In, InH: h, InW: w, OutC: s, Kernel: 1, Stride: 1}
	tensor.ConvInto(ws.aux, cur.data, fp.SqueezeW.Data, fp.SqueezeB.Data, ws.cols, csS, true, inline)
	cs1 := tensor.ConvShape{InC: s, InH: h, InW: w, OutC: e1, Kernel: 1, Stride: 1}
	tensor.ConvInto(dst[:e1*hw], ws.aux, fp.E1W.Data, fp.E1B.Data, ws.cols, cs1, false, inline)
	cs3 := tensor.ConvShape{InC: s, InH: h, InW: w, OutC: e3, Kernel: 3, Stride: 1, Padding: 1}
	tensor.ConvInto(dst[e1*hw:], ws.aux, fp.E3W.Data, fp.E3B.Data, ws.cols, cs3, false, inline)
	return act{data: dst, where: where, c: l.Out, h: h, w: w}, nil
}

// fcInto writes W·x + b into dst, clamped by ReLU when relu is set. Each
// output is one serial accumulation from its bias, exactly as fcForward.
func fcInto(dst, x, w, b []float64, relu, inline bool) {
	if inline {
		fcRows(dst, x, w, b, relu, 0, len(dst))
		return
	}
	parallel.For(len(dst), parallel.Grain(len(dst), 2*len(x)), func(lo, hi int) {
		fcRows(dst, x, w, b, relu, lo, hi)
	})
}

func fcRows(dst, x, w, b []float64, relu bool, lo, hi int) {
	in := len(x)
	o := lo
	// Four outputs at a time: each is still its own serial accumulation,
	// but four independent chains hide the add latency one chain waits on.
	for ; o+4 <= hi; o += 4 {
		w0 := w[o*in : (o+1)*in]
		w1 := w[(o+1)*in : (o+2)*in]
		w2 := w[(o+2)*in : (o+3)*in]
		w3 := w[(o+3)*in : (o+4)*in]
		s0, s1, s2, s3 := b[o], b[o+1], b[o+2], b[o+3]
		for j, v := range x {
			s0 += w0[j] * v
			s1 += w1[j] * v
			s2 += w2[j] * v
			s3 += w3[j] * v
		}
		if relu {
			s0, s1, s2, s3 = tensor.Relu(s0), tensor.Relu(s1), tensor.Relu(s2), tensor.Relu(s3)
		}
		dst[o], dst[o+1], dst[o+2], dst[o+3] = s0, s1, s2, s3
	}
	for ; o < hi; o++ {
		row := w[o*in : (o+1)*in]
		s := b[o]
		for j, v := range x {
			s += row[j] * v
		}
		if relu {
			s = tensor.Relu(s)
		}
		dst[o] = s
	}
}
