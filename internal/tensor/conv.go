package tensor

import (
	"fmt"

	"cadmc/internal/parallel"
)

// ConvShape describes a 2-D convolution configuration.
type ConvShape struct {
	InC, InH, InW   int
	OutC, Kernel    int
	Stride, Padding int
}

// OutHW returns the output spatial dimensions for the configuration.
func (c ConvShape) OutHW() (int, int) {
	outH := (c.InH+2*c.Padding-c.Kernel)/c.Stride + 1
	outW := (c.InW+2*c.Padding-c.Kernel)/c.Stride + 1
	return outH, outW
}

// checkInput validates input against the configuration and returns the
// (non-empty) output spatial dimensions.
func (c ConvShape) checkInput(input *Tensor) (int, int, error) {
	if len(input.Shape) != 3 {
		return 0, 0, fmt.Errorf("tensor: im2col needs rank-3 input, got %v", input.Shape)
	}
	if input.Shape[0] != c.InC || input.Shape[1] != c.InH || input.Shape[2] != c.InW {
		return 0, 0, fmt.Errorf("tensor: im2col input %v mismatches conv shape %dx%dx%d",
			input.Shape, c.InC, c.InH, c.InW)
	}
	outH, outW := c.OutHW()
	if outH <= 0 || outW <= 0 {
		return 0, 0, fmt.Errorf("tensor: conv output %dx%d is empty (in %dx%d k=%d s=%d p=%d)",
			outH, outW, c.InH, c.InW, c.Kernel, c.Stride, c.Padding)
	}
	return outH, outW, nil
}

// Im2Col unfolds input (C×H×W) into a matrix of shape
// (C·K·K) × (outH·outW) so convolution becomes a matrix multiply.
func Im2Col(input *Tensor, cs ConvShape) (*Tensor, error) {
	outH, outW, err := cs.checkInput(input)
	if err != nil {
		return nil, err
	}
	cols := New(cs.InC*cs.Kernel*cs.Kernel, outH*outW)
	im2colInto(input.Data, cs, cols.Data, outH, outW)
	return cols, nil
}

// Im2ColInto unfolds input into the preallocated dst, which must have shape
// (C·K·K) × (outH·outW). Every element of dst is written (padding positions
// get explicit zeros), so dst may be a recycled scratch buffer.
func Im2ColInto(input *Tensor, cs ConvShape, dst *Tensor) error {
	outH, outW, err := cs.checkInput(input)
	if err != nil {
		return err
	}
	if len(dst.Shape) != 2 || dst.Shape[0] != cs.InC*cs.Kernel*cs.Kernel || dst.Shape[1] != outH*outW {
		return fmt.Errorf("tensor: im2col dst %v, want [%d %d]",
			dst.Shape, cs.InC*cs.Kernel*cs.Kernel, outH*outW)
	}
	im2colInto(input.Data, cs, dst.Data, outH, outW)
	return nil
}

// im2colInto partitions the (channel, ky, kx) output rows across the worker
// pool; each row writes a disjoint dst segment, so rows are embarrassingly
// parallel and the unfold is a pure gather — deterministic by construction.
func im2colInto(src []float64, cs ConvShape, dst []float64, outH, outW int) {
	rows := cs.InC * cs.Kernel * cs.Kernel
	parallel.For(rows, parallel.Grain(rows, outH*outW), func(lo, hi int) {
		im2colRows(src, cs, dst, outH, outW, lo, hi)
	})
}

// im2colRows unfolds column-matrix rows [lo, hi). Each output row of the
// image contributes one contiguous run of in-bounds pixels — a copy at
// stride 1, a strided gather otherwise — with the padding on either side
// zero-filled, so no element pays a bounds branch.
func im2colRows(src []float64, cs ConvShape, dst []float64, outH, outW, lo, hi int) {
	k2 := cs.Kernel * cs.Kernel
	hw := outH * outW
	for row := lo; row < hi; row++ {
		ch := row / k2
		ky := (row % k2) / cs.Kernel
		kx := row % cs.Kernel
		// Output columns [oxLo, oxHi) read input columns inside [0, InW).
		shift := kx - cs.Padding
		oxLo := 0
		if shift < 0 {
			oxLo = (-shift + cs.Stride - 1) / cs.Stride
		}
		oxHi := 0
		if last := cs.InW - 1 - shift; last >= 0 {
			oxHi = last/cs.Stride + 1
		}
		oxHi = min(oxHi, outW)
		oxLo = min(oxLo, oxHi)
		chan0 := src[ch*cs.InH*cs.InW : (ch+1)*cs.InH*cs.InW]
		seg := dst[row*hw : (row+1)*hw]
		for oy := 0; oy < outH; oy++ {
			out := seg[oy*outW : (oy+1)*outW]
			iy := oy*cs.Stride + ky - cs.Padding
			if iy < 0 || iy >= cs.InH || oxLo == oxHi {
				clear(out)
				continue
			}
			// Padding runs are a pixel or two and image rows a few dozen,
			// so plain loops beat the calls behind clear and copy.
			for ox := range out[:oxLo] {
				out[ox] = 0
			}
			for ox := oxHi; ox < outW; ox++ {
				out[ox] = 0
			}
			run := out[oxLo:oxHi]
			in := chan0[iy*cs.InW+oxLo*cs.Stride+shift:]
			if cs.Stride == 1 {
				in = in[:len(run)]
				for ox, v := range in {
					run[ox] = v
				}
				continue
			}
			for ox := range run {
				run[ox] = in[ox*cs.Stride]
			}
		}
	}
}

// Col2Im folds a (C·K·K) × (outH·outW) column matrix back into a C×H×W
// tensor, accumulating overlaps. It is the adjoint of Im2Col and is used for
// the convolution input gradient. Work is partitioned per channel — every
// accumulation target lives inside one channel's image plane, and within a
// channel the (ky, kx) rows fold in the serial order, so the summation
// order per element is independent of the worker count.
func Col2Im(cols *Tensor, cs ConvShape) (*Tensor, error) {
	outH, outW := cs.OutHW()
	want := []int{cs.InC * cs.Kernel * cs.Kernel, outH * outW}
	if len(cols.Shape) != 2 || cols.Shape[0] != want[0] || cols.Shape[1] != want[1] {
		return nil, fmt.Errorf("tensor: col2im got %v, want %v", cols.Shape, want)
	}
	img := New(cs.InC, cs.InH, cs.InW)
	hw := outH * outW
	k2 := cs.Kernel * cs.Kernel
	parallel.For(cs.InC, parallel.Grain(cs.InC, k2*hw), func(clo, chi int) {
		for ch := clo; ch < chi; ch++ {
			chBase := ch * cs.InH * cs.InW
			for ky := 0; ky < cs.Kernel; ky++ {
				for kx := 0; kx < cs.Kernel; kx++ {
					row := ch*k2 + ky*cs.Kernel + kx
					src := cols.Data[row*hw : (row+1)*hw]
					i := 0
					for oy := 0; oy < outH; oy++ {
						iy := oy*cs.Stride + ky - cs.Padding
						if iy < 0 || iy >= cs.InH {
							i += outW
							continue
						}
						rowBase := chBase + iy*cs.InW
						for ox := 0; ox < outW; ox++ {
							ix := ox*cs.Stride + kx - cs.Padding
							if ix >= 0 && ix < cs.InW {
								img.Data[rowBase+ix] += src[i]
							}
							i++
						}
					}
				}
			}
		}
	})
	return img, nil
}

// Conv2D applies weights (OutC × InC·K·K) and bias (OutC) to input (C×H×W),
// returning an OutC×outH×outW tensor. Padding is zero padding. The im2col
// column matrix — the single biggest transient buffer in the forward pass —
// is drawn from the scratch arena and released before returning.
func Conv2D(input, weights, bias *Tensor, cs ConvShape) (*Tensor, error) {
	outH, outW, err := cs.checkInput(input)
	if err != nil {
		return nil, err
	}
	if len(weights.Shape) != 2 || weights.Shape[0] != cs.OutC || weights.Shape[1] != cs.InC*cs.Kernel*cs.Kernel {
		return nil, fmt.Errorf("tensor: conv weights %v, want [%d %d]",
			weights.Shape, cs.OutC, cs.InC*cs.Kernel*cs.Kernel)
	}
	if bias != nil && bias.Len() != cs.OutC {
		return nil, fmt.Errorf("tensor: conv bias len %d, want %d", bias.Len(), cs.OutC)
	}
	kk := cs.InC * cs.Kernel * cs.Kernel
	cols := Scratch(kk, outH*outW)
	im2colInto(input.Data, cs, cols.Data, outH, outW)
	prod := New(cs.OutC, outH*outW)
	matmulInto(weights.Data, cols.Data, prod.Data, cs.OutC, kk, outH*outW, nil, false)
	Release(cols)
	out, err := prod.Reshape(cs.OutC, outH, outW)
	if err != nil {
		return nil, err
	}
	if bias != nil {
		hw := outH * outW
		for c := 0; c < cs.OutC; c++ {
			b := bias.Data[c]
			seg := out.Data[c*hw : (c+1)*hw]
			for i := range seg {
				seg[i] += b
			}
		}
	}
	return out, nil
}

// ConvInto is the inference convolution: it writes OutC×outH×outW into dst,
// each element acc + bias[oc] — acc summed exactly as MatMul sums it — and
// clamped by ReLU's v < 0 → 0 when relu is set. cols is the caller's im2col
// scratch of at least InC·K·K·outH·outW elements (unused by a plain 1×1
// convolution, whose unfold is its input); a nil bias adds nothing. Shapes
// are the caller's to validate (see Conv2D). inline runs every loop on the
// calling goroutine, for callers that already run one sample per core;
// otherwise the unfold and the output rows go to the worker pool.
func ConvInto(dst, src, weights, bias, cols []float64, cs ConvShape, relu, inline bool) {
	outH, outW := cs.OutHW()
	kk := cs.InC * cs.Kernel * cs.Kernel
	hw := outH * outW
	var unfolded []float64
	switch {
	case cs.Kernel == 1 && cs.Stride == 1 && cs.Padding == 0:
		unfolded = src[:kk*hw]
	case inline:
		unfolded = cols[:kk*hw]
		im2colRows(src, cs, unfolded, outH, outW, 0, kk)
	default:
		unfolded = cols[:kk*hw]
		im2colInto(src, cs, unfolded, outH, outW)
	}
	if inline {
		matmulRows(weights, unfolded, dst, kk, hw, 0, cs.OutC, bias, relu)
		return
	}
	matmulInto(weights, unfolded, dst, cs.OutC, kk, hw, bias, relu)
}

// MaxPool2D applies k×k max pooling with the given stride over a C×H×W input.
// It returns the pooled output and an argmax slice of flat input offsets
// used by MaxPool2DBackward. Channels pool independently on the worker pool.
func MaxPool2D(input *Tensor, k, stride int) (*Tensor, []int, error) {
	if len(input.Shape) != 3 {
		return nil, nil, fmt.Errorf("tensor: maxpool needs rank-3 input, got %v", input.Shape)
	}
	c, h, w := input.Shape[0], input.Shape[1], input.Shape[2]
	outH := (h-k)/stride + 1
	outW := (w-k)/stride + 1
	if outH <= 0 || outW <= 0 {
		return nil, nil, fmt.Errorf("tensor: maxpool output empty for %v k=%d s=%d", input.Shape, k, stride)
	}
	out := New(c, outH, outW)
	arg := make([]int, c*outH*outW)
	parallel.For(c, parallel.Grain(c, outH*outW*k*k), func(clo, chi int) {
		for ch := clo; ch < chi; ch++ {
			base := ch * h * w
			outBase := ch * outH * outW
			for oy := 0; oy < outH; oy++ {
				rowTop := base + oy*stride*w
				o := outBase + oy*outW
				for ox := 0; ox < outW; ox++ {
					start := rowTop + ox*stride
					best := input.Data[start]
					bestIdx := start
					for ky := 0; ky < k; ky++ {
						row := start + ky*w
						for kx := 0; kx < k; kx++ {
							if v := input.Data[row+kx]; v > best {
								best, bestIdx = v, row+kx
							}
						}
					}
					out.Data[o+ox] = best
					arg[o+ox] = bestIdx
				}
			}
		}
	})
	return out, arg, nil
}

// MaxPoolInto is MaxPool2D without the argmax, for inference: dst receives
// the C×outH×outW maxima of src (C×h×w). Each window keeps MaxPool2D's
// v > best scan, so the first maximum wins and a NaN never replaces a
// value. Shapes are the caller's to validate; inline as in ConvInto.
func MaxPoolInto(dst, src []float64, c, h, w, k, stride int, inline bool) {
	outH := (h-k)/stride + 1
	outW := (w-k)/stride + 1
	if inline {
		maxPoolChannels(dst, src, h, w, k, stride, outH, outW, 0, c)
		return
	}
	parallel.For(c, parallel.Grain(c, outH*outW*k*k), func(clo, chi int) {
		maxPoolChannels(dst, src, h, w, k, stride, outH, outW, clo, chi)
	})
}

func maxPoolChannels(dst, src []float64, h, w, k, stride, outH, outW, clo, chi int) {
	if k == 2 && stride == 2 {
		maxPool2x2(dst, src, h, w, outH, outW, clo, chi)
		return
	}
	for ch := clo; ch < chi; ch++ {
		plane := src[ch*h*w : (ch+1)*h*w]
		out := dst[ch*outH*outW : (ch+1)*outH*outW]
		for oy := 0; oy < outH; oy++ {
			top := plane[oy*stride*w:]
			o := out[oy*outW : (oy+1)*outW]
			for ox := range o {
				start := ox * stride
				best := top[start]
				for ky := 0; ky < k; ky++ {
					for _, v := range top[ky*w+start : ky*w+start+k] {
						if v > best {
							best = v
						}
					}
				}
				o[ox] = best
			}
		}
	}
}

// maxPool2x2 is maxPoolChannels for the common 2×2, stride-2 window,
// unrolled in the same (0,0), (0,1), (1,0), (1,1) scan order.
func maxPool2x2(dst, src []float64, h, w, outH, outW, clo, chi int) {
	for ch := clo; ch < chi; ch++ {
		plane := src[ch*h*w : (ch+1)*h*w]
		out := dst[ch*outH*outW : (ch+1)*outH*outW]
		for oy := 0; oy < outH; oy++ {
			r0 := plane[2*oy*w : 2*oy*w+2*outW]
			r1 := plane[(2*oy+1)*w : (2*oy+1)*w+2*outW]
			o := out[oy*outW : (oy+1)*outW]
			for ox := range o {
				x := 2 * ox
				best := r0[x]
				if v := r0[x+1]; v > best {
					best = v
				}
				if v := r1[x]; v > best {
					best = v
				}
				if v := r1[x+1]; v > best {
					best = v
				}
				o[ox] = best
			}
		}
	}
}

// MaxPool2DBackward scatters the output gradient back through the argmax map.
func MaxPool2DBackward(gradOut *Tensor, arg []int, inShape []int) (*Tensor, error) {
	if gradOut.Len() != len(arg) {
		return nil, fmt.Errorf("tensor: maxpool backward grad len %d vs arg len %d", gradOut.Len(), len(arg))
	}
	gradIn := New(inShape...)
	for i, g := range gradOut.Data {
		gradIn.Data[arg[i]] += g
	}
	return gradIn, nil
}

// GlobalAvgPool averages each channel of a C×H×W input to a length-C vector.
func GlobalAvgPool(input *Tensor) (*Tensor, error) {
	if len(input.Shape) != 3 {
		return nil, fmt.Errorf("tensor: global avg pool needs rank-3 input, got %v", input.Shape)
	}
	c, h, w := input.Shape[0], input.Shape[1], input.Shape[2]
	out := New(c)
	hw := float64(h * w)
	for ch := 0; ch < c; ch++ {
		s := 0.0
		for _, v := range input.Data[ch*h*w : (ch+1)*h*w] {
			s += v
		}
		out.Data[ch] = s / hw
	}
	return out, nil
}
