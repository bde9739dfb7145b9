package rl

import (
	"fmt"
	"math"
	"math/rand"
)

// LSTM is a single-direction LSTM layer with input dimension In and hidden
// dimension H. Gate order in the stacked weight matrices is i, f, g, o.
type LSTM struct {
	In, H int
	// W maps input → gates (4H×In), U maps hidden → gates (4H×H),
	// B is the gate bias (4H).
	W, U, B *Param
}

// NewLSTM builds an LSTM with Xavier-initialised weights and forget bias 1.
func NewLSTM(in, hidden int, rng *rand.Rand) (*LSTM, error) {
	if in <= 0 || hidden <= 0 {
		return nil, fmt.Errorf("rl: lstm dims must be positive, got %d/%d", in, hidden)
	}
	l := &LSTM{
		In: in, H: hidden,
		W: newParam(4*hidden*in, xavier(rng, in, hidden)),
		U: newParam(4*hidden*hidden, xavier(rng, hidden, hidden)),
		B: newParam(4*hidden, nil),
	}
	// Forget-gate bias 1 stabilises early training.
	for j := hidden; j < 2*hidden; j++ {
		l.B.Val[j] = 1
	}
	return l, nil
}

// Params exposes the trainable blocks.
func (l *LSTM) Params() []*Param { return []*Param{l.W, l.U, l.B} }

// LSTMCache holds the forward trajectory for the backward pass: the inputs
// and, per timestep, the post-activation gates i, f, g, o, the cell state c,
// the hidden state h and tanh(c), packed into one flat buffer.
type LSTMCache struct {
	xs  [][]float64
	buf []float64 // len(xs) steps of stepLen(H), then H zeros (the initial h and c)
}

// stepLen is the cached floats per timestep: 4H gates plus c, h and tanh(c).
func stepLen(h int) int { return 7 * h }

// step returns timestep t's cached gates (i, f, g, o stacked), c, h and
// tanh(c); t = -1 yields the zero initial state.
func (c *LSTMCache) step(h, t int) (gates, cell, hid, tc []float64) {
	if t < 0 {
		z := c.buf[len(c.xs)*stepLen(h):]
		return nil, z, z, nil
	}
	st := c.buf[t*stepLen(h) : (t+1)*stepLen(h)]
	return st[:4*h], st[4*h : 5*h], st[5*h : 6*h : 6*h], st[6*h:]
}

// Forward runs the sequence, returning per-timestep hidden states and the
// cache for Backward. Initial hidden and cell states are zero. Each gate
// pre-activation sums the bias, then W·x in input order, then U·h in hidden
// order; that summation order is part of the contract, because the search's
// replay gates compare rewards bit for bit. Eight gate rows are summed side
// by side (four for the last block when H is odd), and one buffer holds
// every timestep.
func (l *LSTM) Forward(seq [][]float64) ([][]float64, *LSTMCache, error) {
	for t, x := range seq {
		if len(x) != l.In {
			return nil, nil, fmt.Errorf("rl: lstm step %d input dim %d, want %d", t, len(x), l.In)
		}
	}
	H, In := l.H, l.In
	W, U, B := l.W.Val, l.U.Val, l.B.Val
	cache := &LSTMCache{xs: seq, buf: make([]float64, len(seq)*stepLen(H)+H)}
	outs := make([][]float64, len(seq))
	_, cPrev, hPrev, _ := cache.step(H, -1)
	for t, x := range seq {
		gates, c, h, tc := cache.step(H, t)
		r := 0
		for ; r+8 <= 4*H; r += 8 {
			preact8(gates[r:r+8], B[r:r+8], W[r*In:(r+8)*In], U[r*H:(r+8)*H], x, hPrev)
		}
		for ; r < 4*H; r += 4 {
			preact4(gates[r:r+4], B[r:r+4], W[r*In:(r+4)*In], U[r*H:(r+4)*H], x, hPrev)
		}
		for j := 0; j < H; j++ {
			i, f, g, o := sigmoid(gates[j]), sigmoid(gates[H+j]), math.Tanh(gates[2*H+j]), sigmoid(gates[3*H+j])
			gates[j], gates[H+j], gates[2*H+j], gates[3*H+j] = i, f, g, o
			c[j] = f*cPrev[j] + i*g
			tc[j] = math.Tanh(c[j])
			h[j] = o * tc[j]
		}
		outs[t] = h
		hPrev, cPrev = h, c
	}
	return outs, cache, nil
}

// preact8 writes the pre-activations of eight consecutive gate rows into z:
// bias, then the W row against x in order, then the U row against h in
// order.
func preact8(z, b, w, u, x, h []float64) {
	nx, nh := len(x), len(h)
	w0, w1, w2, w3 := w[0*nx:][:nx], w[1*nx:][:nx], w[2*nx:][:nx], w[3*nx:][:nx]
	w4, w5, w6, w7 := w[4*nx:][:nx], w[5*nx:][:nx], w[6*nx:][:nx], w[7*nx:][:nx]
	z0, z1, z2, z3, z4, z5, z6, z7 := b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]
	for k, v := range x {
		z0 += w0[k] * v
		z1 += w1[k] * v
		z2 += w2[k] * v
		z3 += w3[k] * v
		z4 += w4[k] * v
		z5 += w5[k] * v
		z6 += w6[k] * v
		z7 += w7[k] * v
	}
	u0, u1, u2, u3 := u[0*nh:][:nh], u[1*nh:][:nh], u[2*nh:][:nh], u[3*nh:][:nh]
	u4, u5, u6, u7 := u[4*nh:][:nh], u[5*nh:][:nh], u[6*nh:][:nh], u[7*nh:][:nh]
	for k, v := range h {
		z0 += u0[k] * v
		z1 += u1[k] * v
		z2 += u2[k] * v
		z3 += u3[k] * v
		z4 += u4[k] * v
		z5 += u5[k] * v
		z6 += u6[k] * v
		z7 += u7[k] * v
	}
	z[0], z[1], z[2], z[3], z[4], z[5], z[6], z[7] = z0, z1, z2, z3, z4, z5, z6, z7
}

// preact4 is preact8 for four rows.
func preact4(z, b, w, u, x, h []float64) {
	nx, nh := len(x), len(h)
	w0, w1, w2, w3 := w[0*nx:][:nx], w[1*nx:][:nx], w[2*nx:][:nx], w[3*nx:][:nx]
	z0, z1, z2, z3 := b[0], b[1], b[2], b[3]
	for k, v := range x {
		z0 += w0[k] * v
		z1 += w1[k] * v
		z2 += w2[k] * v
		z3 += w3[k] * v
	}
	u0, u1, u2, u3 := u[0*nh:][:nh], u[1*nh:][:nh], u[2*nh:][:nh], u[3*nh:][:nh]
	for k, v := range h {
		z0 += u0[k] * v
		z1 += u1[k] * v
		z2 += u2[k] * v
		z3 += u3[k] * v
	}
	z[0], z[1], z[2], z[3] = z0, z1, z2, z3
}

// Backward runs BPTT given per-timestep gradients dH on the hidden outputs.
// It accumulates parameter gradients and returns per-timestep input
// gradients.
func (l *LSTM) Backward(cache *LSTMCache, dH [][]float64) ([][]float64, error) {
	dx := make([]float64, len(cache.xs)*l.In)
	if err := l.backward(cache, dH, dx); err != nil {
		return nil, err
	}
	dX := make([][]float64, len(cache.xs))
	for t := range dX {
		dX[t] = dx[t*l.In : (t+1)*l.In : (t+1)*l.In]
	}
	return dX, nil
}

// backward is Backward writing the input gradients flat into dx
// (len(steps)·In), or skipping them when dx is nil. Every gradient element
// receives its terms in the order of the textbook loop — timesteps from last
// to first, gate rows in ascending order, rows whose pre-activation gradient
// is zero skipped — so the result is bit-identical to it.
func (l *LSTM) backward(cache *LSTMCache, dH [][]float64, dx []float64) error {
	n, H, In := len(cache.xs), l.H, l.In
	if len(dH) != n {
		return fmt.Errorf("rl: lstm backward got %d grads for %d steps", len(dH), n)
	}
	for t := range dH {
		if len(dH[t]) != H {
			return fmt.Errorf("rl: lstm backward step %d grad dim %d, want %d", t, len(dH[t]), H)
		}
	}
	scratch := make([]float64, 6*H)
	// dh carries dL/dh into step t and collects dL/dh_prev out of it; dc
	// does the same for the cell state; dz is the gate pre-activation grad.
	dh, dc, dz := scratch[:H], scratch[H:2*H], scratch[2*H:]
	rows := make([]int, 0, 4*H)
	W, U := l.W.Val, l.U.Val
	for t := n - 1; t >= 0; t-- {
		gates, _, _, tcs := cache.step(H, t)
		_, cPrev, hPrev, _ := cache.step(H, t-1)
		dHt := dH[t]
		for j := 0; j < H; j++ {
			i, f, g, o := gates[j], gates[H+j], gates[2*H+j], gates[3*H+j]
			dhj := dh[j] + dHt[j]
			dh[j] = 0
			tc := tcs[j]
			do := dhj * tc
			dcj := dc[j] + dhj*o*(1-tc*tc)
			di := dcj * g
			df := dcj * cPrev[j]
			dg := dcj * i
			dc[j] = dcj * f
			dz[j] = di * i * (1 - i)
			dz[H+j] = df * f * (1 - f)
			dz[2*H+j] = dg * (1 - g*g)
			dz[3*H+j] = do * o * (1 - o)
		}
		rows = rows[:0]
		for row, gz := range dz {
			if gz != 0 {
				rows = append(rows, row)
				l.B.Grad[row] += gz
			}
		}
		x := cache.xs[t]
		var dxt []float64
		if dx != nil {
			dxt = dx[t*In : (t+1)*In]
		}
		q := 0
		for ; q+4 <= len(rows); q += 4 {
			r := rows[q : q+4]
			g0, g1, g2, g3 := dz[r[0]], dz[r[1]], dz[r[2]], dz[r[3]]
			accumRows4(dxt, x, g0, g1, g2, g3, W, l.W.Grad, r, In)
			accumRows4(dh, hPrev, g0, g1, g2, g3, U, l.U.Grad, r, H)
		}
		for ; q < len(rows); q++ {
			row := rows[q]
			accumRow(dxt, x, dz[row], W[row*In:][:In], l.W.Grad[row*In:][:In])
			accumRow(dh, hPrev, dz[row], U[row*H:][:H], l.U.Grad[row*H:][:H])
		}
	}
	return nil
}

// accumRows4 handles four gate rows r at once for one weight matrix of row
// width k: grad[r][i] += g_r·v[i] for each row, and, when d is non-nil,
// d[i] += g_r·val[r][i] in row order.
func accumRows4(d, v []float64, g0, g1, g2, g3 float64, val, grad []float64, r []int, k int) {
	v = v[:k]
	a0, a1, a2, a3 := grad[r[0]*k:][:k], grad[r[1]*k:][:k], grad[r[2]*k:][:k], grad[r[3]*k:][:k]
	if d == nil {
		for i, vi := range v {
			a0[i] += g0 * vi
			a1[i] += g1 * vi
			a2[i] += g2 * vi
			a3[i] += g3 * vi
		}
		return
	}
	d = d[:k]
	w0, w1, w2, w3 := val[r[0]*k:][:k], val[r[1]*k:][:k], val[r[2]*k:][:k], val[r[3]*k:][:k]
	for i, vi := range v {
		a0[i] += g0 * vi
		a1[i] += g1 * vi
		a2[i] += g2 * vi
		a3[i] += g3 * vi
		s := d[i]
		s += g0 * w0[i]
		s += g1 * w1[i]
		s += g2 * w2[i]
		s += g3 * w3[i]
		d[i] = s
	}
}

// accumRow is accumRows4 for a single row.
func accumRow(d, v []float64, g float64, w, grad []float64) {
	v = v[:len(w)]
	grad = grad[:len(w)]
	if d == nil {
		for i, vi := range v {
			grad[i] += g * vi
		}
		return
	}
	d = d[:len(w)]
	for i, vi := range v {
		grad[i] += g * vi
		d[i] += g * w[i]
	}
}

func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// BiLSTM is a bidirectional LSTM: a forward and a backward pass whose hidden
// states are concatenated per timestep — the encoder of both controllers
// (Fig. 6: "a DNN layer x_i is fed into a forward LSTM as well as a backward
// LSTM to compute the corresponding hidden states H_i").
type BiLSTM struct {
	Fwd, Bwd *LSTM
}

// NewBiLSTM builds a bidirectional LSTM with the given per-direction hidden
// size; its output dimension is 2·hidden.
func NewBiLSTM(in, hidden int, rng *rand.Rand) (*BiLSTM, error) {
	f, err := NewLSTM(in, hidden, rng)
	if err != nil {
		return nil, err
	}
	b, err := NewLSTM(in, hidden, rng)
	if err != nil {
		return nil, err
	}
	return &BiLSTM{Fwd: f, Bwd: b}, nil
}

// OutDim returns the concatenated hidden dimension.
func (b *BiLSTM) OutDim() int { return b.Fwd.H + b.Bwd.H }

// Params exposes both directions' parameters.
func (b *BiLSTM) Params() []*Param {
	return append(b.Fwd.Params(), b.Bwd.Params()...)
}

// BiCache holds both directions' caches.
type BiCache struct {
	fwd, bwd *LSTMCache
	n        int
}

// Forward encodes the sequence, returning per-timestep concatenated hidden
// states [h_fwd(t) ; h_bwd(t)].
func (b *BiLSTM) Forward(seq [][]float64) ([][]float64, *BiCache, error) {
	fOut, fCache, err := b.Fwd.Forward(seq)
	if err != nil {
		return nil, nil, err
	}
	n := len(seq)
	rev := make([][]float64, n)
	for i := range seq {
		rev[i] = seq[n-1-i]
	}
	bOutRev, bCache, err := b.Bwd.Forward(rev)
	if err != nil {
		return nil, nil, err
	}
	d := b.OutDim()
	flat := make([]float64, n*d)
	out := make([][]float64, n)
	for t := range seq {
		h := flat[t*d : (t+1)*d : (t+1)*d]
		copy(h, fOut[t])
		copy(h[b.Fwd.H:], bOutRev[n-1-t])
		out[t] = h
	}
	return out, &BiCache{fwd: fCache, bwd: bCache, n: n}, nil
}

// Backward propagates per-timestep gradients on the concatenated states.
// The encoder reads the raw layer features, so the input gradients are
// never formed.
func (b *BiLSTM) Backward(cache *BiCache, dH [][]float64) error {
	if len(dH) != cache.n {
		return fmt.Errorf("rl: bilstm backward got %d grads for %d steps", len(dH), cache.n)
	}
	dF := make([][]float64, cache.n)
	dBrev := make([][]float64, cache.n)
	hf := b.Fwd.H
	for t := 0; t < cache.n; t++ {
		if len(dH[t]) != b.OutDim() {
			return fmt.Errorf("rl: bilstm grad dim %d, want %d", len(dH[t]), b.OutDim())
		}
		dF[t] = dH[t][:hf]
		dBrev[cache.n-1-t] = dH[t][hf:]
	}
	if err := b.Fwd.backward(cache.fwd, dF, nil); err != nil {
		return err
	}
	return b.Bwd.backward(cache.bwd, dBrev, nil)
}

// Linear is a dense layer y = Wx + b.
type Linear struct {
	In, Out int
	W, B    *Param
}

// NewLinear builds a Xavier-initialised dense layer.
func NewLinear(in, out int, rng *rand.Rand) (*Linear, error) {
	if in <= 0 || out <= 0 {
		return nil, fmt.Errorf("rl: linear dims must be positive, got %d/%d", in, out)
	}
	return &Linear{
		In: in, Out: out,
		W: newParam(out*in, xavier(rng, in, out)),
		B: newParam(out, nil),
	}, nil
}

// Params exposes the trainable blocks.
func (l *Linear) Params() []*Param { return []*Param{l.W, l.B} }

// Forward computes y = Wx + b.
func (l *Linear) Forward(x []float64) ([]float64, error) {
	if len(x) != l.In {
		return nil, fmt.Errorf("rl: linear input dim %d, want %d", len(x), l.In)
	}
	y := make([]float64, l.Out)
	l.forwardInto(y, x)
	return y, nil
}

// forwardInto is Forward writing into y (len Out) after the caller has
// checked len(x) == In.
func (l *Linear) forwardInto(y, x []float64) {
	for o := range y[:l.Out] {
		row := l.W.Val[o*l.In:][:len(x)]
		s := l.B.Val[o]
		for k, xv := range x {
			s += row[k] * xv
		}
		y[o] = s
	}
}

// Backward accumulates gradients for dY and returns dX.
func (l *Linear) Backward(x, dY []float64) ([]float64, error) {
	if len(x) != l.In || len(dY) != l.Out {
		return nil, fmt.Errorf("rl: linear backward dims %d/%d, want %d/%d", len(x), len(dY), l.In, l.Out)
	}
	dx := make([]float64, l.In)
	for o := 0; o < l.Out; o++ {
		g := dY[o]
		l.B.Grad[o] += g
		if g == 0 {
			continue
		}
		row := l.W.Val[o*l.In : (o+1)*l.In]
		gRow := l.W.Grad[o*l.In : (o+1)*l.In]
		for k, xv := range x {
			gRow[k] += g * xv
			dx[k] += g * row[k]
		}
	}
	return dx, nil
}
