package rl

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The textbook LSTM — one gate() call per unit and gate, fresh slices per
// timestep — kept as the oracle the flat, interleaved kernels must match bit
// for bit.

type refStep struct {
	x, hPrev, cPrev []float64
	i, f, g, o      []float64
	c, h            []float64
}

func refGate(l *LSTM, b, j int, x, h []float64) float64 {
	row := b*l.H + j
	z := l.B.Val[row]
	wRow := l.W.Val[row*l.In : (row+1)*l.In]
	for k, xv := range x {
		z += wRow[k] * xv
	}
	uRow := l.U.Val[row*l.H : (row+1)*l.H]
	for k, hv := range h {
		z += uRow[k] * hv
	}
	return z
}

func refForward(l *LSTM, seq [][]float64) ([][]float64, []refStep) {
	h := make([]float64, l.H)
	c := make([]float64, l.H)
	var steps []refStep
	var outs [][]float64
	for _, x := range seq {
		st := refStep{x: x, hPrev: h, cPrev: c,
			i: make([]float64, l.H), f: make([]float64, l.H),
			g: make([]float64, l.H), o: make([]float64, l.H),
			c: make([]float64, l.H), h: make([]float64, l.H)}
		for j := 0; j < l.H; j++ {
			st.i[j] = sigmoid(refGate(l, 0, j, x, h))
			st.f[j] = sigmoid(refGate(l, 1, j, x, h))
			st.g[j] = math.Tanh(refGate(l, 2, j, x, h))
			st.o[j] = sigmoid(refGate(l, 3, j, x, h))
			st.c[j] = st.f[j]*c[j] + st.i[j]*st.g[j]
			st.h[j] = st.o[j] * math.Tanh(st.c[j])
		}
		h, c = st.h, st.c
		steps = append(steps, st)
		outs = append(outs, st.h)
	}
	return outs, steps
}

func refBackward(l *LSTM, steps []refStep, dH [][]float64) [][]float64 {
	n := len(steps)
	dX := make([][]float64, n)
	dhNext := make([]float64, l.H)
	dcNext := make([]float64, l.H)
	dz := make([]float64, 4*l.H)
	for t := n - 1; t >= 0; t-- {
		st := steps[t]
		dh := make([]float64, l.H)
		copy(dh, dhNext)
		for j := range dh {
			dh[j] += dH[t][j]
		}
		dhPrev := make([]float64, l.H)
		dcPrev := make([]float64, l.H)
		for j := 0; j < l.H; j++ {
			tc := math.Tanh(st.c[j])
			do := dh[j] * tc
			dc := dcNext[j] + dh[j]*st.o[j]*(1-tc*tc)
			di := dc * st.g[j]
			df := dc * st.cPrev[j]
			dg := dc * st.i[j]
			dcPrev[j] = dc * st.f[j]
			dz[0*l.H+j] = di * st.i[j] * (1 - st.i[j])
			dz[1*l.H+j] = df * st.f[j] * (1 - st.f[j])
			dz[2*l.H+j] = dg * (1 - st.g[j]*st.g[j])
			dz[3*l.H+j] = do * st.o[j] * (1 - st.o[j])
		}
		dx := make([]float64, l.In)
		for row := 0; row < 4*l.H; row++ {
			gz := dz[row]
			if gz == 0 {
				continue
			}
			l.B.Grad[row] += gz
			wRow := l.W.Val[row*l.In : (row+1)*l.In]
			gwRow := l.W.Grad[row*l.In : (row+1)*l.In]
			for k := 0; k < l.In; k++ {
				gwRow[k] += gz * st.x[k]
				dx[k] += gz * wRow[k]
			}
			uRow := l.U.Val[row*l.H : (row+1)*l.H]
			guRow := l.U.Grad[row*l.H : (row+1)*l.H]
			for k := 0; k < l.H; k++ {
				guRow[k] += gz * st.hPrev[k]
				dhPrev[k] += gz * uRow[k]
			}
		}
		dX[t] = dx
		dhNext = dhPrev
		dcNext = dcPrev
	}
	return dX
}

// refBiForward and refBiBackward are BiLSTM.Forward/Backward over the
// reference kernels.
func refBiForward(b *BiLSTM, seq [][]float64) ([][]float64, [2][]refStep) {
	n := len(seq)
	fOut, fSteps := refForward(b.Fwd, seq)
	rev := make([][]float64, n)
	for i := range seq {
		rev[i] = seq[n-1-i]
	}
	bOut, bSteps := refForward(b.Bwd, rev)
	out := make([][]float64, n)
	for t := range seq {
		out[t] = append(append([]float64(nil), fOut[t]...), bOut[n-1-t]...)
	}
	return out, [2][]refStep{fSteps, bSteps}
}

func refBiBackward(b *BiLSTM, steps [2][]refStep, dH [][]float64) {
	n := len(dH)
	dF, dB := make([][]float64, n), make([][]float64, n)
	for t := range dH {
		dF[t] = dH[t][:b.Fwd.H]
		dB[n-1-t] = dH[t][b.Fwd.H:]
	}
	refBackward(b.Fwd, steps[0], dF)
	refBackward(b.Bwd, steps[1], dB)
}

// refPartitionAccumulate and refCompressionAccumulate are the policies'
// Accumulate as written before the forward reuse, over the reference
// kernels.
func refPartitionAccumulate(p *PartitionPolicy, seq [][]float64, mask []bool, action int, adv float64) error {
	hs, steps := refBiForward(p.enc, seq)
	n := len(seq)
	logits := make([]float64, n+2)
	for t, h := range hs {
		y, err := p.score.Forward(h)
		if err != nil {
			return err
		}
		logits[t] = y[0]
	}
	end, err := p.endScore.Forward(hs[n-1])
	if err != nil {
		return err
	}
	logits[n] = end[0]
	begin, err := p.beginScore.Forward(hs[0])
	if err != nil {
		return err
	}
	logits[n+1] = begin[0]
	dLogits := PolicyGradLogits(logits, mask, action, adv)
	dH := make([][]float64, n)
	for t, h := range hs {
		if dH[t], err = p.score.Backward(h, []float64{dLogits[t]}); err != nil {
			return err
		}
	}
	dxEnd, err := p.endScore.Backward(hs[n-1], []float64{dLogits[n]})
	if err != nil {
		return err
	}
	for k, v := range dxEnd {
		dH[n-1][k] += v
	}
	dxBegin, err := p.beginScore.Backward(hs[0], []float64{dLogits[n+1]})
	if err != nil {
		return err
	}
	for k, v := range dxBegin {
		dH[0][k] += v
	}
	refBiBackward(p.enc, steps, dH)
	return nil
}

func refCompressionAccumulate(c *CompressionPolicy, seq [][]float64, masks [][]bool, actions []int, adv float64) error {
	hs, steps := refBiForward(c.enc, seq)
	dH := make([][]float64, len(seq))
	for t, h := range hs {
		y, err := c.head.Forward(h)
		if err != nil {
			return err
		}
		var mask []bool
		if masks != nil {
			mask = masks[t]
		}
		if dH[t], err = c.head.Backward(h, PolicyGradLogits(y, mask, actions[t], adv)); err != nil {
			return err
		}
	}
	refBiBackward(c.enc, steps, dH)
	return nil
}

func randSeq(rng *rand.Rand, n, dim int) [][]float64 {
	seq := make([][]float64, n)
	for t := range seq {
		seq[t] = make([]float64, dim)
		for k := range seq[t] {
			seq[t][k] = rng.NormFloat64()
		}
	}
	return seq
}

// sameBits fails the test at the first element whose bits differ.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v (%#x), want %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

func sameGrads(t *testing.T, what string, got, want []*Param) {
	t.Helper()
	for i := range got {
		sameBits(t, fmt.Sprintf("%s grad block %d", what, i), got[i].Grad, want[i].Grad)
	}
}

// TestLSTMForwardBackwardBitExact checks outputs, parameter gradients and
// input gradients against the textbook kernels bit for bit, over random
// dimensions including H not a multiple of 4, In = 1, and a last step whose
// even units get no gradient (so their gate rows have dz == 0 and are
// skipped). Backward runs twice so gradients also accumulate onto nonzero
// values.
func TestLSTMForwardBackwardBitExact(t *testing.T) {
	dims := [][3]int{{1, 1, 1}, {1, 3, 4}, {18, 24, 37}, {5, 7, 6}, {2, 5, 9}, {3, 6, 2}}
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 12; i++ {
		dims = append(dims, [3]int{1 + rng.Intn(20), 1 + rng.Intn(30), 1 + rng.Intn(12)})
	}
	for ci, d := range dims {
		in, h, n := d[0], d[1], d[2]
		got, err := NewLSTM(in, h, rand.New(rand.NewSource(int64(ci))))
		if err != nil {
			t.Fatal(err)
		}
		want, _ := NewLSTM(in, h, rand.New(rand.NewSource(int64(ci))))
		seq := randSeq(rng, n, in)
		dH := randSeq(rng, n, h)
		for j := 0; j < h; j += 2 {
			dH[n-1][j] = 0
		}
		name := fmt.Sprintf("in=%d h=%d n=%d", in, h, n)
		outs, cache, err := got.Forward(seq)
		if err != nil {
			t.Fatal(err)
		}
		wantOuts, steps := refForward(want, seq)
		for tt := range outs {
			sameBits(t, fmt.Sprintf("%s h[%d]", name, tt), outs[tt], wantOuts[tt])
		}
		for pass := 0; pass < 2; pass++ {
			dX, err := got.Backward(cache, dH)
			if err != nil {
				t.Fatal(err)
			}
			wantDX := refBackward(want, steps, dH)
			for tt := range dX {
				sameBits(t, fmt.Sprintf("%s pass %d dX[%d]", name, pass, tt), dX[tt], wantDX[tt])
			}
			sameGrads(t, fmt.Sprintf("%s pass %d", name, pass), got.Params(), want.Params())
		}
	}
}

// TestBiLSTMAndPoliciesBitExact extends the oracle to the bidirectional
// encoder and to both policies' Accumulate, on the reused (sampled) and the
// recomputed (unsampled) path.
func TestBiLSTMAndPoliciesBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for ci, d := range [][3]int{{18, 24, 37}, {1, 5, 3}, {4, 7, 1}, {6, 3, 8}} {
		in, h, n := d[0], d[1], d[2]
		name := fmt.Sprintf("in=%d h=%d n=%d", in, h, n)
		seed := int64(100 + ci)

		got, _ := NewBiLSTM(in, h, rand.New(rand.NewSource(seed)))
		want, _ := NewBiLSTM(in, h, rand.New(rand.NewSource(seed)))
		seq := randSeq(rng, n, in)
		dH := randSeq(rng, n, got.OutDim())
		outs, cache, err := got.Forward(seq)
		if err != nil {
			t.Fatal(err)
		}
		wantOuts, steps := refBiForward(want, seq)
		for tt := range outs {
			sameBits(t, fmt.Sprintf("bilstm %s out[%d]", name, tt), outs[tt], wantOuts[tt])
		}
		if err := got.Backward(cache, dH); err != nil {
			t.Fatal(err)
		}
		refBiBackward(want, steps, dH)
		sameGrads(t, "bilstm "+name, got.Params(), want.Params())

		pp, _ := NewPartitionPolicy(in, h, 0.01, rand.New(rand.NewSource(seed)))
		wp, _ := NewPartitionPolicy(in, h, 0.01, rand.New(rand.NewSource(seed)))
		mask := make([]bool, n+2)
		for i := range mask {
			mask[i] = i%3 != 1
		}
		a, err := pp.Sample(seq, mask, rng)
		if err != nil {
			t.Fatal(err)
		}
		other := randSeq(rng, n, in)
		if err := pp.Accumulate(seq, mask, a, 0.7); err != nil {
			t.Fatal(err)
		}
		if err := pp.Accumulate(other, nil, n, -1.3); err != nil {
			t.Fatal(err)
		}
		if err := refPartitionAccumulate(wp, seq, mask, a, 0.7); err != nil {
			t.Fatal(err)
		}
		if err := refPartitionAccumulate(wp, other, nil, n, -1.3); err != nil {
			t.Fatal(err)
		}
		sameGrads(t, "partition "+name, pp.opt.params, wp.opt.params)

		const actions = 5
		cp, _ := NewCompressionPolicy(in, h, actions, 0.01, rand.New(rand.NewSource(seed)))
		wc, _ := NewCompressionPolicy(in, h, actions, 0.01, rand.New(rand.NewSource(seed)))
		masks := make([][]bool, n)
		for tt := range masks {
			if tt%2 == 0 {
				masks[tt] = []bool{true, false, true, true, tt%4 == 0}
			}
		}
		acts, err := cp.SampleAll(seq, masks, rng)
		if err != nil {
			t.Fatal(err)
		}
		otherActs := make([]int, n)
		for tt := range otherActs {
			otherActs[tt] = tt % actions
		}
		if err := cp.Accumulate(seq, masks, acts, 0.4); err != nil {
			t.Fatal(err)
		}
		if err := cp.Accumulate(other, nil, otherActs, 2.1); err != nil {
			t.Fatal(err)
		}
		if err := refCompressionAccumulate(wc, seq, masks, acts, 0.4); err != nil {
			t.Fatal(err)
		}
		if err := refCompressionAccumulate(wc, other, nil, otherActs, 2.1); err != nil {
			t.Fatal(err)
		}
		sameGrads(t, "compression "+name, cp.opt.params, wc.opt.params)
	}
}
