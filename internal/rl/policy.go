package rl

import (
	"fmt"
	"math/rand"
)

// encoderPass is one encoder forward over a sequence together with the
// logits the heads read from it: everything Accumulate needs besides the
// sampled actions.
type encoderPass struct {
	hs     [][]float64
	cache  *BiCache
	logits []float64 // partition: L+2 scores; compression: L rows of Actions
}

// seqKey identifies a sequence by its backing array and length.
type seqKey struct {
	first *[]float64
	n     int
}

// passMemo remembers the encoder pass Sample ran on each sequence, keyed by
// the sequence's identity, so Accumulate on the same (unmodified) sequence
// reuses it instead of re-running a forward with unchanged weights. The
// reuse is exact: the weights only change in Step and UnmarshalJSON, which
// drop the memo, and an entry is dropped once Accumulate consumes it.
type passMemo map[seqKey]*encoderPass

func (m passMemo) put(seq [][]float64, p *encoderPass) {
	m[seqKey{&seq[0], len(seq)}] = p
}

// take returns and drops the pass remembered for seq, if any.
func (m passMemo) take(seq [][]float64) (*encoderPass, bool) {
	k := seqKey{&seq[0], len(seq)}
	p, ok := m[k]
	delete(m, k)
	return p, ok
}

// checkMask reports a mask whose length is not the action count n; nil
// masks allow everything.
func checkMask(mask []bool, n int) error {
	if mask != nil && len(mask) != n {
		return fmt.Errorf("rl: mask has %d entries for %d actions", len(mask), n)
	}
	return nil
}

// PartitionPolicy is the paper's partition search controller (Fig. 6, upper):
// a bidirectional LSTM over the layer hyper-parameter sequence with a softmax
// over L+2 choices — cut after layer t (0 ≤ t < L), index L meaning no
// partition, or index L+1 meaning offload before the first layer (the whole
// sequence runs on the cloud). The variable sequence length is handled with a
// per-timestep scalar score head plus end- and begin-of-sequence score heads
// for the two special actions.
type PartitionPolicy struct {
	enc        *BiLSTM
	score      *Linear
	endScore   *Linear
	beginScore *Linear
	opt        *Adam
	passes     passMemo
}

// NewPartitionPolicy builds the controller.
func NewPartitionPolicy(inDim, hidden int, lr float64, rng *rand.Rand) (*PartitionPolicy, error) {
	enc, err := NewBiLSTM(inDim, hidden, rng)
	if err != nil {
		return nil, err
	}
	score, err := NewLinear(enc.OutDim(), 1, rng)
	if err != nil {
		return nil, err
	}
	endScore, err := NewLinear(enc.OutDim(), 1, rng)
	if err != nil {
		return nil, err
	}
	beginScore, err := NewLinear(enc.OutDim(), 1, rng)
	if err != nil {
		return nil, err
	}
	params := append(enc.Params(), score.Params()...)
	params = append(params, endScore.Params()...)
	params = append(params, beginScore.Params()...)
	opt, err := NewAdam(lr, params)
	if err != nil {
		return nil, err
	}
	return &PartitionPolicy{enc: enc, score: score, endScore: endScore, beginScore: beginScore, opt: opt,
		passes: passMemo{}}, nil
}

// forward encodes seq and scores the L+2 partition actions.
func (p *PartitionPolicy) forward(seq [][]float64) (*encoderPass, error) {
	if len(seq) == 0 {
		return nil, fmt.Errorf("rl: partition policy needs a non-empty sequence")
	}
	hs, cache, err := p.enc.Forward(seq)
	if err != nil {
		return nil, err
	}
	n := len(seq)
	logits := make([]float64, n+2)
	for t, h := range hs {
		p.score.forwardInto(logits[t:t+1], h)
	}
	p.endScore.forwardInto(logits[n:n+1], hs[n-1])
	p.beginScore.forwardInto(logits[n+1:n+2], hs[0])
	return &encoderPass{hs: hs, cache: cache, logits: logits}, nil
}

// Logits returns the L+2 partition logits for the encoded sequence.
func (p *PartitionPolicy) Logits(seq [][]float64) ([]float64, error) {
	fp, err := p.forward(seq)
	if err != nil {
		return nil, err
	}
	return fp.logits, nil
}

// Sample draws a partition action from the current policy. mask (length
// L+2, one entry per action in [0, L+1]) may exclude illegal cut points;
// nil allows everything. The encoder pass is kept for Accumulate on the
// same sequence until Step, Forget or UnmarshalJSON.
func (p *PartitionPolicy) Sample(seq [][]float64, mask []bool, rng *rand.Rand) (int, error) {
	fp, err := p.forward(seq)
	if err != nil {
		return 0, err
	}
	a, err := SampleCategorical(fp.logits, mask, rng)
	if err != nil {
		return 0, err
	}
	p.passes.put(seq, fp)
	return a, nil
}

// Accumulate adds the policy gradient for one (sequence, action, advantage)
// triple. Call Step to apply accumulated updates. A sequence sampled since
// the last Step must not have been modified in between: its encoder pass is
// reused.
func (p *PartitionPolicy) Accumulate(seq [][]float64, mask []bool, action int, advantage float64) error {
	if len(seq) == 0 {
		return fmt.Errorf("rl: partition policy needs a non-empty sequence")
	}
	n := len(seq)
	if action < 0 || action > n+1 {
		return fmt.Errorf("rl: partition action %d out of range [0,%d]", action, n+1)
	}
	if err := checkMask(mask, n+2); err != nil {
		return err
	}
	fp, ok := p.passes.take(seq)
	if !ok {
		var err error
		if fp, err = p.forward(seq); err != nil {
			return err
		}
	}
	hs := fp.hs
	dLogits := PolicyGradLogits(fp.logits, mask, action, advantage)
	dH := make([][]float64, n)
	for t, h := range hs {
		dx, err := p.score.Backward(h, dLogits[t:t+1])
		if err != nil {
			return err
		}
		dH[t] = dx
	}
	dxEnd, err := p.endScore.Backward(hs[n-1], dLogits[n:n+1])
	if err != nil {
		return err
	}
	for k, v := range dxEnd {
		dH[n-1][k] += v
	}
	dxBegin, err := p.beginScore.Backward(hs[0], dLogits[n+1:n+2])
	if err != nil {
		return err
	}
	for k, v := range dxBegin {
		dH[0][k] += v
	}
	return p.enc.Backward(fp.cache, dH)
}

// Step applies the accumulated gradients and forgets the sampled passes.
func (p *PartitionPolicy) Step() {
	p.opt.Step()
	p.Forget()
}

// Forget drops the encoder passes kept by Sample. Step does it too; call it
// at the end of an episode that applied no update.
func (p *PartitionPolicy) Forget() { clear(p.passes) }

// CompressionPolicy is the paper's compression search controller (Fig. 6,
// lower): a bidirectional LSTM whose per-timestep hidden state feeds a
// softmax over the technique set, emitting one action per layer.
type CompressionPolicy struct {
	enc  *BiLSTM
	head *Linear
	opt  *Adam
	// Actions is the size of the technique action space.
	Actions int
	passes  passMemo
}

// NewCompressionPolicy builds the controller with the given action count.
func NewCompressionPolicy(inDim, hidden, actions int, lr float64, rng *rand.Rand) (*CompressionPolicy, error) {
	if actions <= 0 {
		return nil, fmt.Errorf("rl: action count must be positive, got %d", actions)
	}
	enc, err := NewBiLSTM(inDim, hidden, rng)
	if err != nil {
		return nil, err
	}
	head, err := NewLinear(enc.OutDim(), actions, rng)
	if err != nil {
		return nil, err
	}
	opt, err := NewAdam(lr, append(enc.Params(), head.Params()...))
	if err != nil {
		return nil, err
	}
	return &CompressionPolicy{enc: enc, head: head, opt: opt, Actions: actions, passes: passMemo{}}, nil
}

// forward encodes seq and computes the per-timestep action logits.
func (c *CompressionPolicy) forward(seq [][]float64) (*encoderPass, error) {
	if len(seq) == 0 {
		return nil, fmt.Errorf("rl: compression policy needs a non-empty sequence")
	}
	hs, cache, err := c.enc.Forward(seq)
	if err != nil {
		return nil, err
	}
	logits := make([]float64, len(seq)*c.Actions)
	for t, h := range hs {
		c.head.forwardInto(c.row(logits, t), h)
	}
	return &encoderPass{hs: hs, cache: cache, logits: logits}, nil
}

// row returns timestep t's action logits within a flat logit block.
func (c *CompressionPolicy) row(logits []float64, t int) []float64 {
	return logits[t*c.Actions : (t+1)*c.Actions : (t+1)*c.Actions]
}

// checkMasks reports masks that do not give one mask per timestep of
// Actions entries; nil masks, or nil entries, allow everything.
func (c *CompressionPolicy) checkMasks(masks [][]bool, n int) error {
	if masks == nil {
		return nil
	}
	if len(masks) != n {
		return fmt.Errorf("rl: %d masks for %d timesteps", len(masks), n)
	}
	for t, m := range masks {
		if err := checkMask(m, c.Actions); err != nil {
			return fmt.Errorf("timestep %d: %w", t, err)
		}
	}
	return nil
}

// Logits returns per-timestep action logits.
func (c *CompressionPolicy) Logits(seq [][]float64) ([][]float64, error) {
	fp, err := c.forward(seq)
	if err != nil {
		return nil, err
	}
	out := make([][]float64, len(seq))
	for t := range out {
		out[t] = c.row(fp.logits, t)
	}
	return out, nil
}

// SampleAll draws one action per timestep. masks[t] (length Actions) may
// exclude techniques inapplicable at layer t; a nil masks slice or nil entry
// allows everything. The encoder pass is kept for Accumulate on the same
// sequence until Step, Forget or UnmarshalJSON.
func (c *CompressionPolicy) SampleAll(seq [][]float64, masks [][]bool, rng *rand.Rand) ([]int, error) {
	if err := c.checkMasks(masks, len(seq)); err != nil {
		return nil, err
	}
	fp, err := c.forward(seq)
	if err != nil {
		return nil, err
	}
	actions := make([]int, len(seq))
	for t := range actions {
		var mask []bool
		if masks != nil {
			mask = masks[t]
		}
		a, err := SampleCategorical(c.row(fp.logits, t), mask, rng)
		if err != nil {
			return nil, err
		}
		actions[t] = a
	}
	c.passes.put(seq, fp)
	return actions, nil
}

// Accumulate adds the policy gradient for one episode step: the joint
// log-probability of the per-layer actions, scaled by the advantage. A
// sequence sampled since the last Step must not have been modified in
// between: its encoder pass is reused.
func (c *CompressionPolicy) Accumulate(seq [][]float64, masks [][]bool, actions []int, advantage float64) error {
	if len(seq) == 0 {
		return fmt.Errorf("rl: compression policy needs a non-empty sequence")
	}
	if len(actions) != len(seq) {
		return fmt.Errorf("rl: %d actions for %d timesteps", len(actions), len(seq))
	}
	if err := c.checkMasks(masks, len(seq)); err != nil {
		return err
	}
	for t, a := range actions {
		if a < 0 || a >= c.Actions {
			return fmt.Errorf("rl: timestep %d action %d out of range [0,%d)", t, a, c.Actions)
		}
	}
	fp, ok := c.passes.take(seq)
	if !ok {
		var err error
		if fp, err = c.forward(seq); err != nil {
			return err
		}
	}
	dH := make([][]float64, len(seq))
	for t, h := range fp.hs {
		var mask []bool
		if masks != nil {
			mask = masks[t]
		}
		dLogits := PolicyGradLogits(c.row(fp.logits, t), mask, actions[t], advantage)
		dx, err := c.head.Backward(h, dLogits)
		if err != nil {
			return err
		}
		dH[t] = dx
	}
	return c.enc.Backward(fp.cache, dH)
}

// Step applies the accumulated gradients and forgets the sampled passes.
func (c *CompressionPolicy) Step() {
	c.opt.Step()
	c.Forget()
}

// Forget drops the encoder passes kept by SampleAll. Step does it too; call
// it at the end of an episode that applied no update.
func (c *CompressionPolicy) Forget() { clear(c.passes) }
