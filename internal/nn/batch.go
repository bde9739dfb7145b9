package nn

import (
	"fmt"

	"cadmc/internal/tensor"
)

// ForwardBatch runs a batch of inputs through the whole network in one
// batched pass. It is the serving gateway's amortised entry point: see
// ForwardRangeBatch for the execution strategy.
func (n *Net) ForwardBatch(xs []*tensor.Tensor) ([]*tensor.Tensor, error) {
	return n.ForwardRangeBatch(xs, 0, len(n.Model.Layers))
}

// ForwardRangeBatch runs layers [from, to) over a batch of activations and
// returns one output per input, bit-identical to running ForwardRange on
// each input alone. The inference executor (infer.go) fans the batch out
// one sample per pool task, each running the whole range inline on its own
// workspace, so the only fork/join per batch is the fan-out itself.
func (n *Net) ForwardRangeBatch(xs []*tensor.Tensor, from, to int) ([]*tensor.Tensor, error) {
	if len(xs) == 0 {
		return nil, fmt.Errorf("nn: batched forward over an empty batch")
	}
	return n.infer(xs, from, to)
}
