package core

import (
	"encoding/json"
	"hash/fnv"
	"math"
	"testing"

	"cadmc/internal/nn"
)

// TestOptimalTreeRewardsPinned pins the exact rewards a short VGG11 tree
// search reaches under controller seeds 1 and 2, and a hash of both trained
// controllers' weights. The rewards only move when a change to the RL
// controllers' arithmetic (LSTM summation order, forward reuse between
// Sample and Accumulate, optimiser) flips a sampled action; the weight hash
// moves on any changed bit. The goldens were captured before the LSTM
// forward reuse and the allocation-free LSTM kernels went in, and must stay
// as they are.
func TestOptimalTreeRewardsPinned(t *testing.T) {
	p := newTestProblem(t, nn.VGG11(nn.CIFARInput, nn.CIFARClasses))
	for _, tc := range []struct {
		seed             int64
		root, best, hash uint64
	}{
		{1, 0x40767101a96f3fec, 0x40768ba75d505652, 0x775e39f6445b7ab5}, // 359.0629057260219, 360.7283604753658
		{2, 0x407658388a08d877, 0x40768d4f446bc2de, 0xe4a4fa89ee7944a1}, // 357.51380351500796, 360.83185236067027
	} {
		p.Memo = NewMemoPool()
		cfg := DefaultTreeConfig([]float64{1, 6})
		cfg.Episodes = 24
		cfg.BranchBudget = 24
		cfg.Seed = tc.seed
		cfg.RL.Seed = tc.seed
		strat, err := NewRLStrategy(len(p.Techniques), cfg.RL)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Strategy = strat
		res, err := OptimalTree(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		root := math.Float64bits(res.Tree.Root.Reward)
		best := math.Float64bits(res.BestBranchReward)
		if root != tc.root || best != tc.best {
			t.Errorf("seed %d: root reward bits %#x, best branch reward bits %#x; want %#x, %#x",
				tc.seed, root, best, tc.root, tc.best)
		}
		h := fnv.New64a()
		for _, pol := range []json.Marshaler{strat.Partition, strat.Compression} {
			data, err := pol.MarshalJSON()
			if err != nil {
				t.Fatal(err)
			}
			h.Write(data)
		}
		if got := h.Sum64(); got != tc.hash {
			t.Errorf("seed %d: controller weight hash %#x, want %#x", tc.seed, got, tc.hash)
		}
	}
}
