package core

import (
	"fmt"
	"math/rand"

	"cadmc/internal/rl"
)

// Decision records one controller decision for later credit assignment.
type Decision struct {
	// Site identifies the decision point (e.g. "p/blk1/fork0" or
	// "c/blk1/fork0") for strategies with tabular state.
	Site string
	// Partition reports whether this is a partition (true) or compression
	// (false) decision.
	Partition bool
	Seq       [][]float64
	Mask      []bool   // partition decisions
	Masks     [][]bool // compression decisions
	Action    int      // partition decisions
	Actions   []int    // compression decisions
}

// Strategy abstracts how actions are chosen and how episode rewards update
// the chooser, so the same search loops (Alg. 1 and Alg. 3) can run under the
// RL controllers, random search, or ε-greedy search (the Fig. 7 comparison).
type Strategy interface {
	// SelectPartition returns an action in [0, len(seq)+1] honouring mask:
	// a cut after layer t < len(seq), len(seq) for no partition, or
	// len(seq)+1 to offload before the first layer.
	SelectPartition(site string, seq [][]float64, mask []bool) (int, error)
	// SelectCompression returns one technique index per timestep honouring
	// masks.
	SelectCompression(site string, seq [][]float64, masks [][]bool) ([]int, error)
	// Observe credits the decisions with the achieved reward.
	Observe(decisions []Decision, reward float64) error
	// Commit applies accumulated updates (end of episode).
	Commit()
}

// RLStrategy is the paper's learner: the two LSTM controllers trained by
// Monte-Carlo policy gradient with an EMA baseline.
type RLStrategy struct {
	Partition   *rl.PartitionPolicy
	Compression *rl.CompressionPolicy
	Baseline    *rl.Baseline
	rng         *rand.Rand
	dirty       bool
}

var _ Strategy = (*RLStrategy)(nil)

// RLConfig parameterises the controllers.
type RLConfig struct {
	Hidden        int
	LR            float64
	BaselineDecay float64
	Seed          int64
}

// DefaultRLConfig returns a configuration that converges within a few
// hundred episodes on the paper's problems.
func DefaultRLConfig() RLConfig {
	return RLConfig{Hidden: 24, LR: 0.01, BaselineDecay: 0.85, Seed: 1}
}

// NewRLStrategy builds the two controllers over the given action count.
func NewRLStrategy(actions int, cfg RLConfig) (*RLStrategy, error) {
	if cfg.Hidden <= 0 || cfg.LR <= 0 {
		return nil, fmt.Errorf("core: invalid RL config %+v", cfg)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	pp, err := rl.NewPartitionPolicy(featureDim, cfg.Hidden, cfg.LR, rng)
	if err != nil {
		return nil, err
	}
	cp, err := rl.NewCompressionPolicy(featureDim, cfg.Hidden, actions, cfg.LR, rng)
	if err != nil {
		return nil, err
	}
	return &RLStrategy{
		Partition:   pp,
		Compression: cp,
		Baseline:    rl.NewBaseline(cfg.BaselineDecay),
		rng:         rng,
	}, nil
}

// SelectPartition implements Strategy.
func (s *RLStrategy) SelectPartition(_ string, seq [][]float64, mask []bool) (int, error) {
	return s.Partition.Sample(seq, mask, s.rng)
}

// SelectCompression implements Strategy.
func (s *RLStrategy) SelectCompression(_ string, seq [][]float64, masks [][]bool) ([]int, error) {
	return s.Compression.SampleAll(seq, masks, s.rng)
}

// Observe implements Strategy: REINFORCE with baseline (Eq. 10).
func (s *RLStrategy) Observe(decisions []Decision, reward float64) error {
	adv := s.Baseline.Update(reward)
	if adv == 0 {
		return nil
	}
	for _, d := range decisions {
		var err error
		if d.Partition {
			err = s.Partition.Accumulate(d.Seq, d.Mask, d.Action, adv)
		} else {
			err = s.Compression.Accumulate(d.Seq, d.Masks, d.Actions, adv)
		}
		if err != nil {
			return err
		}
	}
	s.dirty = true
	return nil
}

// Commit implements Strategy. It also drops the encoder passes the
// controllers kept from this episode's samples, so they never outlive it.
func (s *RLStrategy) Commit() {
	if !s.dirty {
		s.Partition.Forget()
		s.Compression.Forget()
		return
	}
	s.Partition.Step()
	s.Compression.Step()
	s.dirty = false
}

// RandomStrategy samples uniformly over the unmasked actions — the Fig. 7
// "random search" baseline.
type RandomStrategy struct {
	rng *rand.Rand
}

var _ Strategy = (*RandomStrategy)(nil)

// NewRandomStrategy builds a seeded uniform sampler.
func NewRandomStrategy(seed int64) *RandomStrategy {
	return &RandomStrategy{rng: rand.New(rand.NewSource(seed))}
}

// SelectPartition implements Strategy.
func (s *RandomStrategy) SelectPartition(_ string, seq [][]float64, mask []bool) (int, error) {
	return uniformPick(len(seq)+2, mask, s.rng)
}

// SelectCompression implements Strategy. The per-layer masks define the
// action space, so they are required.
func (s *RandomStrategy) SelectCompression(_ string, seq [][]float64, masks [][]bool) ([]int, error) {
	if len(masks) != len(seq) {
		return nil, fmt.Errorf("core: random strategy needs one applicability mask per layer")
	}
	out := make([]int, len(seq))
	for t := range seq {
		a, err := uniformPick(len(masks[t]), masks[t], s.rng)
		if err != nil {
			return nil, err
		}
		out[t] = a
	}
	return out, nil
}

// Observe implements Strategy (no learning).
func (s *RandomStrategy) Observe([]Decision, float64) error { return nil }

// Commit implements Strategy (no learning).
func (s *RandomStrategy) Commit() {}

// EpsilonGreedyStrategy remembers the best-known action per decision site and
// replays it with probability 1−ε, exploring uniformly otherwise — the
// Fig. 7 "ε-greedy search" baseline.
type EpsilonGreedyStrategy struct {
	Epsilon float64
	rng     *rand.Rand
	bestP   map[string]int
	bestC   map[string][]int
	bestR   map[string]float64
}

var _ Strategy = (*EpsilonGreedyStrategy)(nil)

// NewEpsilonGreedyStrategy builds the searcher with exploration rate eps.
func NewEpsilonGreedyStrategy(eps float64, seed int64) (*EpsilonGreedyStrategy, error) {
	if eps <= 0 || eps > 1 {
		return nil, fmt.Errorf("core: epsilon %v out of (0,1]", eps)
	}
	return &EpsilonGreedyStrategy{
		Epsilon: eps,
		rng:     rand.New(rand.NewSource(seed)),
		bestP:   make(map[string]int),
		bestC:   make(map[string][]int),
		bestR:   make(map[string]float64),
	}, nil
}

// SelectPartition implements Strategy.
func (s *EpsilonGreedyStrategy) SelectPartition(site string, seq [][]float64, mask []bool) (int, error) {
	if a, ok := s.bestP[site]; ok && s.rng.Float64() >= s.Epsilon {
		if mask == nil || (a < len(mask) && mask[a]) {
			return a, nil
		}
	}
	return uniformPick(len(seq)+2, mask, s.rng)
}

// SelectCompression implements Strategy.
func (s *EpsilonGreedyStrategy) SelectCompression(site string, seq [][]float64, masks [][]bool) ([]int, error) {
	if best, ok := s.bestC[site]; ok && len(best) == len(seq) && s.rng.Float64() >= s.Epsilon {
		out := make([]int, len(best))
		copy(out, best)
		return out, nil
	}
	if len(masks) != len(seq) {
		return nil, fmt.Errorf("core: ε-greedy strategy needs one applicability mask per layer")
	}
	out := make([]int, len(seq))
	for t := range seq {
		a, err := uniformPick(len(masks[t]), masks[t], s.rng)
		if err != nil {
			return nil, err
		}
		out[t] = a
	}
	return out, nil
}

// Observe implements Strategy: keep the per-site actions of the best episode.
func (s *EpsilonGreedyStrategy) Observe(decisions []Decision, reward float64) error {
	for _, d := range decisions {
		if prev, ok := s.bestR[d.Site]; ok && reward <= prev {
			continue
		}
		s.bestR[d.Site] = reward
		if d.Partition {
			s.bestP[d.Site] = d.Action
		} else {
			cp := make([]int, len(d.Actions))
			copy(cp, d.Actions)
			s.bestC[d.Site] = cp
		}
	}
	return nil
}

// Commit implements Strategy (state already updated in Observe).
func (s *EpsilonGreedyStrategy) Commit() {}

func uniformPick(n int, mask []bool, rng *rand.Rand) (int, error) {
	if n <= 0 {
		return 0, fmt.Errorf("core: empty action space")
	}
	allowed := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if mask == nil || (i < len(mask) && mask[i]) {
			allowed = append(allowed, i)
		}
	}
	if len(allowed) == 0 {
		return 0, fmt.Errorf("core: all actions masked")
	}
	return allowed[rng.Intn(len(allowed))], nil
}

func actionCount(mask []bool, fallback int) int {
	if mask != nil {
		return len(mask)
	}
	return fallback
}
