package rl

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSoftmaxProperties(t *testing.T) {
	f := func(xs []float64) bool {
		if len(xs) == 0 {
			return true
		}
		for i := range xs {
			if math.IsNaN(xs[i]) || math.IsInf(xs[i], 0) {
				xs[i] = 0
			}
			// Clamp to a sane range; softmax of wild magnitudes saturates.
			if xs[i] > 500 {
				xs[i] = 500
			}
			if xs[i] < -500 {
				xs[i] = -500
			}
		}
		p := Softmax(xs)
		sum := 0.0
		for _, v := range p {
			if v < 0 || v > 1 {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSampleCategoricalRespectsMask(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	logits := []float64{10, 0, 0}
	mask := []bool{false, true, true}
	for i := 0; i < 100; i++ {
		a, err := SampleCategorical(logits, mask, rng)
		if err != nil {
			t.Fatal(err)
		}
		if a == 0 {
			t.Fatal("sampled a masked action")
		}
	}
	if _, err := SampleCategorical(logits, []bool{false, false, false}, rng); err == nil {
		t.Fatal("expected all-masked error")
	}
	if _, err := SampleCategorical(nil, nil, rng); err == nil {
		t.Fatal("expected empty-logits error")
	}
}

func TestSampleCategoricalDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	logits := []float64{math.Log(8), math.Log(1), math.Log(1)}
	counts := make([]int, 3)
	const n = 5000
	for i := 0; i < n; i++ {
		a, err := SampleCategorical(logits, nil, rng)
		if err != nil {
			t.Fatal(err)
		}
		counts[a]++
	}
	frac := float64(counts[0]) / n
	if frac < 0.74 || frac > 0.86 {
		t.Fatalf("action 0 sampled %.3f of the time, want ≈0.8", frac)
	}
}

func TestArgmax(t *testing.T) {
	if Argmax([]float64{1, 5, 3}, nil) != 1 {
		t.Fatal("argmax wrong")
	}
	if Argmax([]float64{1, 5, 3}, []bool{true, false, true}) != 2 {
		t.Fatal("masked argmax wrong")
	}
}

func TestPolicyGradLogitsDirection(t *testing.T) {
	logits := []float64{0, 0, 0}
	grad := PolicyGradLogits(logits, nil, 1, 2.0)
	// Positive advantage: minimising the loss must push the chosen action's
	// logit up, i.e. its gradient must be negative.
	if grad[1] >= 0 {
		t.Fatalf("chosen-action gradient %v, want negative", grad[1])
	}
	if grad[0] <= 0 || grad[2] <= 0 {
		t.Fatal("other actions must be pushed down")
	}
	sum := grad[0] + grad[1] + grad[2]
	if math.Abs(sum) > 1e-9 {
		t.Fatalf("policy gradient must sum to zero, got %v", sum)
	}
	// Masked entries receive no gradient.
	gm := PolicyGradLogits(logits, []bool{true, true, false}, 0, 1)
	if gm[2] != 0 {
		t.Fatal("masked entry must have zero gradient")
	}
}

func TestBaseline(t *testing.T) {
	b := NewBaseline(0.9)
	if adv := b.Update(10); adv != 0 {
		t.Fatalf("first update advantage %v, want 0 (initialisation)", adv)
	}
	adv := b.Update(20)
	if adv != 10 {
		t.Fatalf("advantage = %v, want 10", adv)
	}
	if b.Value() <= 10 || b.Value() >= 20 {
		t.Fatalf("baseline %v must move toward the new reward", b.Value())
	}
}

// The partition policy must learn to prefer a rewarded cut position.
func TestPartitionPolicyLearns(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pol, err := NewPartitionPolicy(4, 8, 0.02, rng)
	if err != nil {
		t.Fatal(err)
	}
	seq := [][]float64{
		{1, 0, 0, 0},
		{0, 1, 0, 0},
		{0, 0, 1, 0},
		{0, 0, 0, 1},
	}
	const target = 2
	baseline := NewBaseline(0.8)
	for ep := 0; ep < 150; ep++ {
		a, err := pol.Sample(seq, nil, rng)
		if err != nil {
			t.Fatal(err)
		}
		reward := 0.0
		if a == target {
			reward = 1.0
		}
		adv := baseline.Update(reward)
		if err := pol.Accumulate(seq, nil, a, adv); err != nil {
			t.Fatal(err)
		}
		pol.Step()
	}
	logits, err := pol.Logits(seq)
	if err != nil {
		t.Fatal(err)
	}
	if Argmax(logits, nil) != target {
		t.Fatalf("policy did not learn target cut: logits %v", logits)
	}
}

// The compression policy must learn per-timestep preferences.
func TestCompressionPolicyLearns(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	pol, err := NewCompressionPolicy(3, 8, 3, 0.02, rng)
	if err != nil {
		t.Fatal(err)
	}
	seq := [][]float64{{1, 0, 0}, {0, 1, 0}}
	// Reward action t at timestep t.
	baseline := NewBaseline(0.8)
	for ep := 0; ep < 200; ep++ {
		actions, err := pol.SampleAll(seq, nil, rng)
		if err != nil {
			t.Fatal(err)
		}
		reward := 0.0
		for tt, a := range actions {
			if a == tt {
				reward += 0.5
			}
		}
		adv := baseline.Update(reward)
		if err := pol.Accumulate(seq, nil, actions, adv); err != nil {
			t.Fatal(err)
		}
		pol.Step()
	}
	logits, err := pol.Logits(seq)
	if err != nil {
		t.Fatal(err)
	}
	for tt := range seq {
		if Argmax(logits[tt], nil) != tt {
			t.Fatalf("timestep %d did not learn its action: %v", tt, logits[tt])
		}
	}
}

func TestPolicyValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pol, err := NewPartitionPolicy(2, 4, 0.01, rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pol.Logits(nil); err == nil {
		t.Fatal("expected empty-sequence error")
	}
	if err := pol.Accumulate([][]float64{{1, 2}}, nil, 5, 1); err == nil {
		t.Fatal("expected action-range error")
	}
	cp, err := NewCompressionPolicy(2, 4, 3, 0.01, rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cp.Logits(nil); err == nil {
		t.Fatal("expected empty-sequence error")
	}
	if err := cp.Accumulate([][]float64{{1, 2}}, nil, []int{1, 2}, 1); err == nil {
		t.Fatal("expected action-count error")
	}
	if _, err := NewCompressionPolicy(2, 4, 0, 0.01, rng); err == nil {
		t.Fatal("expected action-space error")
	}
}

// Property: masked sampling never returns a masked index.
func TestSampleMaskProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(6)
		logits := make([]float64, n)
		mask := make([]bool, n)
		anyAllowed := false
		for i := range logits {
			logits[i] = r.NormFloat64() * 3
			mask[i] = r.Float64() < 0.6
			anyAllowed = anyAllowed || mask[i]
		}
		if !anyAllowed {
			mask[0] = true
		}
		a, err := SampleCategorical(logits, mask, rng)
		if err != nil {
			return false
		}
		return mask[a]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// A mask must have one entry per action: short masks used to panic with an
// index out of range and long ones were silently accepted.
func TestMaskLengthChecked(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pp, err := NewPartitionPolicy(2, 3, 0.01, rng)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := NewCompressionPolicy(2, 3, 3, 0.01, rng)
	if err != nil {
		t.Fatal(err)
	}
	seq := [][]float64{{1, 0}, {0, 1}} // L = 2: 4 partition actions
	allow := func(n int) []bool {
		m := make([]bool, n)
		for i := range m {
			m[i] = true
		}
		return m
	}
	for _, tc := range []struct {
		name string
		call func() error
		ok   bool
	}{
		{"categorical short", func() error { _, err := SampleCategorical([]float64{1, 2, 3}, allow(2), rng); return err }, false},
		{"categorical long", func() error { _, err := SampleCategorical([]float64{1, 2, 3}, allow(4), rng); return err }, false},
		{"categorical exact", func() error { _, err := SampleCategorical([]float64{1, 2, 3}, allow(3), rng); return err }, true},
		{"partition sample nil", func() error { _, err := pp.Sample(seq, nil, rng); return err }, true},
		{"partition sample exact", func() error { _, err := pp.Sample(seq, allow(4), rng); return err }, true},
		{"partition sample short", func() error { _, err := pp.Sample(seq, allow(3), rng); return err }, false},
		{"partition sample long", func() error { _, err := pp.Sample(seq, allow(5), rng); return err }, false},
		{"partition accumulate exact", func() error { return pp.Accumulate(seq, allow(4), 3, 1) }, true},
		{"partition accumulate short", func() error { return pp.Accumulate(seq, allow(3), 0, 1) }, false},
		{"partition accumulate long", func() error { return pp.Accumulate(seq, allow(5), 0, 1) }, false},
		{"compression sample nil", func() error { _, err := cp.SampleAll(seq, nil, rng); return err }, true},
		{"compression sample nil entry", func() error { _, err := cp.SampleAll(seq, [][]bool{nil, allow(3)}, rng); return err }, true},
		{"compression sample short", func() error { _, err := cp.SampleAll(seq, [][]bool{allow(3), allow(2)}, rng); return err }, false},
		{"compression sample long", func() error { _, err := cp.SampleAll(seq, [][]bool{allow(4), allow(3)}, rng); return err }, false},
		{"compression sample too few masks", func() error { _, err := cp.SampleAll(seq, [][]bool{allow(3)}, rng); return err }, false},
		{"compression accumulate exact", func() error { return cp.Accumulate(seq, [][]bool{allow(3), allow(3)}, []int{0, 2}, 1) }, true},
		{"compression accumulate short", func() error { return cp.Accumulate(seq, [][]bool{allow(2), allow(3)}, []int{0, 0}, 1) }, false},
		{"compression accumulate long", func() error { return cp.Accumulate(seq, [][]bool{allow(3), allow(4)}, []int{0, 0}, 1) }, false},
		{"compression accumulate action range", func() error { return cp.Accumulate(seq, nil, []int{0, 3}, 1) }, false},
	} {
		err := tc.call()
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: expected an error", tc.name)
		}
	}
}
