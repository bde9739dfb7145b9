package rl

import (
	"encoding/json"
	"math/rand"
	"testing"
)

// controller is what the memo tests need from either policy.
type controller interface {
	json.Marshaler
	json.Unmarshaler
	Step()
	params() []*Param
	remembered() int
	sample(seq [][]float64, rng *rand.Rand) (any, error)
	accumulate(seq [][]float64, action any, adv float64) error
}

type partitionCtl struct{ *PartitionPolicy }

func (p partitionCtl) params() []*Param { return p.opt.params }
func (p partitionCtl) remembered() int  { return len(p.passes) }
func (p partitionCtl) sample(seq [][]float64, rng *rand.Rand) (any, error) {
	return p.Sample(seq, nil, rng)
}
func (p partitionCtl) accumulate(seq [][]float64, a any, adv float64) error {
	return p.Accumulate(seq, nil, a.(int), adv)
}

type compressionCtl struct{ *CompressionPolicy }

func (c compressionCtl) params() []*Param { return c.opt.params }
func (c compressionCtl) remembered() int  { return len(c.passes) }
func (c compressionCtl) sample(seq [][]float64, rng *rand.Rand) (any, error) {
	return c.SampleAll(seq, nil, rng)
}
func (c compressionCtl) accumulate(seq [][]float64, a any, adv float64) error {
	return c.Accumulate(seq, nil, a.([]int), adv)
}

const memoIn, memoHidden, memoActions = 4, 5, 3

// newCtl builds a fresh controller of the kind of like, seeded by seed.
func newCtl(t *testing.T, like controller, seed int64) controller {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	switch like.(type) {
	case partitionCtl:
		p, err := NewPartitionPolicy(memoIn, memoHidden, 0.05, rng)
		if err != nil {
			t.Fatal(err)
		}
		return partitionCtl{p}
	default:
		c, err := NewCompressionPolicy(memoIn, memoHidden, memoActions, 0.05, rng)
		if err != nil {
			t.Fatal(err)
		}
		return compressionCtl{c}
	}
}

// cloneOf builds a controller that never sampled, holding c's weights.
func cloneOf(t *testing.T, c controller) controller {
	t.Helper()
	data, err := c.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	clone := newCtl(t, c, 999)
	if err := clone.UnmarshalJSON(data); err != nil {
		t.Fatal(err)
	}
	return clone
}

func memoKinds(t *testing.T) []controller {
	return []controller{newCtl(t, partitionCtl{}, 1), newCtl(t, compressionCtl{}, 1)}
}

// A pass remembered by Sample must not survive a parameter write: after
// Step or UnmarshalJSON, Accumulate must give the gradients of a clone that
// never sampled.
func TestPassMemoDroppedOnParameterWrite(t *testing.T) {
	for _, write := range []string{"Step", "UnmarshalJSON"} {
		for _, c := range memoKinds(t) {
			rng := rand.New(rand.NewSource(5))
			seq := randSeq(rng, 6, memoIn)
			a, err := c.sample(seq, rng)
			if err != nil {
				t.Fatal(err)
			}
			before := append([]float64(nil), c.params()[0].Val...)
			switch write {
			case "Step":
				// Nonzero gradients so the step moves the weights.
				if err := c.accumulate(randSeq(rng, 3, memoIn), actionFor(c, 3), 1.5); err != nil {
					t.Fatal(err)
				}
				c.Step()
			case "UnmarshalJSON":
				data, err := newCtl(t, c, 77).MarshalJSON()
				if err != nil {
					t.Fatal(err)
				}
				if err := c.UnmarshalJSON(data); err != nil {
					t.Fatal(err)
				}
			}
			if c.remembered() != 0 {
				t.Fatalf("%T after %s: %d passes remembered", c, write, c.remembered())
			}
			if sameVals(before, c.params()[0].Val) {
				t.Fatalf("%T: %s left the weights unchanged; the test proves nothing", c, write)
			}
			clone := cloneOf(t, c)
			if err := c.accumulate(seq, a, 0.8); err != nil {
				t.Fatal(err)
			}
			if err := clone.accumulate(seq, a, 0.8); err != nil {
				t.Fatal(err)
			}
			sameGrads(t, write, c.params(), clone.params())
		}
	}
}

// actionFor returns a valid action of c for a sequence of n steps.
func actionFor(c controller, n int) any {
	if _, ok := c.(partitionCtl); ok {
		return n - 1
	}
	return make([]int, n)
}

func sameVals(a, b []float64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Accumulate consumes the remembered pass; a sequence Sample never saw — a
// different slice, or a shorter view of the sampled one — recomputes its
// own forward and leaves the sampled pass in place.
func TestPassMemoConsumedAndKeyedByIdentity(t *testing.T) {
	for _, c := range memoKinds(t) {
		rng := rand.New(rand.NewSource(6))
		seq := randSeq(rng, 5, memoIn)
		a, err := c.sample(seq, rng)
		if err != nil {
			t.Fatal(err)
		}
		if c.remembered() != 1 {
			t.Fatalf("%T: %d passes after one sample, want 1", c, c.remembered())
		}
		clone := cloneOf(t, c)
		for _, other := range [][][]float64{randSeq(rng, 5, memoIn), seq[:4]} {
			act := actionFor(c, len(other))
			if err := c.accumulate(other, act, -0.6); err != nil {
				t.Fatal(err)
			}
			if err := clone.accumulate(other, act, -0.6); err != nil {
				t.Fatal(err)
			}
			sameGrads(t, "unsampled", c.params(), clone.params())
			if c.remembered() != 1 {
				t.Fatalf("%T: an unsampled sequence consumed the sampled pass", c)
			}
		}
		if err := c.accumulate(seq, a, 0.9); err != nil {
			t.Fatal(err)
		}
		if err := clone.accumulate(seq, a, 0.9); err != nil {
			t.Fatal(err)
		}
		sameGrads(t, "sampled", c.params(), clone.params())
		if c.remembered() != 0 {
			t.Fatalf("%T: %d passes left after Accumulate consumed the sample", c, c.remembered())
		}
	}
}
