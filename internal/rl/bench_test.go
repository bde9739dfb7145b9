package rl

import (
	"math/rand"
	"testing"
)

// The controller shapes of a VGG11 search: 37 layers encoded as 18
// features each, hidden size 24 per direction, 9 compression techniques.
const (
	benchLayers   = 37
	benchFeatures = 18
	benchHidden   = 24
	benchActions  = 9
)

func benchSeq(rng *rand.Rand, n, dim int) [][]float64 {
	seq := make([][]float64, n)
	for t := range seq {
		seq[t] = make([]float64, dim)
		for k := range seq[t] {
			seq[t][k] = rng.NormFloat64()
		}
	}
	return seq
}

func BenchmarkBiLSTMForward(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	enc, err := NewBiLSTM(benchFeatures, benchHidden, rng)
	if err != nil {
		b.Fatal(err)
	}
	seq := benchSeq(rng, benchLayers, benchFeatures)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := enc.Forward(seq); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBiLSTMBackward(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	enc, err := NewBiLSTM(benchFeatures, benchHidden, rng)
	if err != nil {
		b.Fatal(err)
	}
	seq := benchSeq(rng, benchLayers, benchFeatures)
	dH := benchSeq(rng, benchLayers, enc.OutDim())
	_, cache, err := enc.Forward(seq)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := enc.Backward(cache, dH); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRLObserve is one controller update of a search episode: sample a
// partition and a compression plan, accumulate both policy gradients and
// step both optimisers.
func BenchmarkRLObserve(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	pp, err := NewPartitionPolicy(benchFeatures, benchHidden, 0.01, rng)
	if err != nil {
		b.Fatal(err)
	}
	cp, err := NewCompressionPolicy(benchFeatures, benchHidden, benchActions, 0.01, rng)
	if err != nil {
		b.Fatal(err)
	}
	seq := benchSeq(rng, benchLayers, benchFeatures)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a, err := pp.Sample(seq, nil, rng)
		if err != nil {
			b.Fatal(err)
		}
		acts, err := cp.SampleAll(seq, nil, rng)
		if err != nil {
			b.Fatal(err)
		}
		if err := pp.Accumulate(seq, nil, a, 0.5); err != nil {
			b.Fatal(err)
		}
		if err := cp.Accumulate(seq, nil, acts, 0.5); err != nil {
			b.Fatal(err)
		}
		pp.Step()
		cp.Step()
	}
}
