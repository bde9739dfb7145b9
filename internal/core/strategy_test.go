package core

import (
	"bytes"
	"math/rand"
	"testing"
)

func randomSeq(rng *rand.Rand, n int) [][]float64 {
	seq := make([][]float64, n)
	for t := range seq {
		seq[t] = make([]float64, featureDim)
		for k := range seq[t] {
			seq[t][k] = rng.NormFloat64()
		}
	}
	return seq
}

// After every RLStrategy.Commit — on the early return of an episode whose
// only Observe had zero advantage, and after a step — the controllers keep
// no encoder pass from that episode's samples. Checked from outside: the
// sampled sequences are overwritten in place after Commit; a kept pass would
// feed the next Accumulate the forward of the old contents, so the next
// update would differ from that of a twin strategy given fresh slices with
// the new contents.
func TestRLStrategyCommitForgetsSampledPasses(t *testing.T) {
	for _, rewards := range [][]float64{{5}, {5, 7}} {
		var strats [2]*RLStrategy
		var seqs [2][2][][]float64 // per strategy: partition and compression sequence
		for i := range strats {
			s, err := NewRLStrategy(4, RLConfig{Hidden: 6, LR: 0.05, BaselineDecay: 0.5, Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(8))
			pSeq, cSeq := randomSeq(rng, 5), randomSeq(rng, 4)
			ap, err := s.SelectPartition("p", pSeq, nil)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.SelectCompression("c", cSeq, nil); err != nil {
				t.Fatal(err)
			}
			// Only the partition decision is credited, so the compression
			// sample's pass is never consumed by an Accumulate.
			for _, r := range rewards {
				if err := s.Observe([]Decision{{Partition: true, Seq: pSeq, Action: ap}}, r); err != nil {
					t.Fatal(err)
				}
			}
			s.Commit()
			strats[i], seqs[i] = s, [2][][]float64{pSeq, cSeq}
		}
		rng := rand.New(rand.NewSource(9))
		for k, fresh := range [][][]float64{randomSeq(rng, 5), randomSeq(rng, 4)} {
			for t := range fresh {
				copy(seqs[0][k][t], fresh[t])
			}
			seqs[1][k] = fresh
		}
		var weights [2][]byte
		for i, s := range strats {
			err := s.Observe([]Decision{
				{Partition: true, Seq: seqs[i][0], Action: 1},
				{Seq: seqs[i][1], Actions: []int{0, 1, 2, 3}},
			}, 11)
			if err != nil {
				t.Fatal(err)
			}
			s.Commit()
			for _, m := range []interface{ MarshalJSON() ([]byte, error) }{s.Partition, s.Compression} {
				data, err := m.MarshalJSON()
				if err != nil {
					t.Fatal(err)
				}
				weights[i] = append(weights[i], data...)
			}
		}
		if !bytes.Equal(weights[0], weights[1]) {
			t.Errorf("rewards %v: a pass sampled before Commit leaked into the next episode's update", rewards)
		}
	}
}
