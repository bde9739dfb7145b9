package rl

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// policyState is the serialised form of a controller's parameter blocks.
type policyState struct {
	Kind   string      `json:"kind"`
	Dims   []int       `json:"dims"`
	Blocks [][]float64 `json:"blocks"`
}

// collectParams flattens parameter blocks for serialisation.
func collectParams(params []*Param) [][]float64 {
	out := make([][]float64, len(params))
	for i, p := range params {
		out[i] = append([]float64(nil), p.Val...)
	}
	return out
}

// restoreParams copies serialised blocks back into parameters.
func restoreParams(params []*Param, blocks [][]float64) error {
	if len(params) != len(blocks) {
		return fmt.Errorf("rl: state has %d blocks, controller has %d", len(blocks), len(params))
	}
	for i, p := range params {
		if len(p.Val) != len(blocks[i]) {
			return fmt.Errorf("rl: block %d has %d values, controller needs %d", i, len(blocks[i]), len(p.Val))
		}
		copy(p.Val, blocks[i])
	}
	return nil
}

// MarshalJSON serialises the partition controller's weights.
func (p *PartitionPolicy) MarshalJSON() ([]byte, error) {
	params := append(p.enc.Params(), p.score.Params()...)
	params = append(params, p.endScore.Params()...)
	params = append(params, p.beginScore.Params()...)
	return json.Marshal(policyState{
		Kind:   "partition",
		Dims:   []int{p.enc.Fwd.In, p.enc.Fwd.H},
		Blocks: collectParams(params),
	})
}

// UnmarshalJSON restores weights into an already-constructed controller with
// matching dimensions (build it with NewPartitionPolicy first). It forgets
// the encoder passes kept by Sample.
func (p *PartitionPolicy) UnmarshalJSON(data []byte) error {
	p.Forget()
	var st policyState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("rl: decode partition policy: %w", err)
	}
	if st.Kind != "partition" {
		return fmt.Errorf("rl: state kind %q is not a partition policy", st.Kind)
	}
	if len(st.Dims) != 2 || st.Dims[0] != p.enc.Fwd.In || st.Dims[1] != p.enc.Fwd.H {
		return fmt.Errorf("rl: state dims %v mismatch controller (%d,%d)", st.Dims, p.enc.Fwd.In, p.enc.Fwd.H)
	}
	params := append(p.enc.Params(), p.score.Params()...)
	params = append(params, p.endScore.Params()...)
	params = append(params, p.beginScore.Params()...)
	return restoreParams(params, st.Blocks)
}

// MarshalJSON serialises the compression controller's weights.
func (c *CompressionPolicy) MarshalJSON() ([]byte, error) {
	return json.Marshal(policyState{
		Kind:   "compression",
		Dims:   []int{c.enc.Fwd.In, c.enc.Fwd.H, c.Actions},
		Blocks: collectParams(append(c.enc.Params(), c.head.Params()...)),
	})
}

// checkpointFile is the on-disk envelope bundling both controllers of one
// trained scenario.
type checkpointFile struct {
	Partition   json.RawMessage `json:"partition"`
	Compression json.RawMessage `json:"compression"`
}

// SaveCheckpoint writes both controllers' weights to path as JSON. The
// write is atomic (temp file + rename), so a crash mid-save never leaves a
// truncated checkpoint behind — LoadCheckpoint either sees the old file or
// the new one.
func SaveCheckpoint(path string, p *PartitionPolicy, c *CompressionPolicy) error {
	if p == nil || c == nil {
		return fmt.Errorf("rl: checkpoint needs both controllers")
	}
	pData, err := json.Marshal(p)
	if err != nil {
		return fmt.Errorf("rl: encode partition policy: %w", err)
	}
	cData, err := json.Marshal(c)
	if err != nil {
		return fmt.Errorf("rl: encode compression policy: %w", err)
	}
	data, err := json.Marshal(checkpointFile{Partition: pData, Compression: cData})
	if err != nil {
		return fmt.Errorf("rl: encode checkpoint: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("rl: create checkpoint temp file: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		_ = tmp.Close()
		_ = os.Remove(tmp.Name())
		return fmt.Errorf("rl: write checkpoint: %w", err)
	}
	if err := tmp.Close(); err != nil {
		_ = os.Remove(tmp.Name())
		return fmt.Errorf("rl: close checkpoint: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		_ = os.Remove(tmp.Name())
		return fmt.Errorf("rl: commit checkpoint: %w", err)
	}
	return nil
}

// LoadCheckpoint restores both controllers from a file written by
// SaveCheckpoint. The controllers must be pre-constructed with the same
// dimensions as the saved ones (build them with NewPartitionPolicy /
// NewCompressionPolicy first); corrupted, truncated or mismatched files
// return errors and leave the controllers' parameters untouched only up to
// the first failing block — callers should discard them on error.
func LoadCheckpoint(path string, p *PartitionPolicy, c *CompressionPolicy) error {
	if p == nil || c == nil {
		return fmt.Errorf("rl: checkpoint needs both controllers")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("rl: read checkpoint: %w", err)
	}
	var cf checkpointFile
	if err := json.Unmarshal(data, &cf); err != nil {
		return fmt.Errorf("rl: decode checkpoint %s: %w", path, err)
	}
	if len(cf.Partition) == 0 || len(cf.Compression) == 0 {
		return fmt.Errorf("rl: checkpoint %s misses a controller section", path)
	}
	if err := json.Unmarshal(cf.Partition, p); err != nil {
		return err
	}
	if err := json.Unmarshal(cf.Compression, c); err != nil {
		return err
	}
	return nil
}

// UnmarshalJSON restores weights into an already-constructed controller with
// matching dimensions. It forgets the encoder passes kept by SampleAll.
func (c *CompressionPolicy) UnmarshalJSON(data []byte) error {
	c.Forget()
	var st policyState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("rl: decode compression policy: %w", err)
	}
	if st.Kind != "compression" {
		return fmt.Errorf("rl: state kind %q is not a compression policy", st.Kind)
	}
	if len(st.Dims) != 3 || st.Dims[0] != c.enc.Fwd.In || st.Dims[1] != c.enc.Fwd.H || st.Dims[2] != c.Actions {
		return fmt.Errorf("rl: state dims %v mismatch controller (%d,%d,%d)",
			st.Dims, c.enc.Fwd.In, c.enc.Fwd.H, c.Actions)
	}
	return restoreParams(append(c.enc.Params(), c.head.Params()...), st.Blocks)
}
