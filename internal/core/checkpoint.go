package core

import (
	"encoding/gob"
	"fmt"
	"hash/fnv"
	"os"
)

// Fingerprint pins a checkpoint to the campaign configuration that
// produced it. Two campaigns with equal fingerprints sample identical
// injection sites and produce bit-identical trials (per-trial Split(t)
// seeding), so resuming across them is sound.
//
// Tracing (Runner.WithTrace) is deliberately not part of the
// fingerprint: probes observe trials without altering them, so a
// resumed campaign may turn tracing on, off, or change its sampling
// stride — only the trace file's coverage changes, never the Result.
type Fingerprint struct {
	// Model and Suite are the human-readable identity half.
	Model string
	Suite string
	Fault string
	// Trials and Seed pin the sampling schedule.
	Trials int
	Seed   uint64
	// Hash folds the remaining behavior-affecting knobs: datatype,
	// instance count, decoding settings, thresholds, reasoning-only
	// mode, and the presence of a target filter / extra hook (function
	// values cannot be hashed; resume assumes the same binary and
	// flags supply the same implementations).
	Hash uint64
	// Params is the model's parameter hash (model.Model.ParamHash): a
	// model with the same name and config but one other weight bit is
	// another campaign.
	Params uint64
}

// Against describes fp, for a refusal, beside other, the fingerprint it
// was compared with: the readable half, then whichever hash differs
// (two sides that differ only in a hash would otherwise print alike).
func (fp Fingerprint) Against(other Fingerprint) string {
	s := fmt.Sprintf("%s/%s/%s trials=%d seed=%d", fp.Model, fp.Suite, fp.Fault, fp.Trials, fp.Seed)
	if fp.Hash != other.Hash {
		s += fmt.Sprintf(" config-hash=%016x", fp.Hash)
	}
	if fp.Params != other.Params {
		s += fmt.Sprintf(" param-hash=%016x", fp.Params)
	}
	return s
}

// Fingerprint derives the campaign's resume identity.
func (c Campaign) Fingerprint() Fingerprint {
	h := fnv.New64a()
	abftKey := "abft-off"
	if c.ABFT != nil {
		// A correcting policy changes trial outcomes, and tolerance /
		// coverage change Detection records, so resume across different
		// ABFT configurations must be refused.
		abftKey = fmt.Sprintf("abft:%g:%v:%t", c.ABFT.Tol, c.ABFT.Policy, c.ABFT.AllLayers)
	}
	fmt.Fprintf(h, "%v|%d|%d|%d|%d|%v|%d|%v|%v|%v|%v|%s",
		c.Model.Cfg.DType, c.Model.Cfg.MaxSeq,
		len(c.Suite.Instances), c.Gen.NumBeams, c.Gen.MaxNewTokens,
		c.Thresholds, c.Gen.StopToken,
		c.ReasoningOnly, c.Filter != nil, c.Check != nil, c.ExtraHook != nil,
		abftKey)
	return Fingerprint{
		Model:  c.Model.Cfg.Name,
		Suite:  c.Suite.Name,
		Fault:  c.Fault.String(),
		Trials: c.Trials,
		Seed:   c.Seed,
		Hash:   h.Sum64(),
		Params: c.Model.ParamHash(),
	}
}

// Checkpoint is the durable record of a partially (or fully) completed
// campaign: the completed Trial records keyed by trial index, plus the
// campaign fingerprint that guards resumption. Serialized with gob.
type Checkpoint struct {
	Fingerprint Fingerprint
	// Indices[i] is the trial index of Trials[i]; completion order is
	// preserved, so the file is append-consistent across rewrites.
	Indices []int
	Trials  []Trial
}

// Done returns the number of completed trials in the checkpoint.
func (ck *Checkpoint) Done() int { return len(ck.Indices) }

// Matches verifies the checkpoint belongs to campaign c.
func (ck *Checkpoint) Matches(c Campaign) error {
	if got := c.Fingerprint(); got != ck.Fingerprint {
		return fmt.Errorf("%w: checkpoint is %s, campaign is %s",
			ErrCheckpointMismatch, ck.Fingerprint.Against(got), got.Against(ck.Fingerprint))
	}
	return nil
}

// LoadCheckpoint reads and validates a checkpoint file.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("core: open checkpoint: %w", err)
	}
	defer f.Close()
	var ck Checkpoint
	if err := gob.NewDecoder(f).Decode(&ck); err != nil {
		return nil, fmt.Errorf("core: decode checkpoint %s: %w", path, err)
	}
	if len(ck.Indices) != len(ck.Trials) {
		return nil, fmt.Errorf("core: checkpoint %s corrupt: %d indices vs %d trials",
			path, len(ck.Indices), len(ck.Trials))
	}
	return &ck, nil
}

// Save writes the checkpoint atomically (temp file + rename), so an
// interrupt during the write never corrupts the previous checkpoint.
func (ck *Checkpoint) Save(path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("core: write checkpoint: %w", err)
	}
	if err := gob.NewEncoder(f).Encode(ck); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("core: encode checkpoint %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("core: close checkpoint %s: %w", path, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("core: commit checkpoint %s: %w", path, err)
	}
	return nil
}
