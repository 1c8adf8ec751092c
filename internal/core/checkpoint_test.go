package core

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/outcome"
	"repro/internal/tasks"
)

func checkpointCampaign(t *testing.T) Campaign {
	t.Helper()
	return Campaign{
		Model:  goldenModel(t, model.QwenS, false),
		Suite:  tasks.NewSelfRefSuite("ckpt", 3, 2, 16, 6, []metrics.Kind{metrics.KindBLEU}),
		Fault:  faults.Comp2Bit,
		Trials: 6,
		Seed:   11,
	}
}

// TestCheckpointRoundtrip saves and reloads a checkpoint with fully
// populated trial records and requires a deep-equal roundtrip.
func TestCheckpointRoundtrip(t *testing.T) {
	c := checkpointCampaign(t)
	ck := &Checkpoint{
		Fingerprint: c.Fingerprint(),
		Indices:     []int{4, 0, 2},
		Trials: []Trial{
			{
				Site:     faults.Site{Fault: faults.Comp2Bit, Row: 3, Col: 1, Bits: []int{7}, GenIter: 2},
				Instance: 1,
				Fired:    true,
				Outcome:  outcome.Analysis{Class: outcome.SDCSubtle, Changed: true, LengthRatio: 1.5},
				AnswerOK: false,
				Metrics:  map[metrics.Kind]float64{metrics.KindBLEU: 0.25},
				Steps:    9,
			},
			{
				Site:    faults.Site{Fault: faults.Comp2Bit, Bits: []int{1, 2}},
				Fired:   false,
				Metrics: map[metrics.Kind]float64{metrics.KindBLEU: 1},
				Steps:   7,
			},
			{
				Site:          faults.Site{Fault: faults.Comp2Bit, Bits: []int{30}},
				Fired:         true,
				ExpertChanged: true,
				Metrics:       map[metrics.Kind]float64{metrics.KindBLEU: 0},
				Steps:         3,
			},
		},
	}
	path := filepath.Join(t.TempDir(), "rt.ckpt")
	if err := ck.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ck, got) {
		t.Fatalf("roundtrip differs:\nwant %+v\ngot  %+v", ck, got)
	}
	if got.Done() != 3 {
		t.Fatalf("Done() = %d, want 3", got.Done())
	}
	if err := got.Matches(c); err != nil {
		t.Fatalf("own-campaign Matches failed: %v", err)
	}
	// The parameter hash is the weights', not the model pointer's.
	clone := c
	clone.Model = c.Model.Clone()
	if err := got.Matches(clone); err != nil {
		t.Fatalf("a bit-identical model clone was refused: %v", err)
	}
}

// TestCheckpointMismatch requires fingerprint drift — any knob that
// changes trial sampling or classification, or one weight bit — to fail
// Matches with the typed sentinel, naming each hash that differs.
func TestCheckpointMismatch(t *testing.T) {
	c := checkpointCampaign(t)
	ck := &Checkpoint{Fingerprint: c.Fingerprint()}

	cases := map[string]func(*Campaign){
		"seed":       func(c *Campaign) { c.Seed++ },
		"trials":     func(c *Campaign) { c.Trials++ },
		"fault":      func(c *Campaign) { c.Fault = faults.Mem2Bit },
		"beams":      func(c *Campaign) { c.Gen.NumBeams = 4 },
		"thresholds": func(c *Campaign) { c.Thresholds.LengthExplosion = 123 },
		"reasoning":  func(c *Campaign) { c.ReasoningOnly = true },
		"filter":     func(c *Campaign) { c.Filter = faults.GateOnly },
		"weight": func(c *Campaign) {
			c.Model = c.Model.Clone()
			c.Model.Blocks[1].Wv.(*model.Dense).FlipBits(2, 3, []int{0})
		},
	}
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) {
			mc := c
			mutate(&mc)
			err := ck.Matches(mc)
			if !errors.Is(err, ErrCheckpointMismatch) {
				t.Fatalf("mutated %s: err = %v, want ErrCheckpointMismatch", name, err)
			}
			got := mc.Fingerprint()
			for key, differs := range map[string]bool{
				"config-hash=": got.Hash != ck.Fingerprint.Hash,
				"param-hash=":  got.Params != ck.Fingerprint.Params,
			} {
				if strings.Contains(err.Error(), key) != differs {
					t.Fatalf("mutated %s: %q named %t, want %t: %v", name, key, !differs, differs, err)
				}
			}
		})
	}
}

// TestCheckpointCorrupt covers the decode failure modes: garbage bytes,
// a missing file, and an index/trial length mismatch.
func TestCheckpointCorrupt(t *testing.T) {
	dir := t.TempDir()

	garbage := filepath.Join(dir, "garbage.ckpt")
	if err := os.WriteFile(garbage, []byte("not a gob stream"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(garbage); err == nil {
		t.Fatal("garbage checkpoint must fail to load")
	}

	if _, err := LoadCheckpoint(filepath.Join(dir, "absent.ckpt")); err == nil {
		t.Fatal("missing checkpoint must fail to load")
	}

	skewed := filepath.Join(dir, "skewed.ckpt")
	ck := &Checkpoint{Indices: []int{0, 1}, Trials: []Trial{{}}}
	if err := ck.Save(skewed); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(skewed); err == nil {
		t.Fatal("index/trial length skew must fail validation")
	}
}

// TestCheckpointResumeMismatchRefused requires Resume to refuse a
// checkpoint from a different campaign.
func TestCheckpointResumeMismatchRefused(t *testing.T) {
	c := checkpointCampaign(t)
	other := c
	other.Seed++
	ck := &Checkpoint{Fingerprint: other.Fingerprint()}
	path := filepath.Join(t.TempDir(), "other.ckpt")
	if err := ck.Save(path); err != nil {
		t.Fatal(err)
	}
	_, err := NewRunner(c).Resume(context.Background(), path)
	if !errors.Is(err, ErrCheckpointMismatch) {
		t.Fatalf("cross-campaign resume err = %v, want ErrCheckpointMismatch", err)
	}
}
