package mitigate

import (
	"math"

	"repro/internal/model"
)

// WeightChecksums holds per-column checksums of every linear layer's
// weights — the ABFT invariant that x·W's checksum column must equal the
// sum of per-column products. Verifying the stored sums against a fresh
// pass over the weights detects resident memory faults before (or
// between) inferences, the ALBERTA-style detection the paper's related
// work discusses. Detection granularity is one column sum per layer,
// chosen because a single flipped weight perturbs exactly one column sum
// (Figure 5's propagation unit).
type WeightChecksums struct {
	sums map[model.LayerRef][]float64
	// Tolerance is the relative deviation above which a column is
	// reported faulty. Weights are static, so recomputation is exact up
	// to float summation order; a small epsilon absorbs that.
	Tolerance float64
}

// NewWeightChecksums computes checksums over every linear layer of m
// (including the LM head).
func NewWeightChecksums(m *model.Model) *WeightChecksums {
	wc := &WeightChecksums{sums: map[model.LayerRef][]float64{}, Tolerance: 1e-6}
	for _, li := range m.LinearLayers() {
		wc.sums[li.Ref] = columnSums(li.Weight)
	}
	wc.sums[model.LayerRef{Block: -1, Kind: model.KindLMHead, Expert: -1}] = columnSums(m.LMHead)
	return wc
}

func columnSums(w model.Weight) []float64 {
	sums := make([]float64, w.Out())
	for r := 0; r < w.In(); r++ {
		for c := 0; c < w.Out(); c++ {
			sums[c] += w.Get(r, c)
		}
	}
	return sums
}

// Violation reports one detected checksum mismatch.
type Violation struct {
	Layer  model.LayerRef
	Column int
	// Stored and Observed are the checksum values.
	Stored, Observed float64
}

// Verify recomputes every layer's column sums on m as an inference under
// strike reads them (nil: none) and returns the violations. A clean read
// returns nil; a flipped weight returns the faulted layer and column.
func (wc *WeightChecksums) Verify(m *model.Model, strike *model.Strike) []Violation {
	var out []Violation
	check := func(ref model.LayerRef, w model.Weight) {
		stored, ok := wc.sums[ref]
		if !ok {
			return
		}
		if strike != nil && strike.Ref == ref && strike.W != nil {
			w = strike.W
		}
		observed := columnSums(w)
		for c := range stored {
			diff := math.Abs(observed[c] - stored[c])
			scale := math.Abs(stored[c])
			if scale < 1 {
				scale = 1
			}
			if diff > wc.Tolerance*scale || math.IsNaN(diff) {
				out = append(out, Violation{Layer: ref, Column: c, Stored: stored[c], Observed: observed[c]})
			}
		}
	}
	for _, li := range m.LinearLayers() {
		check(li.Ref, li.Weight)
	}
	check(model.LayerRef{Block: -1, Kind: model.KindLMHead, Expert: -1}, m.LMHead)
	return out
}

// Detects reports whether a specific (layer, column) weight fault would
// be caught under strike: true iff Verify flags that exact column.
func (wc *WeightChecksums) Detects(m *model.Model, strike *model.Strike, ref model.LayerRef, col int) bool {
	for _, v := range wc.Verify(m, strike) {
		if v.Layer == ref && v.Column == col {
			return true
		}
	}
	return false
}
