package tensor

import "math"

// SoftmaxRow computes an in-place softmax over row. The max-subtraction
// trick keeps the computation finite for ordinary rows. What a fault can
// leave in a row, and what the classifier downstream must cope with:
//   - a +Inf entry: the row becomes uniform over its +Inf entries and 0
//     everywhere else, NaN entries included;
//   - a NaN beside a finite maximum: the whole row becomes NaN;
//   - no entry above -Inf (all -Inf, all NaN — a NaN query — or the two
//     mixed): the row becomes uniform, 1/len(row) everywhere.
func SoftmaxRow(row []float32) {
	maxv := maxRow(row)
	if math.IsInf(float64(maxv), -1) {
		// All -Inf (fully masked row): uniform, matching framework behaviour
		// of exp(-Inf - -Inf) handling; choose uniform to stay finite.
		u := float32(1) / float32(len(row))
		for i := range row {
			row[i] = u
		}
		return
	}
	if math.IsInf(float64(maxv), 1) {
		// A fault saturated some entries to +Inf: the distribution
		// concentrates on them (exp(Inf)/exp(Inf) elsewhere underflows).
		nInf := 0
		for _, v := range row {
			if math.IsInf(float64(v), 1) {
				nInf++
			}
		}
		u := float32(1) / float32(nInf)
		for i, v := range row {
			if math.IsInf(float64(v), 1) {
				row[i] = u
			} else {
				row[i] = 0
			}
		}
		return
	}
	sum := expRow(row, float64(maxv), true)
	if sum == 0 || math.IsNaN(sum) {
		// Degenerate (NaN contamination): leave NaNs to propagate.
		for i := range row {
			row[i] = float32(math.NaN())
		}
		return
	}
	scaleRow(row, float32(1/sum))
}

// maxRow and scaleRow are SoftmaxRow's max and scale passes: eight lanes
// where the CPU runs AVX (set once at init, softmax_amd64.go), the
// portable loops everywhere else. Both produce the same bits, so nothing
// chooses between them and only the softmax tests assign these.
var (
	maxRow   = maxRowPortable
	scaleRow = scaleRowPortable
)

// maxRowPortable returns row's largest entry, the first of entries that
// compare equal (so of +0 and -0, whichever comes first), and -Inf when no
// entry is above it: a NaN never wins.
func maxRowPortable(row []float32) float32 {
	maxv := float32(math.Inf(-1))
	for _, v := range row {
		if v > maxv {
			maxv = v
		}
	}
	return maxv
}

// scaleRowPortable writes row[i] = row[i] * s, each product rounded to
// float32 on its own (the conversion forbids fusing it with anything).
func scaleRowPortable(row []float32, s float32) {
	for i, v := range row {
		row[i] = float32(v * s)
	}
}

// LogSoftmaxRow returns the log-softmax of row as float64s, used for
// option scoring (summed token log-likelihoods) in multiple-choice tasks.
func LogSoftmaxRow(row []float32) []float64 {
	out := make([]float64, len(row))
	logZ := logSumExp(row)
	for i, v := range row {
		out[i] = float64(v) - logZ
	}
	return out
}

// LogSoftmaxAt returns LogSoftmaxRow(row)[i], bit for bit, without the
// vocabulary-wide slice: greedy decoding reads one entry per token.
func LogSoftmaxAt(row []float32, i int) float64 {
	return float64(row[i]) - logSumExp(row)
}

// logSumExp is the log-softmax normaliser: the row maximum plus the log
// of the i-ascending float64 sum of exp(v - max).
func logSumExp(row []float32) float64 {
	maxv := float64(math.Inf(-1))
	for _, v := range row {
		if float64(v) > maxv {
			maxv = float64(v)
		}
	}
	return maxv + math.Log(expRow(row, maxv, false))
}

// RMSNormRow normalizes row in place by its root-mean-square and applies
// the per-channel gain, the normalization used by Llama-family models.
// eps guards the division. A row corrupted to huge magnitude is squashed
// back to ~±gain — this is precisely the masking effect the paper credits
// for the resilience to computational faults (Figure 6).
func RMSNormRow(row, gain []float32, eps float32) {
	var ss float64
	for _, v := range row {
		ss += float64(v) * float64(v)
	}
	inv := 1 / math.Sqrt(ss/float64(len(row))+float64(eps))
	for i := range row {
		row[i] = float32(float64(row[i])*inv) * gain[i]
	}
}

// Argmax returns the index of the largest value in row, with ties broken
// toward the lower index (greedy decoding's determinism depends on this).
// NaNs are skipped; a row of all NaNs returns 0.
func Argmax(row []float32) int {
	best := 0
	bestv := float32(math.Inf(-1))
	for i, v := range row {
		if math.IsNaN(float64(v)) {
			continue
		}
		if v > bestv {
			bestv = v
			best = i
		}
	}
	return best
}

// TopK returns the indices of the k largest values of row in descending
// value order (ties toward lower index), used by the MoE router. They are
// appended to idx[:0], so an idx with capacity k allocates nothing.
func TopK(idx []int, row []float32, k int) []int {
	if k > len(row) {
		k = len(row)
	}
	idx = idx[:0]
	for n := 0; n < k; n++ {
		best := -1
		bestv := float32(math.Inf(-1))
		for i, v := range row {
			if math.IsNaN(float64(v)) {
				continue
			}
			taken := false
			for _, j := range idx {
				if j == i {
					taken = true
					break
				}
			}
			if taken {
				continue
			}
			if v > bestv {
				bestv = v
				best = i
			}
		}
		if best < 0 {
			best = n % len(row) // all-NaN row: deterministic fallback
		}
		idx = append(idx, best)
	}
	return idx
}
