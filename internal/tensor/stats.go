package tensor

import (
	"fmt"
	"math"
	"strings"
)

// CorruptionMask compares t against a reference and returns a boolean
// matrix marking elements that differ by more than tol (relative to the
// reference magnitude, with an absolute floor). It drives the propagation
// heatmaps of Figures 5–6.
func CorruptionMask(t, ref *Tensor, tol float64) [][]bool {
	if t.Rows != ref.Rows || t.Cols != ref.Cols {
		panic("tensor: CorruptionMask shape mismatch")
	}
	mask := make([][]bool, t.Rows)
	for r := 0; r < t.Rows; r++ {
		mask[r] = make([]bool, t.Cols)
		for c := 0; c < t.Cols; c++ {
			a, b := float64(t.At(r, c)), float64(ref.At(r, c))
			diff := math.Abs(a - b)
			if math.IsNaN(a) != math.IsNaN(b) || math.IsNaN(diff) {
				mask[r][c] = true
				continue
			}
			scale := math.Abs(b)
			if scale < 1 {
				scale = 1
			}
			mask[r][c] = diff > tol*scale
		}
	}
	return mask
}

// MaskStats summarizes a corruption mask: the fraction of corrupted
// elements, and how many full columns / full rows are corrupted (every
// element in them differing). These are the quantities behind the
// paper's "entire column" vs "single row" propagation narrative.
type MaskStats struct {
	Corrupted     int
	Total         int
	FullColumns   int
	FullRows      int
	TouchedCols   int
	TouchedRows   int
	CorruptedFrac float64
}

// SummarizeMask computes MaskStats for mask.
func SummarizeMask(mask [][]bool) MaskStats {
	var s MaskStats
	if len(mask) == 0 {
		return s
	}
	rows, cols := len(mask), len(mask[0])
	s.Total = rows * cols
	colCount := make([]int, cols)
	for _, row := range mask {
		rc := 0
		for c, hit := range row {
			if hit {
				s.Corrupted++
				rc++
				colCount[c]++
			}
		}
		if rc > 0 {
			s.TouchedRows++
		}
		if rc == cols {
			s.FullRows++
		}
	}
	for _, n := range colCount {
		if n > 0 {
			s.TouchedCols++
		}
		if n == rows {
			s.FullColumns++
		}
	}
	if s.Total > 0 {
		s.CorruptedFrac = float64(s.Corrupted) / float64(s.Total)
	}
	return s
}

// Heatmap renders an ASCII heatmap of |t| in log scale, clipped to at most
// maxR×maxC cells (the paper shows the first 50×50 elements). Darker
// characters mean larger magnitude; '#' marks extreme values caused by
// faults (the yellow cells of Figure 5).
func (t *Tensor) Heatmap(maxR, maxC int) string {
	shades := []byte(" .:-=+*%@#")
	rows, cols := t.Rows, t.Cols
	if rows > maxR {
		rows = maxR
	}
	if cols > maxC {
		cols = maxC
	}
	// Log-scale bounds over the clipped region, ignoring non-finite.
	lo, hi := math.Inf(1), math.Inf(-1)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			a := math.Abs(float64(t.At(r, c)))
			if a == 0 || math.IsInf(a, 0) || math.IsNaN(a) {
				continue
			}
			l := math.Log10(a)
			if l < lo {
				lo = l
			}
			if l > hi {
				hi = l
			}
		}
	}
	if lo > hi { // all zero / non-finite
		lo, hi = 0, 1
	}
	if hi == lo {
		hi = lo + 1
	}
	var b strings.Builder
	fmt.Fprintf(&b, "|abs| log10 range [%.2f, %.2f], showing %dx%d of %dx%d\n", lo, hi, rows, cols, t.Rows, t.Cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			a := math.Abs(float64(t.At(r, c)))
			var ch byte
			switch {
			case math.IsNaN(a) || math.IsInf(a, 0) || a >= 1e30:
				ch = '#'
			case a == 0:
				ch = ' '
			default:
				f := (math.Log10(a) - lo) / (hi - lo)
				if f < 0 {
					f = 0
				}
				if f > 1 {
					f = 1
				}
				ch = shades[int(f*float64(len(shades)-2))]
			}
			b.WriteByte(ch)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
