package experiments

import (
	"fmt"

	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// tracedRun generates from m while capturing every layer's output at
// every token position — the propagation-trace instrument behind Figures
// 5, 6 and 13, the runtime's own trace.Capture. A fault the caller armed
// first is seen as the faulty forward produces it.
func tracedRun(m *model.Model, prompt []int, maxNew int) *trace.Capture {
	c := trace.NewCapture(0)
	m.AddHook(c.Hook())
	gen.Generate(m, prompt, gen.Defaults(maxNew))
	m.ClearHooks()
	return c
}

// maskSummary renders a corruption-mask comparison of a layer between a
// faulty and a fault-free capture.
func maskSummary(label string, faulty, clean *tensor.Tensor) (string, tensor.MaskStats) {
	if faulty.Rows != clean.Rows || faulty.Cols != clean.Cols {
		// Generation lengths diverged — compare the shared prefix.
		r := minInt(faulty.Rows, clean.Rows)
		faulty = subRows(faulty, r)
		clean = subRows(clean, r)
	}
	mask := tensor.CorruptionMask(faulty, clean, 1e-3)
	st := tensor.SummarizeMask(mask)
	txt := fmt.Sprintf("%-28s corrupted %5.1f%%  full-cols %d/%d  full-rows %d/%d  touched-cols %d  touched-rows %d\n",
		label, st.CorruptedFrac*100, st.FullColumns, faulty.Cols, st.FullRows, faulty.Rows, st.TouchedCols, st.TouchedRows)
	return txt, st
}

// maxAbsDiff reports the largest elementwise deviation between two
// captures (after truncating to matching row counts).
func maxAbsDiff(a, b *tensor.Tensor) float64 {
	r := minInt(a.Rows, b.Rows)
	return tensor.MaxAbsDiff(subRows(a, r), subRows(b, r))
}

func subRows(t *tensor.Tensor, r int) *tensor.Tensor {
	if r > t.Rows {
		r = t.Rows
	}
	return tensor.FromSlice(r, t.Cols, t.Data[:r*t.Cols])
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
