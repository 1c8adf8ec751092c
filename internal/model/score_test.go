package model

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"
)

// sameScore is equality on float32 bits with NaNs compared by class: the
// payload of a NaN product is whichever operand the instruction names
// first, the compiler's register allocation and not the algorithm.
func sameScore(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b) || (a != a && b != b)
}

const scoreGuard = 3

// checkScoreKeys runs the selected Q·K kernel and the portable one over n
// rows of keys, each into its own guarded buffer, and fails on the first
// score that differs or guard that was written.
func checkScoreKeys(t testing.TB, label string, qf []float64, keys []float32, n, off, stride int) {
	t.Helper()
	const sentinel = float32(-12345.678)
	scale := 1 / math.Sqrt(float64(len(qf)))
	run := func(kernel func([]float32, []float64, []float32, int, int, float64)) []float32 {
		buf := make([]float32, n+2*scoreGuard)
		for i := range buf {
			buf[i] = sentinel
		}
		kernel(buf[scoreGuard:scoreGuard+n:scoreGuard+n], qf, keys, off, stride, scale)
		return buf
	}
	got, want := run(scoreKeys), run(scoreKeysPortable)
	for i := range got {
		p := i - scoreGuard
		if p < 0 || p >= n {
			if got[i] != sentinel {
				t.Fatalf("%s: hd=%d n=%d off=%d stride=%d: guard at %d overwritten with %v", label, len(qf), n, off, stride, p, got[i])
			}
			continue
		}
		if !sameScore(got[i], want[i]) {
			t.Fatalf("%s: hd=%d n=%d off=%d stride=%d: score %d = %v (%08x), portable %v (%08x)", label, len(qf), n, off, stride, p,
				got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

// TestScoreKeysMatchesScalar pins the Q·K kernel this machine selected
// (the AVX assembly on amd64) to the portable loop, score for score, over
// head widths 1-32 (the assembly takes multiples of four), context lengths
// on both sides of every multiple of eight up to MaxSeq, every head offset
// of a three-head row and an unaligned one, and keys and queries holding
// ±0, denormals, ±Inf and NaN.
func TestScoreKeysMatchesScalar(t *testing.T) {
	const maxSeq = 160
	var rs uint64 = 71
	next := func() uint64 {
		rs += 0x9e3779b97f4a7c15
		z := rs
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	specials := []float32{0, float32(math.Copysign(0, -1)), math.Float32frombits(1), -math.Float32frombits(0x007fffff),
		float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN())}
	value := func(specialOdds uint64) float32 {
		u := next()
		if u%specialOdds == 0 {
			return specials[(u>>32)%uint64(len(specials))]
		}
		return float32(int64(u>>40)-1<<23) / (1 << 22)
	}
	ns := []int{0, 1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 63, 64, 65, 121, 127, 128, maxSeq}
	const heads = 3
	for hd := 1; hd <= 32; hd++ {
		for _, pad := range []int{0, 3} {
			stride := heads*hd + pad
			keys := make([]float32, maxSeq*stride)
			for i := range keys {
				keys[i] = value(97)
			}
			for _, odds := range []uint64{1 << 62, 11} { // plain queries, then queries with specials
				qf := make([]float64, hd)
				for i := range qf {
					qf[i] = float64(value(odds))
				}
				for _, n := range ns {
					for h := 0; h < heads; h++ {
						checkScoreKeys(t, fmt.Sprintf("head %d pad %d", h, pad), qf, keys, n, h*hd+pad, stride)
					}
				}
			}
		}
	}
}

// FuzzScoreKeys feeds both kernels raw bit patterns — every NaN payload,
// subnormal and signed zero the byte stream can spell — in keys and query,
// at arbitrary head width, context length, head offset and row padding.
func FuzzScoreKeys(f *testing.F) {
	f.Add([]byte{0, 0, 0x80, 0x3f, 0, 0, 0, 0x80}, []byte{0, 0, 0x80, 0x7f, 1, 0, 0xc0, 0x7f}, uint8(16), uint8(9), uint8(3))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}, []byte{1, 2, 3, 4}, uint8(4), uint8(160), uint8(0))
	f.Add([]byte{}, []byte{}, uint8(2), uint8(33), uint8(7))
	f.Fuzz(func(t *testing.T, qb, kb []byte, width, seq, pad uint8) {
		hd := 1 + int(width)%32
		n := int(seq) % 161
		off := int(pad) % 5
		stride := off + hd + int(pad>>4)
		qf := make([]float64, hd)
		for i := range qf {
			if len(qb) >= 4 {
				qf[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(qb[(4*i)%(len(qb)-3):])))
			}
		}
		keys := make([]float32, max(n, 1)*stride)
		for i := range keys {
			if len(kb) >= 4 {
				// Cycle the key bytes at a drifting byte offset, so a short
				// input still gives every column a different pattern.
				j := (i*5 + i/7) % (len(kb) - 3)
				keys[i] = math.Float32frombits(binary.LittleEndian.Uint32(kb[j:]))
			}
		}
		checkScoreKeys(t, "fuzz", qf, keys, n, off, stride)
	})
}

// TestBatchStepDoesNotAllocate: a one-thread Batch.Step over states that
// own their rows allocates nothing — the Q·K kernel and the softmax's exp
// pass take no scratch.
func TestBatchStepDoesNotAllocate(t *testing.T) {
	m := MustBuild(testSpec(QwenS))
	m.SetThreads(1)
	rows := make([]*DecodeRow, 4)
	for i := range rows {
		rows[i] = &DecodeRow{St: shardState(m, i), Logits: make([]float32, m.Cfg.Vocab)}
	}
	b := m.NewBatch(len(rows))
	step := 0
	if n := testing.AllocsPerRun(10, func() {
		for i, row := range rows {
			row.Tok = shardTok(i, step, m.Cfg.Vocab)
		}
		b.Step(rows)
		step++
	}); n != 0 {
		t.Fatalf("Batch.Step on one thread: %v allocations per step", n)
	}
}

// BenchmarkScoreKeys times one head's scores over 128 keys of a 16-wide
// head in 64-wide rows, the benchmark model's shape, under each kernel.
func BenchmarkScoreKeys(b *testing.B) {
	const n, hd, stride = 128, 16, 64
	keys := make([]float32, n*stride)
	for i := range keys {
		keys[i] = float32(i%29)/14 - 1
	}
	qf := make([]float64, hd)
	for i := range qf {
		qf[i] = float64(i%5) / 5
	}
	scores := make([]float32, n)
	for name, kernel := range map[string]func([]float32, []float64, []float32, int, int, float64){
		"selected": scoreKeys, "portable": scoreKeysPortable,
	} {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				kernel(scores, qf, keys, 16, stride, 0.25)
			}
		})
	}
}
