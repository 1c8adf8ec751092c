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

// checkScoreKeys runs the selected Q·K kernel and the portable one over the
// first n positions of a head's len(qf) columns of keys, a K plane's
// columns ld apart, each into its own guarded buffer, and fails on the
// first score that differs or guard that was written.
func checkScoreKeys(t testing.TB, label string, qf []float64, keys []float32, n, ld int) {
	t.Helper()
	const sentinel = float32(-12345.678)
	scale := 1 / math.Sqrt(float64(len(qf)))
	run := func(kernel func([]float32, []float64, []float32, int, float64)) []float32 {
		buf := make([]float32, n+2*scoreGuard)
		for i := range buf {
			buf[i] = sentinel
		}
		kernel(buf[scoreGuard:scoreGuard+n:scoreGuard+n], qf, keys, ld, scale)
		return buf
	}
	got, want := run(scoreKeys), run(scoreKeysPortable)
	for i := range got {
		p := i - scoreGuard
		if p < 0 || p >= n {
			if got[i] != sentinel {
				t.Fatalf("%s: hd=%d n=%d ld=%d: guard at %d overwritten with %v", label, len(qf), n, ld, p, got[i])
			}
			continue
		}
		if !sameScore(got[i], want[i]) {
			t.Fatalf("%s: hd=%d n=%d ld=%d: score %d = %v (%08x), portable %v (%08x)", label, len(qf), n, ld, p,
				got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

// scoreLengths are the context lengths the Q·K tests cover: both sides of
// every multiple of four up to 68 and of every multiple of sixteen (the
// lanes' pass) up to 160.
func scoreLengths() []int {
	var ns []int
	for n := 0; n <= 68; n++ {
		ns = append(ns, n)
	}
	for m := 80; m <= 160; m += 16 {
		ns = append(ns, m-1, m, m+1)
	}
	return ns
}

// TestScoreKeysMatchesScalar pins the Q·K kernel this machine selected
// (the AVX assembly on amd64) to the portable loop, score for score, over
// head widths 1-32, the lengths of scoreLengths, every head of a
// three-head K plane whose capacity is the length padded to sixteen and
// sixteen more, and keys and queries holding ±0, denormals, ±Inf and NaN.
// Each column's positions from n to the plane's capacity hold sentinels —
// NaN, ±Inf, huge — that must not reach a score, and each head's keys are
// handed over ending at its last column's position n-1: the kernel may
// read no key past the scores it computes.
func TestScoreKeysMatchesScalar(t *testing.T) {
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
	sentinels := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), 3e38, -3e38}
	value := func(specialOdds uint64) float32 {
		u := next()
		if u%specialOdds == 0 {
			return specials[(u>>32)%uint64(len(specials))]
		}
		return float32(int64(u>>40)-1<<23) / (1 << 22)
	}
	const heads = 3
	for hd := 1; hd <= 32; hd++ {
		for _, odds := range []uint64{1 << 62, 11} { // plain queries, then queries with specials
			qf := make([]float64, hd)
			for i := range qf {
				qf[i] = float64(value(odds))
			}
			for _, n := range scoreLengths() {
				for _, extra := range []int{0, kAlign} {
					ld := kPad(n) + extra
					plane := make([]float32, heads*hd*ld)
					for i := range plane {
						if p := i % max(ld, 1); p < n {
							plane[i] = value(97)
						} else {
							plane[i] = sentinels[(i/7)%len(sentinels)]
						}
					}
					for h := 0; h < heads; h++ {
						keys := plane[h*hd*ld : h*hd*ld+(hd-1)*ld+n]
						checkScoreKeys(t, fmt.Sprintf("head %d", h), qf, keys, n, ld)
					}
				}
			}
		}
	}
}

// FuzzScoreKeys feeds both kernels raw bit patterns — every NaN payload,
// subnormal and signed zero the byte stream can spell — in keys, padding
// and query, at arbitrary head width, context length and plane capacity.
func FuzzScoreKeys(f *testing.F) {
	f.Add([]byte{0, 0, 0x80, 0x3f, 0, 0, 0, 0x80}, []byte{0, 0, 0x80, 0x7f, 1, 0, 0xc0, 0x7f}, uint8(16), uint8(9), uint8(3))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}, []byte{1, 2, 3, 4}, uint8(4), uint8(160), uint8(0))
	f.Add([]byte{}, []byte{}, uint8(2), uint8(33), uint8(7))
	f.Fuzz(func(t *testing.T, qb, kb []byte, width, seq, pad uint8) {
		hd := 1 + int(width)%32
		n := int(seq) % 161
		ld := kPad(n) + kAlign*int(pad%3)
		qf := make([]float64, hd)
		for i := range qf {
			if len(qb) >= 4 {
				qf[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(qb[(4*i)%(len(qb)-3):])))
			}
		}
		keys := make([]float32, hd*ld)
		for i := range keys {
			if len(kb) >= 4 {
				// Cycle the key bytes at a drifting byte offset, so a short
				// input still gives every column a different pattern.
				j := (i*5 + i/7) % (len(kb) - 3)
				keys[i] = math.Float32frombits(binary.LittleEndian.Uint32(kb[j:]))
			}
		}
		checkScoreKeys(t, "fuzz", qf, keys[:(hd-1)*ld+n], n, ld)
	})
}

// TestBatchStepDoesNotAllocate: a Batch.Step over states that own their
// rows allocates nothing, at any thread budget — the step starts no
// goroutine (Batch), the Q·K kernel, the softmax's exp
// pass and the SiLU pass take no scratch, and an MoE block routes and
// mixes in the Batch's own. The MoE states record no expert trace, whose
// appends grow with every step.
func TestBatchStepDoesNotAllocate(t *testing.T) {
	for name, spec := range map[string]Spec{"dense": testSpec(QwenS), "moe": moeTestSpec(LlamaS)} {
		m := MustBuild(spec)
		m.SetThreads(4)
		rows := make([]*DecodeRow, 4)
		for i := range rows {
			st := m.NewState()
			st.Prefill(shardPrompt(i, m.Cfg.Vocab))
			rows[i] = &DecodeRow{St: st, Logits: make([]float32, m.Cfg.Vocab)}
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
			t.Fatalf("%s: Batch.Step at four threads: %v allocations per step", name, n)
		}
	}
}

// BenchmarkScoreKeys times one head's scores over 128 keys of a 16-wide
// head in a 64-column K plane, the benchmark model's shape, under each
// kernel.
func BenchmarkScoreKeys(b *testing.B) {
	const n, hd, d = 128, 16, 64
	plane := make([]float32, d*n)
	for i := range plane {
		plane[i] = float32(i%29)/14 - 1
	}
	qf := make([]float64, hd)
	for i := range qf {
		qf[i] = float64(i%5) / 5
	}
	scores := make([]float32, n)
	keys := plane[hd*n:]
	for name, kernel := range map[string]func([]float32, []float64, []float32, int, float64){
		"selected": scoreKeys, "portable": scoreKeysPortable,
	} {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				kernel(scores, qf, keys, n, 0.25)
			}
		})
	}
}
