package tensor

import (
	"runtime"
	"sync"
)

// minRowsPerWorker keeps tiny matmuls single-threaded; spawning goroutines
// for a 1×64 · 64×64 product costs more than the product.
const minRowsPerWorker = 32

// MatMul computes out = a · b with up to GOMAXPROCS worker goroutines.
// Callers that must bound their CPU share (campaign workers splitting the
// machine) use MatMulP with an explicit worker count instead; there is no
// package-global parallelism knob.
func MatMul(out, a, b *Tensor) {
	MatMulP(out, a, b, runtime.GOMAXPROCS(0))
}

// MatMulP computes out = a · b where a is m×k and b is k×n, using at most
// workers goroutines (values < 1 mean serial). out must be m×n and
// distinct from a and b. It is MatMulRows over every row of a.
func MatMulP(out, a, b *Tensor, workers int) {
	MatMulRows(out, a, b, a.Rows, workers)
}

// MatMulRows computes the first rows rows of out = a · b, leaving the
// remaining rows of out untouched: MatMulRange over [0, rows).
func MatMulRows(out, a, b *Tensor, rows, workers int) {
	MatMulRange(out, a, b, 0, rows, workers)
}

// MatMulRange computes rows [r0, r1) of out = a · b, leaving every other
// row of out untouched — the one GEMM behind prefill (all rows) and
// batched decode (a scheduler keeps activation tensors sized for its
// capacity, stacks however many trials are in flight into the leading
// rows, and hands each of its shards a contiguous range of them). Each
// output row's accumulation sequence is bit-identical to MatVec on that
// row (p ascending with zero inputs skipped, float32 accumulation), so
// one matmul per layer replaces r1-r0 GEMVs without changing a single
// bit of any row's result. Large products are split across rows, so that
// holds for every worker count; calls on disjoint ranges of one out may
// run concurrently.
func MatMulRange(out, a, b *Tensor, r0, r1, workers int) {
	if a.Cols != b.Rows || out.Rows != a.Rows || out.Cols != b.Cols {
		panic("tensor: MatMul shape mismatch")
	}
	if r0 < 0 || r0 > r1 || r1 > a.Rows {
		panic("tensor: MatMulRange rows out of range")
	}
	if workers > 1 && r1-r0 >= minRowsPerWorker*2 {
		parallelRows(r1-r0, workers, func(s0, s1 int) {
			matmulRowsTiled(out, a, b, r0+s0, r0+s1)
		})
		return
	}
	matmulRowsTiled(out, a, b, r0, r1)
}

// matmulRowsTiled computes rows [r0, r1) of out = a·b, one row at a time
// through the row kernel behind MatVec.
func matmulRowsTiled(out, a, b *Tensor, r0, r1 int) {
	n := b.Cols
	k := a.Cols
	for i := r0; i < r1; i++ {
		MatVecStrided(out.Data[i*n:(i+1)*n], a.Data[i*k:(i+1)*k], b.Data, n)
	}
}

// MatMulT computes out = a · bᵀ where a is m×k and b is n×k, so out is
// m×n, both operands streaming row-wise. Training's backward pass
// (internal/train/backward.go) is its one caller, for the gradients through
// each linear layer's weight; inference attention does not use it (its
// Q·K runs over the K cache's columns, internal/model/kv.go).
func MatMulT(out, a, b *Tensor) {
	if a.Cols != b.Cols || out.Rows != a.Rows || out.Cols != b.Rows {
		panic("tensor: MatMulT shape mismatch")
	}
	k := a.Cols
	n := b.Rows
	body := func(r0, r1 int) {
		for i := r0; i < r1; i++ {
			arow := a.Data[i*k : (i+1)*k]
			orow := out.Data[i*n : (i+1)*n]
			for j := 0; j < n; j++ {
				brow := b.Data[j*k : (j+1)*k]
				var sum float32
				for p, av := range arow {
					sum += av * brow[p]
				}
				orow[j] = sum
			}
		}
	}
	if workers := runtime.GOMAXPROCS(0); workers > 1 && a.Rows >= minRowsPerWorker*2 {
		parallelRows(a.Rows, workers, body)
		return
	}
	body(0, a.Rows)
}

// AddMatMulAT computes out += aᵀ · b where a is t×m and b is t×n, so out
// is m×n: the dW += Xᵀ·dY shape of linear-layer backprop, accumulating
// across a batch.
func AddMatMulAT(out, a, b *Tensor) {
	if a.Rows != b.Rows || out.Rows != a.Cols || out.Cols != b.Cols {
		panic("tensor: AddMatMulAT shape mismatch")
	}
	m, n := a.Cols, b.Cols
	for t := 0; t < a.Rows; t++ {
		arow := a.Data[t*m : (t+1)*m]
		brow := b.Data[t*n : (t+1)*n]
		for i, av := range arow {
			if av == 0 {
				continue
			}
			orow := out.Data[i*n : (i+1)*n]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
}

// parallelRows splits [0, rows) into contiguous chunks and runs body on
// each chunk in its own goroutine, waiting for all to finish.
func parallelRows(rows, workers int, body func(r0, r1 int)) {
	if workers > rows {
		workers = rows
	}
	var wg sync.WaitGroup
	chunk := (rows + workers - 1) / workers
	for r0 := 0; r0 < rows; r0 += chunk {
		r1 := r0 + chunk
		if r1 > rows {
			r1 = rows
		}
		wg.Add(1)
		go func(r0, r1 int) {
			defer wg.Done()
			body(r0, r1)
		}(r0, r1)
	}
	wg.Wait()
}

// MatVec computes out = x · w where x is a 1×k row vector and w is k×n.
// It is the hot path of single-token decoding: MatVecStrided over a
// whole matrix, whose per-element accumulation sequence (p ascending,
// zero inputs skipped) is the contract every batched and blocked GEMM in
// this package is pinned to.
func MatVec(out []float32, x []float32, w *Tensor) {
	if len(x) != w.Rows || len(out) != w.Cols {
		panic("tensor: MatVec shape mismatch")
	}
	MatVecStrided(out, x, w.Data, w.Cols)
}
