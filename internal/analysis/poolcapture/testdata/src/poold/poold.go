// Package poold is poolcapture's golden testdata. It imports the real
// pool package so callee resolution works exactly as it does in the
// kernels.
package poold

import (
	"sync/atomic"

	"ratel/internal/tensor/pool"
)

func scalarAccumulate(xs []float64) float64 {
	var sum float64
	pool.For(len(xs), 64, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			sum += xs[i] // want `closure passed to pool.For writes captured variable "sum"`
		}
	})
	return sum
}

func counterIncrement(chunks int) int {
	total := 0
	pool.Run(chunks, func(chunk int) {
		total++ // want `closure passed to pool.Run writes captured variable "total"`
	})
	return total
}

func appendCapture(xs []float64) []float64 {
	var out []float64
	pool.ForWork(len(xs), 32, 8, func(lo, hi int) {
		out = append(out, xs[lo:hi]...) // want `closure passed to pool.ForWork writes captured variable "out"`
	})
	return out
}

func methodReceiverToo(p *pool.Pool, xs []float64) float64 {
	var sum float64
	p.For(len(xs), 64, func(lo, hi int) {
		sum = xs[lo] // want `closure passed to pool.For writes captured variable "sum"`
	})
	return sum
}

func kernelLiteral(xs []float32) float32 {
	var last float32
	pool.ForWorkKernel(len(xs), 64, 8, pool.Operands{X: xs}, func(ops pool.Operands, lo, hi int) {
		last = ops.X[hi-1] // want `closure passed to pool.ForWorkKernel writes captured variable "last"`
	})
	return last
}

func shardedWriteIsFine(xs, out []float64) {
	pool.For(len(xs), 64, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = xs[i] * 2
		}
	})
}

func partialReduceIsFine(xs []float64, chunks int) float64 {
	partial := make([]float64, chunks)
	pool.Run(chunks, func(chunk int) {
		var local float64
		for _, x := range xs {
			local += x
		}
		partial[chunk] = local
	})
	var sum float64
	for _, p := range partial {
		sum += p
	}
	return sum
}

func atomicIsFine(xs []int64) int64 {
	var total atomic.Int64
	pool.For(len(xs), 64, func(lo, hi int) {
		var local int64
		for i := lo; i < hi; i++ {
			local += xs[i]
		}
		total.Add(local)
	})
	return total.Load()
}

func sequentialOutsideIsFine(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum
}
