// Package tensor is the minimal dense-tensor library under the real
// training engine: row-major float32 storage, the operations a transformer
// needs, and IEEE-754 half-precision round-tripping so the engine's
// offloaded tensors occupy exactly the 2 bytes/element the paper's A16/P16/
// G16 accounting assumes.
//
// Kernels are cache-blocked and run on the shared worker pool
// (internal/tensor/pool), sharding only independent outputs — matmul row
// panels, softmax rows, element-wise chunks — never reductions. Each output
// element is therefore produced by exactly one goroutine with the same
// per-element arithmetic as the serial kernel, so results are bit-identical
// across thread counts and runs: the engine's correctness suite still
// compares runs bit-for-bit. Parallelism is sized by RATEL_THREADS /
// runtime.GOMAXPROCS and adjustable via SetParallelism; small tensors fall
// back to the serial path and pay no scheduling overhead.
//
// Inner loops dispatch through internal/tensor/simd: AVX2/FMA/F16C
// microkernels when the CPU supports them (RATEL_NOSIMD=1 pins the
// portable reference). The fp16 codec and element-wise kernels are
// bit-identical to the reference on every path; the matmul family uses
// FMA on the vector path, which changes rounding versus the scalar
// reference — deterministic on a given machine at any thread count and
// tile size, but not bit-portable across machines with different feature
// sets (DESIGN.md §11). Matmul tile sizes and the element-wise grain are
// tunable per machine (SetTiling/SetElemGrain, `ratelbench tune`);
// retiling never changes results, only cache behaviour.
package tensor

import (
	"fmt"
	"math"
	"math/rand"

	"ratel/internal/tensor/pool"
	"ratel/internal/tensor/simd"
)

// Tensor is a dense row-major float32 tensor.
type Tensor struct {
	Shape []int
	Data  []float32
}

// New allocates a zero tensor.
func New(shape ...int) *Tensor {
	return &Tensor{Shape: append([]int(nil), shape...), Data: make([]float32, Numel(shape...))}
}

// FromData wraps data (not copied) with a shape.
func FromData(data []float32, shape ...int) (*Tensor, error) {
	if len(data) != Numel(shape...) {
		return nil, fmt.Errorf("tensor: %d values for shape %v", len(data), shape)
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: data}, nil
}

// Numel is the element count of a shape.
func Numel(shape ...int) int {
	n := 1
	for _, d := range shape {
		n *= d
	}
	return n
}

// Numel is the tensor's element count.
func (t *Tensor) Numel() int { return len(t.Data) }

// Clone deep-copies t.
func (t *Tensor) Clone() *Tensor {
	c := New(t.Shape...)
	copy(c.Data, t.Data)
	return c
}

// Zero clears t in place.
func (t *Tensor) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// Dims2 returns the shape of a rank-2 tensor.
func (t *Tensor) Dims2() (rows, cols int, err error) {
	if len(t.Shape) != 2 {
		return 0, 0, fmt.Errorf("tensor: rank %d, want 2", len(t.Shape))
	}
	return t.Shape[0], t.Shape[1], nil
}

// RandInit fills t with a deterministic scaled normal initialization.
func (t *Tensor) RandInit(rng *rand.Rand, std float64) {
	for i := range t.Data {
		t.Data[i] = float32(rng.NormFloat64() * std)
	}
}

// kBlock is the MatMul k-tile: one tile of B (kBlock x n panel) stays
// cache-resident while a row panel of A sweeps it. Tunable via SetTiling;
// any value yields bit-identical results (the accumulation order over p
// is increasing regardless of blocking).
var kBlock = 256

// jBlock is the MatMulT column tile: a jBlock-row panel of B is reused
// across every row of the A panel before moving on. Tunable via
// SetTiling; results are independent of its value.
var jBlock = 64

// SetTiling sets the matmul tile sizes (the MatMul k-tile and the MatMulT
// column tile). Values < 1 are rejected. Tiling affects only cache
// behaviour, never results; it is applied at startup (engine init loads
// the `ratelbench tune` calibration profile) and must not be changed
// while kernels are running.
func SetTiling(k, j int) error {
	if k < 1 || j < 1 {
		return fmt.Errorf("tensor: tile sizes %d/%d, want >= 1", k, j)
	}
	kBlock, jBlock = k, j
	return nil
}

// Tiling reports the current matmul tile sizes (kBlock, jBlock).
func Tiling() (k, j int) { return kBlock, jBlock }

// SetElemGrain sets the minimum elements per pool chunk for element-wise
// kernels. Values < 1 are rejected. Like tiling, it affects scheduling
// only — element-wise outputs are independent, so results are identical
// for any grain.
func SetElemGrain(n int) error {
	if n < 1 {
		return fmt.Errorf("tensor: element grain %d, want >= 1", n)
	}
	elemGrain = n
	return nil
}

// ElemGrain reports the current element-wise chunk grain.
func ElemGrain() int { return elemGrain }

// MatMul computes c = a·b for rank-2 tensors [m,k]x[k,n].
//
// Rows of c are sharded across the worker pool; within a row the inner
// accumulation order is increasing p regardless of blocking or thread
// count, so the result is bit-identical to the serial kernel. Zero entries
// of a are NOT skipped: 0·NaN and 0·Inf must propagate as NaN.
func MatMul(a, b *Tensor) (*Tensor, error) {
	m, _, err := a.Dims2()
	if err != nil {
		return nil, err
	}
	_, n, err := b.Dims2()
	if err != nil {
		return nil, err
	}
	c := New(m, n)
	if err := MatMulInto(c, a, b); err != nil {
		return nil, err
	}
	return c, nil
}

// MatMulInto computes c = a·b into the caller-owned c, which must already
// have shape [m,n]. c is fully overwritten (zeroed, then accumulated), so a
// dirty reused buffer yields the same bits as a fresh one — the in-place
// counterpart of MatMul for scratch-reusing callers.
func MatMulInto(c, a, b *Tensor) error {
	m, k, err := a.Dims2()
	if err != nil {
		return err
	}
	k2, n, err := b.Dims2()
	if err != nil {
		return err
	}
	if k != k2 {
		return fmt.Errorf("tensor: matmul inner dims %d vs %d", k, k2)
	}
	if err := checkDst(c, m, n, "matmul"); err != nil {
		return err
	}
	cd, ad, bd := c.Data, a.Data, b.Data
	work := int64(m) * int64(k) * int64(n)
	if pool.InlineWork(work) {
		matMulPanel(cd, ad, bd, k, n, 0, m)
		return nil
	}
	parallelRows(m, work, func(lo, hi int) { matMulPanel(cd, ad, bd, k, n, lo, hi) })
	return nil
}

// matMulPanel computes rows [lo,hi) of c = a·b (zero, then accumulate in
// increasing p, one simd.Axpy row update per (i,p)). Named rather than a
// closure so the serial path allocates nothing.
func matMulPanel(cd, ad, bd []float32, k, n, lo, hi int) {
	for i := lo; i < hi; i++ {
		crow := cd[i*n : (i+1)*n]
		for j := range crow {
			crow[j] = 0
		}
	}
	for p0 := 0; p0 < k; p0 += kBlock {
		p1 := p0 + kBlock
		if p1 > k {
			p1 = k
		}
		for i := lo; i < hi; i++ {
			arow := ad[i*k : (i+1)*k]
			crow := cd[i*n : (i+1)*n]
			for p := p0; p < p1; p++ {
				simd.Axpy(crow, bd[p*n:(p+1)*n], arow[p])
			}
		}
	}
}

// MatMulT computes c = a·bᵀ for [m,k]x[n,k].
//
// Rows of c are sharded across the pool; each dot product accumulates in
// increasing p exactly as the serial kernel does, so the result is
// bit-identical at any thread count.
func MatMulT(a, b *Tensor) (*Tensor, error) {
	m, _, err := a.Dims2()
	if err != nil {
		return nil, err
	}
	n, _, err := b.Dims2()
	if err != nil {
		return nil, err
	}
	c := New(m, n)
	if err := MatMulTInto(c, a, b); err != nil {
		return nil, err
	}
	return c, nil
}

// MatMulTInto computes c = a·bᵀ into the caller-owned c [m,n]. Every cell
// is written (no accumulation), so reused buffers need no zeroing and the
// bits match MatMulT exactly.
func MatMulTInto(c, a, b *Tensor) error {
	m, k, err := a.Dims2()
	if err != nil {
		return err
	}
	n, k2, err := b.Dims2()
	if err != nil {
		return err
	}
	if k != k2 {
		return fmt.Errorf("tensor: matmulT inner dims %d vs %d", k, k2)
	}
	if err := checkDst(c, m, n, "matmulT"); err != nil {
		return err
	}
	cd, ad, bd := c.Data, a.Data, b.Data
	work := int64(m) * int64(k) * int64(n)
	if pool.InlineWork(work) {
		matMulTPanel(cd, ad, bd, k, n, 0, m)
		return nil
	}
	parallelRows(m, work, func(lo, hi int) { matMulTPanel(cd, ad, bd, k, n, lo, hi) })
	return nil
}

// matMulTPanel computes rows [lo,hi) of c = a·bᵀ, writing every cell
// (one simd.Dot per cell).
func matMulTPanel(cd, ad, bd []float32, k, n, lo, hi int) {
	for j0 := 0; j0 < n; j0 += jBlock {
		j1 := j0 + jBlock
		if j1 > n {
			j1 = n
		}
		for i := lo; i < hi; i++ {
			arow := ad[i*k : (i+1)*k]
			crow := cd[i*n : (i+1)*n]
			for j := j0; j < j1; j++ {
				crow[j] = simd.Dot(arow, bd[j*k:(j+1)*k])
			}
		}
	}
}

// TMatMul computes c = aᵀ·b for [k,m]x[k,n].
//
// Output rows (columns of a) are sharded across the pool; each participant
// sweeps the full k extent for its row panel, keeping the panel of c
// cache-resident, and accumulates in increasing p — the serial order — so
// the result is bit-identical at any thread count. Zero entries of a are
// NOT skipped (NaN/Inf propagation).
func TMatMul(a, b *Tensor) (*Tensor, error) {
	_, m, err := a.Dims2()
	if err != nil {
		return nil, err
	}
	_, n, err := b.Dims2()
	if err != nil {
		return nil, err
	}
	c := New(m, n)
	if err := TMatMulInto(c, a, b); err != nil {
		return nil, err
	}
	return c, nil
}

// TMatMulInto computes c = aᵀ·b into the caller-owned c [m,n]. c is fully
// overwritten (zeroed, then accumulated), so dirty reused buffers are safe.
func TMatMulInto(c, a, b *Tensor) error {
	k, m, err := a.Dims2()
	if err != nil {
		return err
	}
	k2, n, err := b.Dims2()
	if err != nil {
		return err
	}
	if k != k2 {
		return fmt.Errorf("tensor: tmatmul inner dims %d vs %d", k, k2)
	}
	if err := checkDst(c, m, n, "tmatmul"); err != nil {
		return err
	}
	cd, ad, bd := c.Data, a.Data, b.Data
	work := int64(m) * int64(k) * int64(n)
	if pool.InlineWork(work) {
		tMatMulPanel(cd, ad, bd, k, m, n, 0, m)
		return nil
	}
	parallelRows(m, work, func(lo, hi int) { tMatMulPanel(cd, ad, bd, k, m, n, lo, hi) })
	return nil
}

// tMatMulPanel computes rows [lo,hi) of c = aᵀ·b (zero, then accumulate in
// increasing p).
func tMatMulPanel(cd, ad, bd []float32, k, m, n, lo, hi int) {
	for i := lo; i < hi; i++ {
		crow := cd[i*n : (i+1)*n]
		for j := range crow {
			crow[j] = 0
		}
	}
	for p := 0; p < k; p++ {
		arow := ad[p*m : (p+1)*m]
		brow := bd[p*n : (p+1)*n]
		for i := lo; i < hi; i++ {
			simd.Axpy(cd[i*n:(i+1)*n], brow, arow[i])
		}
	}
}

// checkDst validates that a caller-owned destination has the exact rank-2
// shape an Into kernel is about to write.
func checkDst(c *Tensor, m, n int, op string) error {
	cm, cn, err := c.Dims2()
	if err != nil {
		return err
	}
	if cm != m || cn != n {
		return fmt.Errorf("tensor: %s dst %dx%d, want %dx%d", op, cm, cn, m, n)
	}
	return nil
}

// AddInPlace computes a += b elementwise.
func AddInPlace(a, b *Tensor) error {
	if len(a.Data) != len(b.Data) {
		return fmt.Errorf("tensor: add size %d vs %d", len(a.Data), len(b.Data))
	}
	ad, bd := a.Data, b.Data
	if pool.InlineWork(int64(len(ad))) {
		addChunk(ad, bd, 0, len(ad))
		return nil
	}
	parallelFor(len(ad), elemGrain, int64(len(ad)), func(lo, hi int) { addChunk(ad, bd, lo, hi) })
	return nil
}

func addChunk(ad, bd []float32, lo, hi int) {
	simd.Add(ad[lo:hi], bd[lo:hi])
}

// AddBias adds bias (length n) to each row of x [m,n].
func AddBias(x, bias *Tensor) error {
	m, n, err := x.Dims2()
	if err != nil {
		return err
	}
	if len(bias.Data) != n {
		return fmt.Errorf("tensor: bias length %d for %d columns", len(bias.Data), n)
	}
	xd, bd := x.Data, bias.Data
	work := int64(m) * int64(n)
	if pool.InlineWork(work) {
		addBiasRows(xd, bd, n, 0, m)
		return nil
	}
	parallelRows(m, work, func(lo, hi int) { addBiasRows(xd, bd, n, lo, hi) })
	return nil
}

func addBiasRows(xd, bd []float32, n, lo, hi int) {
	for i := lo; i < hi; i++ {
		simd.Add(xd[i*n:(i+1)*n], bd)
	}
}

// Scale multiplies t by s in place.
func (t *Tensor) Scale(s float32) {
	d := t.Data
	if pool.InlineWork(int64(len(d))) {
		scaleChunk(d, s, 0, len(d))
		return
	}
	parallelFor(len(d), elemGrain, int64(len(d)), func(lo, hi int) { scaleChunk(d, s, lo, hi) })
}

func scaleChunk(d []float32, s float32, lo, hi int) {
	simd.Scale(d[lo:hi], s)
}

// GELU applies the tanh-approximated GELU elementwise, returning a new
// tensor.
func GELU(x *Tensor) *Tensor {
	y := New(x.Shape...)
	xd, yd := x.Data, y.Data
	// ~20 scalar ops per element (tanh), so parallelize by op count.
	work := 20 * int64(len(xd))
	if pool.InlineWork(work) {
		geluChunk(xd, yd, 0, len(xd))
		return y
	}
	parallelFor(len(xd), elemGrain, work, func(lo, hi int) { geluChunk(xd, yd, lo, hi) })
	return y
}

func geluChunk(xd, yd []float32, lo, hi int) {
	xs, ys := xd[lo:hi], yd[lo:hi]
	for i, v := range xs {
		ys[i] = geluScalar(v)
	}
}

func geluScalar(v float32) float32 {
	const c = 0.7978845608028654 // sqrt(2/pi)
	x := float64(v)
	return float32(0.5 * x * (1 + math.Tanh(c*(x+0.044715*x*x*x))))
}

// GELUBackward computes dx = dy * gelu'(x).
func GELUBackward(x, dy *Tensor) (*Tensor, error) {
	if len(x.Data) != len(dy.Data) {
		return nil, fmt.Errorf("tensor: gelu backward size %d vs %d", len(x.Data), len(dy.Data))
	}
	dx := New(x.Shape...)
	xd, dyd, dxd := x.Data, dy.Data, dx.Data
	work := 30 * int64(len(xd))
	if pool.InlineWork(work) {
		geluBackwardChunk(xd, dyd, dxd, 0, len(xd))
		return dx, nil
	}
	parallelFor(len(xd), elemGrain, work, func(lo, hi int) { geluBackwardChunk(xd, dyd, dxd, lo, hi) })
	return dx, nil
}

func geluBackwardChunk(xd, dyd, dxd []float32, lo, hi int) {
	const c = 0.7978845608028654
	for i := lo; i < hi; i++ {
		xf := float64(xd[i])
		u := c * (xf + 0.044715*xf*xf*xf)
		tanh := math.Tanh(u)
		sech2 := 1 - tanh*tanh
		du := c * (1 + 3*0.044715*xf*xf)
		g := 0.5*(1+tanh) + 0.5*xf*sech2*du
		dxd[i] = dyd[i] * float32(g)
	}
}

// SoftmaxRows applies a numerically-stable softmax to each row in place.
// Rows are independent and sharded across the pool; per-row arithmetic is
// unchanged, so results are bit-identical at any thread count.
func SoftmaxRows(x *Tensor) error {
	m, n, err := x.Dims2()
	if err != nil {
		return err
	}
	xd := x.Data
	work := 10 * int64(m) * int64(n)
	if pool.InlineWork(work) {
		softmaxRowsChunk(xd, n, 0, m)
		return nil
	}
	parallelRows(m, work, func(lo, hi int) { softmaxRowsChunk(xd, n, lo, hi) })
	return nil
}

func softmaxRowsChunk(xd []float32, n, lo, hi int) {
	for i := lo; i < hi; i++ {
		row := xd[i*n : (i+1)*n]
		max := row[0]
		for _, v := range row {
			if v > max {
				max = v
			}
		}
		var sum float64
		for j, v := range row {
			e := math.Exp(float64(v - max))
			row[j] = float32(e)
			sum += e
		}
		inv := float32(1 / sum)
		for j := range row {
			row[j] *= inv
		}
	}
}

// parallelRows shards rows [0,n) across the pool when the job is worth it
// (work is an estimated scalar-op count), else runs body(0, n) inline.
func parallelRows(n int, work int64, body func(lo, hi int)) {
	parallelFor(n, 1, work, body)
}

// parallelElems shards a flat element range, costing each element one op.
func parallelElems(n int, body func(lo, hi int)) {
	parallelFor(n, elemGrain, int64(n), body)
}

// elemGrain is the minimum elements per chunk for element-wise kernels,
// keeping chunk dispatch amortized over a useful block of work. Tunable
// via SetElemGrain (per-machine calibration).
var elemGrain = 4096

// parallelFor is the kernels' pool entry: serial below pool.SerialCutoff
// ops or at parallelism 1, sharded otherwise.
func parallelFor(n, grain int, work int64, body func(lo, hi int)) {
	pool.ForWork(n, grain, work, body)
}

// SetParallelism sets the worker-pool participant count the kernels use;
// n < 1 is clamped to 1 (fully serial). The initial value comes from
// RATEL_THREADS, else runtime.GOMAXPROCS(0).
func SetParallelism(n int) { pool.Default().SetLimit(n) }

// Parallelism reports the current kernel parallelism.
func Parallelism() int { return pool.Default().Limit() }
