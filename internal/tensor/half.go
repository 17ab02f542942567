package tensor

import (
	"encoding/binary"
	"fmt"
	"math"

	"ratel/internal/tensor/pool"
	"ratel/internal/tensor/simd"
)

// Half-precision support: the engine stores every offloaded tensor (P16,
// G16, A16) as IEEE-754 binary16 bytes, so offloaded footprints match the
// paper's 2 bytes/element accounting and mixed-precision rounding is
// exercised for real. The chunked kernels dispatch through
// internal/tensor/simd (F16C on amd64, bit-identical to the portable
// reference on every path); the scalar conversions below are thin
// wrappers over the same reference.

// Float32ToHalf converts with round-to-nearest-even, producing the binary16
// bit pattern.
func Float32ToHalf(f float32) uint16 { return simd.Float32ToHalf(f) }

// HalfToFloat32 decodes a binary16 bit pattern.
func HalfToFloat32(h uint16) float32 { return simd.HalfToFloat32(h) }

// RoundFP16 rounds a float32 through half precision, the P16 = fp16(P32)
// conversion of mixed-precision training.
func RoundFP16(f float32) float32 { return HalfToFloat32(Float32ToHalf(f)) }

// RoundFP16InPlace rounds every element of t through half precision.
// Elements are independent, so chunks shard across the worker pool with
// bit-identical results at any thread count.
func (t *Tensor) RoundFP16InPlace() {
	d := t.Data
	pool.ForWorkKernel(len(d), elemGrain, 4*int64(len(d)), pool.Operands{X: d}, roundFP16Kernel)
}

// The codec kernels below are pool.Kernel forms: top-level functions that
// read their slices from the operands, so a parallel dispatch captures
// nothing and allocates nothing (DESIGN.md §6).

// roundFP16Kernel rounds ops.X[lo:hi] in place.
func roundFP16Kernel(ops pool.Operands, lo, hi int) {
	simd.F16Round(ops.X[lo:hi])
}

// RoundFP16Into writes dst[i] = RoundFP16(src[i]); the slices must have
// equal length (they may alias only if identical). The chunked kernel the
// optimizer's P16 install and G16 staging paths use — bit-identical to
// the scalar loop at any thread count.
func RoundFP16Into(dst, src []float32) error {
	if len(dst) != len(src) {
		return fmt.Errorf("tensor: fp16 round %d values into %d", len(src), len(dst))
	}
	pool.ForWorkKernel(len(dst), elemGrain, 4*int64(len(dst)), pool.Operands{X: dst, Y: src}, roundFP16IntoKernel)
	return nil
}

// roundFP16IntoKernel writes ops.X[lo:hi] = fp16(ops.Y[lo:hi]).
func roundFP16IntoKernel(ops pool.Operands, lo, hi int) {
	copy(ops.X[lo:hi], ops.Y[lo:hi])
	simd.F16Round(ops.X[lo:hi])
}

// ToFP16Bytes encodes values as packed little-endian binary16.
func ToFP16Bytes(values []float32) []byte {
	out := make([]byte, 2*len(values))
	// The length is exact, so the Into variant's only error is impossible.
	_ = ToFP16BytesInto(out, values)
	return out
}

// ToFP16BytesInto encodes values as packed little-endian binary16 into dst,
// which the caller owns and which must hold exactly 2*len(values) bytes.
// Elements are independent, so chunks shard across the worker pool with
// bit-identical output at any thread count.
func ToFP16BytesInto(dst []byte, values []float32) error {
	if len(dst) != 2*len(values) {
		return fmt.Errorf("tensor: fp16 encode %d values into %d bytes", len(values), len(dst))
	}
	pool.ForWorkKernel(len(values), elemGrain, 4*int64(len(values)), pool.Operands{X: values, B: dst}, fp16EncodeKernel)
	return nil
}

// fp16EncodeKernel encodes ops.X[lo:hi] into ops.B as binary16.
func fp16EncodeKernel(ops pool.Operands, lo, hi int) {
	simd.F16Encode(ops.B[2*lo:2*hi], ops.X[lo:hi])
}

// FromFP16Bytes decodes packed binary16 into dst, which must hold
// len(b)/2 values. Chunks shard across the worker pool; per-element
// decoding is unchanged, so output is bit-identical at any thread count.
func FromFP16Bytes(b []byte, dst []float32) error {
	if len(b)%2 != 0 || len(dst) != len(b)/2 {
		return fmt.Errorf("tensor: fp16 decode %d bytes into %d values", len(b), len(dst))
	}
	pool.ForWorkKernel(len(dst), elemGrain, 4*int64(len(dst)), pool.Operands{X: dst, B: b}, fp16DecodeKernel)
	return nil
}

// fp16DecodeKernel decodes binary16 from ops.B into ops.X[lo:hi].
func fp16DecodeKernel(ops pool.Operands, lo, hi int) {
	simd.F16Decode(ops.X[lo:hi], ops.B[2*lo:2*hi])
}

// ToFP32Bytes encodes values as packed little-endian float32 (the P32/OS32
// representation in the NVMe store).
func ToFP32Bytes(values []float32) []byte {
	out := make([]byte, 4*len(values))
	_ = ToFP32BytesInto(out, values)
	return out
}

// ToFP32BytesInto encodes values as packed little-endian float32 into dst,
// which the caller owns and which must hold exactly 4*len(values) bytes —
// the allocation-free spill path of the out-of-core optimizer.
func ToFP32BytesInto(dst []byte, values []float32) error {
	if len(dst) != 4*len(values) {
		return fmt.Errorf("tensor: fp32 encode %d values into %d bytes", len(values), len(dst))
	}
	pool.ForWorkKernel(len(values), elemGrain, 2*int64(len(values)), pool.Operands{X: values, B: dst}, fp32EncodeKernel)
	return nil
}

// fp32EncodeKernel encodes ops.X[lo:hi] into ops.B as little-endian float32.
func fp32EncodeKernel(ops pool.Operands, lo, hi int) {
	for i := lo; i < hi; i++ {
		binary.LittleEndian.PutUint32(ops.B[4*i:], math.Float32bits(ops.X[i]))
	}
}

// FromFP32Bytes decodes packed float32 into dst.
func FromFP32Bytes(b []byte, dst []float32) error {
	if len(b)%4 != 0 || len(dst) != len(b)/4 {
		return fmt.Errorf("tensor: fp32 decode %d bytes into %d values", len(b), len(dst))
	}
	pool.ForWorkKernel(len(dst), elemGrain, 2*int64(len(dst)), pool.Operands{X: dst, B: b}, fp32DecodeKernel)
	return nil
}

// fp32DecodeKernel decodes little-endian float32 from ops.B into ops.X[lo:hi].
func fp32DecodeKernel(ops pool.Operands, lo, hi int) {
	for i := lo; i < hi; i++ {
		ops.X[i] = math.Float32frombits(binary.LittleEndian.Uint32(ops.B[4*i:]))
	}
}
