// Package units provides the byte, time and bandwidth quantities used
// throughout the Ratel reproduction, with the GiB-based formatting the paper
// reports its figures in.
package units

import (
	"fmt"
	"math"
	"time"
)

// Bytes is a tensor or transfer size in bytes.
type Bytes int64

// Common byte quantities.
const (
	KiB Bytes = 1 << 10
	MiB Bytes = 1 << 20
	GiB Bytes = 1 << 30
	TiB Bytes = 1 << 40

	KB Bytes = 1e3
	MB Bytes = 1e6
	GB Bytes = 1e9
	TB Bytes = 1e12
)

// GiBf reports b in binary gigabytes as a float, the unit the paper's
// figures use.
func (b Bytes) GiBf() float64 { return float64(b) / float64(GiB) }

// GBf reports b in decimal gigabytes as a float.
func (b Bytes) GBf() float64 { return float64(b) / float64(GB) }

// String renders b with a human-readable suffix.
func (b Bytes) String() string {
	abs := b
	if abs < 0 {
		abs = -abs
	}
	switch {
	case abs >= TiB:
		return fmt.Sprintf("%.2f TiB", float64(b)/float64(TiB))
	case abs >= GiB:
		return fmt.Sprintf("%.2f GiB", float64(b)/float64(GiB))
	case abs >= MiB:
		return fmt.Sprintf("%.2f MiB", float64(b)/float64(MiB))
	case abs >= KiB:
		return fmt.Sprintf("%.2f KiB", float64(b)/float64(KiB))
	}
	return fmt.Sprintf("%d B", int64(b))
}

// Seconds is a simulated duration. The simulator uses float seconds rather
// than time.Duration because iteration times are derived from bandwidth
// divisions and FLOP counts, where nanosecond quantization adds nothing.
type Seconds float64

// String renders s with millisecond precision.
func (s Seconds) String() string { return fmt.Sprintf("%.3fs", float64(s)) }

// Duration converts s to a wall-clock time.Duration, saturating at the
// representable range so +Inf (infeasible placements) stays ordered.
func (s Seconds) Duration() time.Duration {
	v := float64(s) * float64(time.Second)
	switch {
	case v >= math.MaxInt64:
		return time.Duration(math.MaxInt64)
	case v <= math.MinInt64:
		return time.Duration(math.MinInt64)
	}
	return time.Duration(v)
}

// BytesPerSecond is a link or device bandwidth.
type BytesPerSecond float64

// GBps constructs a bandwidth from decimal GB/s, the unit vendors and the
// paper use for PCIe and SSD bandwidth.
func GBps(v float64) BytesPerSecond { return BytesPerSecond(v * 1e9) }

// GBpsf reports the bandwidth in decimal GB/s.
func (bw BytesPerSecond) GBpsf() float64 { return float64(bw) / 1e9 }

// TransferTime reports how long moving b bytes takes at bandwidth bw.
// A zero or negative bandwidth with a positive size yields +Inf, which the
// iteration-time model treats as "this placement is infeasible".
func TransferTime(b Bytes, bw BytesPerSecond) Seconds {
	if b <= 0 {
		return 0
	}
	if bw <= 0 {
		return Seconds(math.Inf(1))
	}
	return Seconds(float64(b) / float64(bw))
}

// TransferNanos is the exact, fractional nanosecond cost of moving b bytes
// at bw. The NVMe throttles carry the sub-nanosecond remainder between
// charges: TransferTime(b, bw).Duration() truncates to a whole nanosecond,
// which rounds a 1-byte chunk at 6.5 GB/s (0.15 ns) — and, accumulated, any
// stream of sub-microsecond transfers — down to free. Callers guard bw > 0.
func TransferNanos(b Bytes, bw BytesPerSecond) float64 {
	if b <= 0 || bw <= 0 {
		return 0
	}
	return float64(b) / float64(bw) * float64(time.Second)
}

// FLOPs is a floating-point operation count.
type FLOPs float64

// TFLOPf reports f in teraFLOPs.
func (f FLOPs) TFLOPf() float64 { return float64(f) / 1e12 }

// GFLOPf reports f in gigaFLOPs.
func (f FLOPs) GFLOPf() float64 { return float64(f) / 1e9 }

// FLOPsPerSecond is a compute throughput.
type FLOPsPerSecond float64

// TFLOPS constructs a throughput from teraFLOP/s.
func TFLOPS(v float64) FLOPsPerSecond { return FLOPsPerSecond(v * 1e12) }

// TFLOPSf reports the throughput in teraFLOP/s.
func (t FLOPsPerSecond) TFLOPSf() float64 { return float64(t) / 1e12 }

// Throughput reports the rate achieved by executing f FLOPs in s seconds.
// Non-positive times yield 0 rather than Inf: a report of "0 TFLOPS" for a
// degenerate measurement window is less misleading than an infinite one.
func Throughput(f FLOPs, s Seconds) FLOPsPerSecond {
	if s <= 0 {
		return 0
	}
	return FLOPsPerSecond(float64(f) / float64(s))
}

// ComputeTime reports how long executing f FLOPs takes at throughput thp.
func ComputeTime(f FLOPs, thp FLOPsPerSecond) Seconds {
	if f <= 0 {
		return 0
	}
	if thp <= 0 {
		return Seconds(math.Inf(1))
	}
	return Seconds(float64(f) / float64(thp))
}

// MaxSeconds returns the largest of the given durations; it is the max() of
// the paper's Eqs. 2 and 5.
func MaxSeconds(ds ...Seconds) Seconds {
	var m Seconds
	for _, d := range ds {
		if d > m {
			m = d
		}
	}
	return m
}
