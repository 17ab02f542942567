package nvme

import (
	"math/bits"
	"sync"
)

// BufPool is a size-classed free list of byte buffers for the offload data
// path. Buffers are grouped into power-of-two capacity classes; Get serves
// the smallest class that fits, falling back to a larger class ("steal")
// before allocating fresh.
//
// The pool is explicit mutexed free lists rather than sync.Pool on purpose:
// the engine exports reuse rates to the metrics registry, so hit/miss/steal
// accounting must be deterministic and never silently reset by GC cycles.
//
// Ownership protocol: a buffer returned by Get belongs to the caller until
// it is passed to Put; after Put the caller must not read, write, retain, or
// re-Put it — the buffer may already back another caller's data. The
// `xferown` ratelvet analyzer flags uses past the Put — on every
// control-flow path — in engine and nvme code.
type BufPool struct {
	mu      sync.Mutex
	classes [bufClassCount][][]byte
	hits    int64
	misses  int64
	steals  int64
}

// BufStats reports cumulative pool behaviour: Hits are Gets served from the
// exact size class, Steals are Gets served from a larger class, Misses are
// Gets that had to allocate.
type BufStats struct {
	Hits, Misses, Steals int64
}

const (
	// minBufClassBits is the smallest pooled class (512 B); tinier requests
	// round up to it so micro-buffers still recycle.
	minBufClassBits = 9
	// maxBufClassBits is the largest pooled class (256 MiB); bigger requests
	// are served unpooled.
	maxBufClassBits = 28
	bufClassCount   = maxBufClassBits - minBufClassBits + 1
	// maxBuffersPerClass bounds retained memory per class; extra Puts are
	// dropped for the GC to take.
	maxBuffersPerClass = 8
)

// Buffers is the process-wide pool shared by the engine's blob arenas, the
// array's borrowed-buffer APIs, and the out-of-core optimizer's spill path,
// so every offloaded byte draws from one reuse domain and the registry's
// reuse counters describe the whole data path.
var Buffers = NewBufPool()

// NewBufPool returns an empty pool.
func NewBufPool() *BufPool { return &BufPool{} }

// bufClass maps a requested size to its class index, or -1 when the size is
// out of pooled range.
func bufClass(n int) int {
	if n <= 0 {
		return -1
	}
	b := bits.Len(uint(n - 1)) // ceil(log2(n))
	if b < minBufClassBits {
		b = minBufClassBits
	}
	if b > maxBufClassBits {
		return -1
	}
	return b - minBufClassBits
}

// Get returns a buffer of length n, reusing a pooled buffer when one fits.
// The contents are NOT zeroed: every producer on the offload path fully
// overwrites its buffer (enforced by the exact-length Into codecs), so
// clearing would be pure overhead.
func (p *BufPool) Get(n int) []byte {
	c := bufClass(n)
	if c < 0 {
		if n <= 0 {
			return nil
		}
		return make([]byte, n) // out of pooled range: unpooled one-off
	}
	p.mu.Lock()
	for k := c; k < bufClassCount; k++ {
		if m := len(p.classes[k]); m > 0 {
			buf := p.classes[k][m-1]
			p.classes[k][m-1] = nil
			p.classes[k] = p.classes[k][:m-1]
			if k == c {
				p.hits++
			} else {
				p.steals++
			}
			p.mu.Unlock()
			return buf[:n]
		}
	}
	p.misses++
	p.mu.Unlock()
	return make([]byte, n, 1<<(c+minBufClassBits))
}

// Put recycles a buffer obtained from Get. Buffers whose capacity is not an
// exact class size (foreign allocations) and overflow beyond the per-class
// bound are dropped silently; passing a buffer the caller still uses is the
// hazard the ownership protocol above forbids.
func (p *BufPool) Put(buf []byte) {
	c := capClass(cap(buf))
	if c < 0 {
		return
	}
	p.mu.Lock()
	if len(p.classes[c]) < maxBuffersPerClass {
		p.classes[c] = append(p.classes[c], buf[:cap(buf)])
	}
	p.mu.Unlock()
}

// capClass maps a buffer capacity to the class it can serve, requiring an
// exact power-of-two class capacity so Get's length guarantee holds.
func capClass(c int) int {
	if c < 1<<minBufClassBits || c > 1<<maxBufClassBits || c&(c-1) != 0 {
		return -1
	}
	return bits.Len(uint(c)) - 1 - minBufClassBits
}

// Stats reports cumulative hit/miss/steal counts.
func (p *BufPool) Stats() BufStats {
	p.mu.Lock()
	s := BufStats{Hits: p.hits, Misses: p.misses, Steals: p.steals}
	p.mu.Unlock()
	return s
}
