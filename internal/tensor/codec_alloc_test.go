package tensor

import (
	"testing"

	"ratel/internal/tensor/pool"
)

// TestCodecIntoPathsAllocFree pins the allocation contract of the Into
// codec family: zero allocations, so the engine's steady-state allocs/step
// budget cannot be eroded by codec calls. The inline cases cover sizes
// under the pool's serial cutoff, where the optimizer's per-parameter
// staging runs. The parallel cases cover activation-sized tensors, which
// dispatch to the worker pool: the codecs pass a non-capturing kernel and
// their operands by value, and the pool recycles its job descriptors, so
// a real dispatch costs no allocation either (before that it cost four:
// the job, its completion channel, For's wrapper closure and the codec's
// capturing closure).
func TestCodecIntoPathsAllocFree(t *testing.T) {
	const n = 4096 // 4*n scalar-op estimate stays under pool.SerialCutoff
	src := make([]float32, n)
	dst := make([]float32, n)
	b16 := make([]byte, 2*n)
	b32 := make([]byte, 4*n)
	for i := range src {
		src[i] = float32(i)*0.25 - 7
	}
	cases := map[string]func(){
		"ToFP16BytesInto": func() { _ = ToFP16BytesInto(b16, src) },
		"FromFP16Bytes":   func() { _ = FromFP16Bytes(b16, dst) },
		"RoundFP16Into":   func() { _ = RoundFP16Into(dst, src) },
		"ToFP32BytesInto": func() { _ = ToFP32BytesInto(b32, src) },
		"FromFP32Bytes":   func() { _ = FromFP32Bytes(b32, dst) },
	}
	for name, f := range cases {
		if allocs := testing.AllocsPerRun(20, f); allocs != 0 {
			t.Errorf("%s: %v allocs/run, want 0", name, allocs)
		}
	}

	t.Run("parallel", func(t *testing.T) {
		old := Parallelism()
		defer SetParallelism(old)
		SetParallelism(2)
		// The fp32 codecs estimate 2 ops per element, the fp16 ones 4, so
		// at this size every member of the family reaches the cutoff.
		const pn = pool.SerialCutoff / 2
		src := make([]float32, pn)
		dst := make([]float32, pn)
		b16 := make([]byte, 2*pn)
		b32 := make([]byte, 4*pn)
		for i := range src {
			src[i] = float32(i%977)*0.25 - 7
		}
		cases := map[string]func(){
			"ToFP16BytesInto": func() { _ = ToFP16BytesInto(b16, src) },
			"FromFP16Bytes":   func() { _ = FromFP16Bytes(b16, dst) },
			"RoundFP16Into":   func() { _ = RoundFP16Into(dst, src) },
			"ToFP32BytesInto": func() { _ = ToFP32BytesInto(b32, src) },
			"FromFP32Bytes":   func() { _ = FromFP32Bytes(b32, dst) },
		}
		for name, f := range cases {
			f() // warm the pool's descriptor freelist
			before := pool.DefaultStats().Jobs
			if allocs := testing.AllocsPerRun(20, f); allocs != 0 {
				t.Errorf("%s at Limit 2: %v allocs/run, want 0", name, allocs)
			}
			if pool.DefaultStats().Jobs == before {
				t.Errorf("%s at Limit 2: no parallel dispatch, the case does not exercise the pool", name)
			}
		}
	})
}
