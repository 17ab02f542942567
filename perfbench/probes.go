package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"time"

	"ratel/internal/nn"
	"ratel/internal/nvme"
	"ratel/internal/opt"
	"ratel/internal/tensor"
)

// probeTime is how long each layer probe loops its call.
const probeTime = 300 * time.Millisecond

// probeResult holds the layer probes' rates.
type probeResult struct {
	readMBps, writeMBps   float64
	adamMParams           float64
	matmulGFlops          float64
	matmul1GFlops         float64
	fp16GBps              float64
	objectBytes, groupLen int
}

// runProbes calls each layer's public functions directly at the workload's
// own sizes: an NVMe object of objectBytes (the run's mean write size) on a
// fresh array with the workload's throttle, Adam on the largest parameter
// group, the MLP up-projection matmul at pool width and at one thread, and
// the fp16 encode of its output. Each probe checks what it computed.
func runProbes(w workload, seed int64, objectBytes int, scratch string) (probeResult, error) {
	r := probeResult{objectBytes: objectBytes}
	var err error
	if r.writeMBps, r.readMBps, err = probeNVMe(w, objectBytes, scratch); err != nil {
		return r, err
	}
	m, err := nn.NewModel(w.modelConfig(seed))
	if err != nil {
		return r, err
	}
	for _, g := range m.ParamGroups() {
		r.groupLen = max(r.groupLen, g.NumParams())
	}
	if r.adamMParams, err = probeAdam(r.groupLen); err != nil {
		return r, err
	}
	rows, h := w.model.Batch*w.model.Seq, w.model.Hidden
	if r.matmulGFlops, r.matmul1GFlops, err = probeMatMul(rows, h, 4*h); err != nil {
		return r, err
	}
	if r.fp16GBps, err = probeFP16(rows * 4 * h); err != nil {
		return r, err
	}
	return r, nil
}

// loopFor calls f until probeTime has passed and returns the calls made and
// the time they took.
func loopFor(f func(i int) error) (int, time.Duration, error) {
	start := time.Now()
	n := 0
	for time.Since(start) < probeTime {
		if err := f(n); err != nil {
			return n, 0, err
		}
		n++
	}
	return n, time.Since(start), nil
}

// probeNVMe writes then reads back objects of size n through PutClass and
// ReadIntoClass, checking every byte read, and returns MB/s each way.
func probeNVMe(w workload, n int, scratch string) (writeMBps, readMBps float64, err error) {
	dir, err := os.MkdirTemp(scratch, "probe-")
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	cfg := nvme.Config{StripeSize: 4096}
	if w.ssd != nil {
		cfg = *w.ssd
	}
	cfg.Devices, cfg.Dir, cfg.Sched = devices, dir, true
	a, err := nvme.Open(cfg)
	if err != nil {
		return 0, 0, err
	}
	defer a.Close()
	const keys = 8
	objs := make([][]byte, keys)
	names := make([]string, keys)
	for k := range objs {
		objs[k] = make([]byte, n)
		for i := range objs[k] {
			objs[k][i] = byte(i*7 + k)
		}
		names[k] = fmt.Sprintf("probe/%d", k)
	}
	puts, wt, err := loopFor(func(i int) error {
		return a.PutClass(names[i%keys], objs[i%keys], nvme.ClassWriteBehind)
	})
	if err != nil {
		return 0, 0, fmt.Errorf("probe PutClass: %w", err)
	}
	dst := make([]byte, n)
	gets, rt, err := loopFor(func(i int) error {
		k := i % min(keys, puts)
		if err := a.ReadIntoClass(names[k], dst, nvme.ClassCriticalFetch); err != nil {
			return err
		}
		if !bytes.Equal(dst, objs[k]) {
			return fmt.Errorf("%s read back differs from what was written", names[k])
		}
		return nil
	})
	if err != nil {
		return 0, 0, fmt.Errorf("probe ReadIntoClass: %w", err)
	}
	return float64(puts*n) / wt.Seconds() / 1e6, float64(gets*n) / rt.Seconds() / 1e6, nil
}

// probeAdam runs opt.AdamStep on an n-parameter group, checking the
// parameters stay finite, and returns million parameters per second.
func probeAdam(n int) (float64, error) {
	p32, m, v, g := make([]float32, n), make([]float32, n), make([]float32, n), make([]float32, n)
	for i := range g {
		p32[i] = float32(i%97) / 97
		g[i] = float32(i%13-6) / 64
	}
	cfg := opt.DefaultAdam()
	steps, d, err := loopFor(func(i int) error { return opt.AdamStep(cfg, i+1, p32, m, v, g) })
	if err != nil {
		return 0, fmt.Errorf("probe AdamStep: %w", err)
	}
	for _, x := range p32 {
		if math.IsNaN(float64(x)) || math.IsInf(float64(x), 0) {
			return 0, fmt.Errorf("probe AdamStep produced %v", x)
		}
	}
	return float64(steps) * float64(n) / d.Seconds() / 1e6, nil
}

// probeMatMul times an (m×k)·(k×n) MatMulInto at the pool's width and at
// one thread, checks the two products are bit-identical, and returns
// GFLOP/s for each.
func probeMatMul(m, k, n int) (pooled, single float64, err error) {
	a, b := tensor.New(m, k), tensor.New(k, n)
	for i := range a.Data {
		a.Data[i] = float32(i%31-15) / 16
	}
	for i := range b.Data {
		b.Data[i] = float32(i%17-8) / 16
	}
	c1, cp := tensor.New(m, n), tensor.New(m, n)
	flops := 2 * float64(m) * float64(k) * float64(n)
	rate := func(c *tensor.Tensor) (float64, error) {
		calls, d, err := loopFor(func(int) error { return tensor.MatMulInto(c, a, b) })
		if err != nil {
			return 0, fmt.Errorf("probe MatMulInto: %w", err)
		}
		return float64(calls) * flops / d.Seconds() / 1e9, nil
	}
	if pooled, err = rate(cp); err != nil {
		return 0, 0, err
	}
	width := tensor.Parallelism()
	tensor.SetParallelism(1)
	single, err = rate(c1)
	tensor.SetParallelism(width)
	if err != nil {
		return 0, 0, err
	}
	for i := range cp.Data {
		if math.Float32bits(cp.Data[i]) != math.Float32bits(c1.Data[i]) {
			return 0, 0, fmt.Errorf("probe matmul: pooled and 1-thread products differ at %d", i)
		}
	}
	return pooled, single, nil
}

// probeFP16 times ToFP16BytesInto on n values, checks a decode gives back
// each value rounded to fp16, and returns GB/s of fp32 input.
func probeFP16(n int) (float64, error) {
	src := make([]float32, n)
	for i := range src {
		src[i] = float32(i%1000-500) / 37
	}
	dst := make([]byte, 2*n)
	calls, d, err := loopFor(func(int) error { return tensor.ToFP16BytesInto(dst, src) })
	if err != nil {
		return 0, fmt.Errorf("probe ToFP16BytesInto: %w", err)
	}
	back := make([]float32, n)
	if err := tensor.FromFP16Bytes(dst, back); err != nil {
		return 0, fmt.Errorf("probe FromFP16Bytes: %w", err)
	}
	for i, x := range src {
		if back[i] != tensor.RoundFP16(x) {
			return 0, fmt.Errorf("probe fp16: value %d decodes to %v, want %v", i, back[i], tensor.RoundFP16(x))
		}
	}
	return float64(calls) * 4 * float64(n) / d.Seconds() / 1e9, nil
}
