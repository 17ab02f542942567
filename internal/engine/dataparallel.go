package engine

import (
	"fmt"
	"sync"

	"ratel/internal/nn"
)

// DataParallel trains replicas of the same model on shards of a global
// batch (the paper's multi-GPU configuration, §V-G): each replica runs
// forward/backward concurrently, gradients are all-reduced (averaged), one
// optimizer pass updates the shared model states, and the fresh fp16
// parameters are broadcast back to every replica.
//
// Replica 0 owns the NVMe-homed model states; the others act as pure
// compute replicas, exactly like additional GPUs sharing the host's SSD
// array.
type DataParallel struct {
	replicas []*Engine
}

// NewDataParallel builds n identically-initialized replicas.
func NewDataParallel(cfg Config, n int) (*DataParallel, error) {
	if n < 1 {
		return nil, fmt.Errorf("engine: need at least one replica, got %d", n)
	}
	if err := checkAveraging(cfg, "data parallelism"); err != nil {
		return nil, err
	}
	dp := &DataParallel{}
	for i := 0; i < n; i++ {
		e, err := New(cfg)
		if err != nil {
			dp.Close()
			return nil, err
		}
		dp.replicas = append(dp.replicas, e)
	}
	return dp, nil
}

// Replicas reports the degree of parallelism.
func (dp *DataParallel) Replicas() int { return len(dp.replicas) }

// Model exposes replica 0's model (the state owner).
func (dp *DataParallel) Model() *nn.Model { return dp.replicas[0].model }

// Close releases every replica.
func (dp *DataParallel) Close() error {
	var first error
	for _, e := range dp.replicas {
		if e == nil {
			continue
		}
		if err := e.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// TrainStep runs one data-parallel iteration over one shard per replica.
// The math is identical to gradient accumulation over the same shards: the
// all-reduce sums the per-shard gradients, and the owner's optimizer
// handoff averages and consumes them exactly as TrainStepAccum's last
// micro-batch does.
func (dp *DataParallel) TrainStep(shards []Batch) (float64, error) {
	n := len(dp.replicas)
	if len(shards) != n {
		return 0, fmt.Errorf("engine: %d shards for %d replicas", len(shards), n)
	}
	owner := dp.replicas[0]
	for _, e := range dp.replicas {
		e.model.ZeroGrads()
	}

	// Concurrent forward/backward on every replica.
	losses := make([]float64, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i, e := range dp.replicas {
		wg.Add(1)
		go func() {
			defer wg.Done()
			losses[i], _, _, errs[i] = e.runBatch(shards[i].Tokens, shards[i].Targets, e.groups, noSubmit)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}

	// All-reduce: sum every replica's gradients into replica 0 — the ring
	// all-reduce's arithmetic, serialized for reproducibility (replica order
	// is fixed). The handoff applies the 1/n average.
	for gi, g := range owner.groups {
		for pi, p := range g.Params {
			for _, r := range dp.replicas[1:] {
				src := r.groups[gi].Params[pi].G
				for k := range p.G.Data {
					p.G.Data[k] += src.Data[k]
				}
			}
		}
	}

	// One optimizer step over the owner's states, each group handed off in
	// gradient-arrival order.
	if err := owner.beginStep(); err != nil {
		return 0, err
	}
	h := owner.startHandoff(n)
	for gi := len(owner.groups) - 1; gi >= 0; gi-- {
		if err := h.submit(owner.groups[gi]); err != nil {
			return 0, h.abort(err)
		}
	}
	if err := h.finish(); err != nil {
		return 0, err
	}

	// Broadcast the fresh fp16 parameters to the other replicas.
	for _, r := range dp.replicas[1:] {
		for gi, g := range owner.groups {
			for pi, p := range g.Params {
				copy(r.groups[gi].Params[pi].W.Data, p.W.Data)
			}
		}
	}

	owner.mu.Lock()
	owner.stats.Steps++
	owner.mu.Unlock()
	var total float64
	for _, l := range losses {
		total += l
	}
	return total / float64(n), nil
}
