package main

import (
	"fmt"
	"time"

	"ratel/internal/agoffload"
	"ratel/internal/engine"
	"ratel/internal/nn"
	"ratel/internal/nvme"
	"ratel/internal/obs"
	"ratel/internal/opt"
	"ratel/internal/units"
)

// devices is the NVMe array width of every workload.
const devices = 3

// warmupSteps precede every measured window. The adaptive depth controller
// starts at depth 1 and moves one step per decision window, so it needs
// (ceiling-1) windows to reach its ceiling; warm-up gives it twice that
// (see TestWarmupCoversDepthConvergence), plus the pool spin-up and first
// page faults.
const warmupSteps = 2 * (depthCeiling - 1) * engine.DefaultDepthWindow

// depthCeiling is the engine's adaptive-depth ceiling when no explicit
// PipelineDepth is set.
const depthCeiling = 4

// p5510 is Table III's Intel P5510 shape scaled down 200×: 33 MiB/s read,
// 19 MiB/s write per device, 80 µs per-op latency, at the given stripe.
func p5510(stripe int) *nvme.Config {
	return &nvme.Config{
		ReadBW:     units.BytesPerSecond(33 << 20),
		WriteBW:    units.BytesPerSecond(19 << 20),
		OpLatency:  80 * time.Microsecond,
		StripeSize: stripe,
	}
}

// workload is one named benchmark input: a model shape, one activation
// placement for every block, and the array's throttle (nil = unthrottled).
type workload struct {
	name  string
	model nn.Config
	tier  engine.Tier
	ssd   *nvme.Config
}

// The offload and optstate shapes run batch 4 rather than 2: the longer step
// averages out hypervisor steal bursts, which otherwise dominate the step
// time tail on a shared host.
var workloads = []workload{
	{
		name:  "offload",
		model: nn.Config{Vocab: 64, Seq: 64, Hidden: 32, Heads: 4, Layers: 6, Batch: 4},
		tier:  engine.SwapSSD,
		ssd:   p5510(16 << 10),
	},
	{
		name:  "optstate",
		model: nn.Config{Vocab: 64, Seq: 64, Hidden: 64, Heads: 4, Layers: 4, Batch: 4},
		tier:  engine.Recompute,
		ssd:   p5510(64 << 10),
	},
	{
		name:  "compute",
		model: nn.Config{Vocab: 64, Seq: 128, Hidden: 128, Heads: 4, Layers: 4, Batch: 2},
		tier:  engine.SwapHost,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// modelConfig is the workload's model with the run's init seed.
func (w workload) modelConfig(seed int64) nn.Config {
	m := w.model
	m.Seed = seed
	return m
}

// swap places every block on the workload's tier.
func (w workload) swap() map[int]engine.Tier {
	s := make(map[int]engine.Tier, w.model.Layers)
	for i := 0; i < w.model.Layers; i++ {
		s[i] = w.tier
	}
	return s
}

// config is the canonical configuration: optimized gradient offloading, the
// transfer scheduler, readiness-ordered optimizer state and adaptive depth,
// on a file-backed array under dir.
func (w workload) config(seed int64, dir string, tr *obs.Tracer) engine.Config {
	return engine.Config{
		Model:         w.modelConfig(seed),
		GradMode:      agoffload.Optimized,
		Swap:          w.swap(),
		Devices:       devices,
		Dir:           dir,
		SSD:           w.ssd,
		Sched:         true,
		OptSchedule:   opt.ScheduleReadiness,
		AdaptiveDepth: true,
		Tracer:        tr,
	}
}

// plainConfig is the reference the canonical run must reproduce bit for
// bit: serialized optimizer stage, in-memory unthrottled array, every block
// recomputed, FCFS and the synchronous optimizer.
func (w workload) plainConfig(seed int64) engine.Config {
	return engine.Config{
		Model:       w.modelConfig(seed),
		GradMode:    agoffload.Serialized,
		Devices:     devices,
		OptSchedule: opt.ScheduleSync,
	}
}
