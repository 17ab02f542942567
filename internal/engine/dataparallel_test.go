package engine

import (
	"math"
	"testing"

	"ratel/internal/agoffload"
	"ratel/internal/opt"
)

func TestDataParallelTrains(t *testing.T) {
	cfg := Config{Model: miniConfig(), GradMode: agoffload.Optimized, Devices: 2}
	dp, err := NewDataParallel(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer dp.Close()
	if dp.Replicas() != 2 {
		t.Fatalf("replicas = %d", dp.Replicas())
	}
	t1, g1 := data(cfg.Model, 1)
	t2, g2 := data(cfg.Model, 2)
	var first, last float64
	for s := 0; s < 6; s++ {
		loss, err := dp.TrainStep([]Batch{{t1, g1}, {t2, g2}})
		if err != nil {
			t.Fatal(err)
		}
		if s == 0 {
			first = loss
		}
		last = loss
	}
	if last >= first {
		t.Fatalf("data-parallel training did not learn: %.4f -> %.4f", first, last)
	}
}

// TestDataParallelReplicasStayInSync: after every step all replicas hold
// identical fp16 parameters (the broadcast works).
func TestDataParallelReplicasStayInSync(t *testing.T) {
	cfg := Config{Model: miniConfig(), GradMode: agoffload.Serialized, Devices: 1}
	dp, err := NewDataParallel(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer dp.Close()
	t1, g1 := data(cfg.Model, 3)
	t2, g2 := data(cfg.Model, 4)
	t3, g3 := data(cfg.Model, 5)
	if _, err := dp.TrainStep([]Batch{{t1, g1}, {t2, g2}, {t3, g3}}); err != nil {
		t.Fatal(err)
	}
	ref := paramsSnapshot(dp.replicas[0].model)
	for r := 1; r < 3; r++ {
		got := paramsSnapshot(dp.replicas[r].model)
		for i := range ref {
			if ref[i] != got[i] {
				t.Fatalf("replica %d out of sync at parameter %d", r, i)
			}
		}
	}
}

// TestDataParallelMatchesAccumulation: one DP step over two shards computes
// the same averaged-gradient update as gradient accumulation over the same
// micro-batches; fp32 summation order differs, so compare with tolerance.
func TestDataParallelMatchesAccumulation(t *testing.T) {
	cfg := Config{Model: miniConfig(), GradMode: agoffload.Serialized, Devices: 1}
	t1, g1 := data(cfg.Model, 7)
	t2, g2 := data(cfg.Model, 8)

	dp, err := NewDataParallel(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer dp.Close()
	if _, err := dp.TrainStep([]Batch{{t1, g1}, {t2, g2}}); err != nil {
		t.Fatal(err)
	}

	single, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	if _, err := single.TrainStepAccum([]Batch{{t1, g1}, {t2, g2}}); err != nil {
		t.Fatal(err)
	}

	a, b := paramsSnapshot(dp.Model()), paramsSnapshot(single.Model())
	for i := range a {
		diff := math.Abs(float64(a[i] - b[i]))
		scale := math.Max(1e-3, math.Abs(float64(b[i])))
		if diff/scale > 1e-3 {
			t.Fatalf("DP and accumulation diverged at parameter %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestDataParallelDeterminism: identical shards produce identical results.
func TestDataParallelDeterminism(t *testing.T) {
	cfg := Config{Model: miniConfig(), GradMode: agoffload.Optimized, Devices: 2}
	run := func() []float32 {
		dp, err := NewDataParallel(cfg, 2)
		if err != nil {
			t.Fatal(err)
		}
		defer dp.Close()
		t1, g1 := data(cfg.Model, 9)
		t2, g2 := data(cfg.Model, 10)
		for s := 0; s < 3; s++ {
			if _, err := dp.TrainStep([]Batch{{t1, g1}, {t2, g2}}); err != nil {
				t.Fatal(err)
			}
		}
		return paramsSnapshot(dp.Model())
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("data-parallel training is nondeterministic")
		}
	}
}

func TestDataParallelErrors(t *testing.T) {
	if _, err := NewDataParallel(Config{Model: miniConfig()}, 0); err == nil {
		t.Error("zero replicas accepted")
	}
	if _, err := NewDataParallel(Config{Model: miniConfig(), DelayedUpdate: true}, 2); err == nil {
		t.Error("delayed update accepted")
	}
	// DataParallel averages like gradient accumulation, so it refuses what
	// accumulation refuses: under dynamic loss scaling an overflowing step
	// would otherwise be applied, and an async schedule silently ignored.
	if _, err := NewDataParallel(Config{Model: miniConfig(), GradMode: agoffload.Serialized,
		LossScale: 1 << 24, DynamicLossScale: true}, 2); err == nil {
		t.Error("dynamic loss scaling accepted")
	}
	if _, err := NewDataParallel(Config{Model: miniConfig(), GradMode: agoffload.Optimized,
		OptSchedule: opt.ScheduleAsync, AsyncTopK: 1}, 2); err == nil {
		t.Error("async optimizer scheduling accepted")
	}
	dp, err := NewDataParallel(Config{Model: miniConfig()}, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer dp.Close()
	t1, g1 := data(miniConfig(), 1)
	if _, err := dp.TrainStep([]Batch{{t1, g1}}); err == nil {
		t.Error("shard/replica count mismatch accepted")
	}
}

// TestEntryPointEquivalence ties the three ways to run an optimizer step
// together: for every gradient mode and both exact optimizer schedules,
// TrainStep(b), TrainStepAccum of the single batch b and a one-replica
// DataParallel step over b leave bit-identical fp16 weights and fp32
// masters — they share one optimizer handoff, and averaging over one batch
// is no pass at all.
func TestEntryPointEquivalence(t *testing.T) {
	const steps = 3
	for _, mode := range []agoffload.Mode{agoffload.Serialized, agoffload.Naive, agoffload.Optimized} {
		for _, sched := range []opt.ScheduleMode{opt.ScheduleSync, opt.ScheduleReadiness} {
			t.Run(mode.String()+"/"+sched.String(), func(t *testing.T) {
				cfg := Config{Model: miniConfig(), GradMode: mode, OptSchedule: sched, Devices: 2,
					Swap: map[int]Tier{0: SwapSSD, 1: SwapHost}}
				step := newEngine(t, cfg)
				accum := newEngine(t, cfg)
				dp, err := NewDataParallel(cfg, 1)
				if err != nil {
					t.Fatal(err)
				}
				defer dp.Close()
				for s := 0; s < steps; s++ {
					tokens, targets := data(cfg.Model, int64(s))
					b := Batch{Tokens: tokens, Targets: targets}
					l1, err := step.TrainStep(tokens, targets)
					if err != nil {
						t.Fatal(err)
					}
					l2, err := accum.TrainStepAccum([]Batch{b})
					if err != nil {
						t.Fatal(err)
					}
					l3, err := dp.TrainStep([]Batch{b})
					if err != nil {
						t.Fatal(err)
					}
					if l1 != l2 || l1 != l3 {
						t.Fatalf("step %d loss: TrainStep %v, TrainStepAccum %v, DataParallel %v", s, l1, l2, l3)
					}
				}
				want := paramsSnapshot(step.Model())
				for name, e := range map[string]*Engine{"TrainStepAccum": accum, "DataParallel": dp.replicas[0]} {
					got := paramsSnapshot(e.Model())
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("%s: P16 parameter %d = %v, TrainStep %v", name, i, got[i], want[i])
						}
					}
					for _, g := range step.groups {
						wm, err := step.optimizer.MasterWeights(g.Name, g.NumParams())
						if err != nil {
							t.Fatal(err)
						}
						gm, err := e.optimizer.MasterWeights(g.Name, g.NumParams())
						if err != nil {
							t.Fatal(err)
						}
						for i := range wm {
							if gm[i] != wm[i] {
								t.Fatalf("%s: %s master %d = %v, TrainStep %v", name, g.Name, i, gm[i], wm[i])
							}
						}
					}
					if got := e.optimizer.Step(); got != steps {
						t.Errorf("%s: optimizer step %d, want %d", name, got, steps)
					}
				}
			})
		}
	}
}
