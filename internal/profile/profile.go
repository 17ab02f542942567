// Package profile implements hardware-aware profiling (§IV-B): gathering
// the Table I quantities the planner and the simulator need. Two paths are
// provided:
//
//   - Analytical: assemble the profile from the model accounting and the
//     server description (what the whole-figure experiments use).
//   - Measured: benchmark the real substrates — the NVMe array's aggregate
//     read/write bandwidth and the CPU optimizer's parameter rate — the way
//     the paper's profiling iteration monitors PCIe traffic.
package profile

import (
	"fmt"
	"time"

	"ratel/internal/capacity"
	"ratel/internal/hw"
	"ratel/internal/model"
	"ratel/internal/nvme"
	"ratel/internal/plan"
	"ratel/internal/strategy"
	"ratel/internal/units"
)

// Analytical builds the planner profile for a policy running a model on a
// server, with the policy's efficiency deratings applied.
func Analytical(p strategy.Policy, cfg model.Config, batch int, srv hw.Server) plan.Profile {
	return capacity.PlannerProfile(p, cfg, batch, srv)
}

// SSDBandwidth measures the aggregate sequential read and write bandwidth
// of an NVMe array by streaming objects of objBytes through it rounds
// times. It is how the engine fills in BW_S2M and BW_M2S when running on a
// real (or throttled) array.
func SSDBandwidth(a *nvme.Array, objBytes, rounds int) (read, write units.BytesPerSecond, err error) {
	if objBytes <= 0 || rounds <= 0 {
		return 0, 0, fmt.Errorf("profile: need positive object size and rounds")
	}
	buf := make([]byte, objBytes)
	for i := range buf {
		buf[i] = byte(i * 31)
	}

	start := time.Now()
	for i := 0; i < rounds; i++ {
		if err := a.PutClass(fmt.Sprintf("profile/bw/%d", i), buf, nvme.ClassWriteback); err != nil {
			return 0, 0, fmt.Errorf("profile: write benchmark: %w", err)
		}
	}
	writeDur := time.Since(start)

	start = time.Now()
	for i := 0; i < rounds; i++ {
		if err := a.ReadIntoClass(fmt.Sprintf("profile/bw/%d", i), buf, nvme.ClassCriticalFetch); err != nil {
			return 0, 0, fmt.Errorf("profile: read benchmark: %w", err)
		}
	}
	readDur := time.Since(start)

	for i := 0; i < rounds; i++ {
		if err := a.Delete(fmt.Sprintf("profile/bw/%d", i)); err != nil {
			return 0, 0, fmt.Errorf("profile: cleanup: %w", err)
		}
	}

	total := float64(objBytes * rounds)
	return units.BytesPerSecond(total / readDur.Seconds()),
		units.BytesPerSecond(total / writeDur.Seconds()), nil
}

// AdamRate measures an optimizer step implementation's parameter
// throughput: step must update exactly n parameters per call.
func AdamRate(n int, rounds int, step func()) (float64, error) {
	if n <= 0 || rounds <= 0 || step == nil {
		return 0, fmt.Errorf("profile: need positive sizes and a step function")
	}
	step() // warm up
	start := time.Now()
	for i := 0; i < rounds; i++ {
		step()
	}
	dur := time.Since(start).Seconds()
	if dur <= 0 {
		return 0, fmt.Errorf("profile: optimizer benchmark completed in zero time")
	}
	return float64(n*rounds) / dur, nil
}

// Overhead reports the profiling iteration's cost relative to a steady
// iteration (the paper: 2-3x one iteration, negligible over a fine-tuning
// run of thousands of iterations).
func Overhead(profilingIter, steadyIter units.Seconds, totalIters int) float64 {
	if steadyIter <= 0 || totalIters <= 0 {
		return 0
	}
	return float64(profilingIter-steadyIter) / (float64(steadyIter) * float64(totalIters))
}
