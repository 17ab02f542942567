package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"ratel/internal/data"
	"ratel/internal/engine"
	"ratel/internal/obs"
)

// setupRepeats is how many engines a run constructs to time set-up; the
// reported set-up time is their median and the last one trains.
const setupRepeats = 7

// runResult is one closed-loop training run: one trainer issuing each step
// only after the previous one returned.
type runResult struct {
	// losses holds every completed step's loss, warm-up first.
	losses []float64
	// stepErr is the error that ended the run early, nil if none.
	stepErr error
	// walls are the measured (post-warm-up) steps' wall times.
	walls []time.Duration
	// elapsed is the measured window's wall time; tokens the tokens it
	// trained.
	elapsed time.Duration
	tokens  int
	// setups are the engine construction times.
	setups []time.Duration
	// peakRSS is the process's VmHWM in bytes right after the measured
	// window (0 when not read).
	peakRSS int64
}

// attempted is the number of steps the run issued (a failed one included).
func (r runResult) attempted() int {
	if r.stepErr != nil {
		return len(r.losses) + 1
	}
	return len(r.losses)
}

// newLoader is the run's input stream: the Progression task at the
// workload's shape, seeded by the benchmark seed.
func newLoader(w workload, seed int64) (*data.Loader, error) {
	return data.NewLoader(data.Progression, w.model.Batch, w.model.Seq, w.model.Vocab, seed)
}

// setUp constructs the canonical engine setupRepeats times, each on a fresh
// file-backed array under scratch, timing engine.New. All but the last are
// closed; the last is returned with its device directory.
func setUp(w workload, seed int64, scratch string, tr *obs.Tracer) (*engine.Engine, string, []time.Duration, error) {
	var times []time.Duration
	for {
		dir, err := os.MkdirTemp(scratch, w.name+"-")
		if err != nil {
			return nil, "", nil, err
		}
		start := time.Now()
		e, err := engine.New(w.config(seed, dir, tr))
		if err != nil {
			os.RemoveAll(dir)
			return nil, "", nil, fmt.Errorf("engine.New: %w", err)
		}
		times = append(times, time.Since(start))
		if len(times) == setupRepeats {
			return e, dir, times, nil
		}
		err = e.Close()
		os.RemoveAll(dir)
		if err != nil {
			return nil, "", nil, fmt.Errorf("engine.Close: %w", err)
		}
		runtime.GC()
	}
}

// train runs warmupSteps steps, then steps for measure, calling the probe
// (when non-nil) around each measured step.
func train(e *engine.Engine, w workload, seed int64, measure time.Duration, probe *layerProbe) (runResult, error) {
	var res runResult
	loader, err := newLoader(w, seed)
	if err != nil {
		return res, err
	}
	step := func() (time.Duration, bool) {
		tokens, targets := loader.Next()
		start := time.Now()
		loss, err := e.TrainStep(tokens, targets)
		wall := time.Since(start)
		if err != nil {
			res.stepErr = err
			return wall, false
		}
		res.losses = append(res.losses, loss)
		return wall, true
	}
	for i := 0; i < warmupSteps; i++ {
		if _, ok := step(); !ok {
			return res, nil
		}
	}
	perStep := w.model.Batch * w.model.Seq
	start := time.Now()
	for time.Since(start) < measure {
		if probe != nil {
			probe.before(e)
		}
		wall, ok := step()
		if !ok {
			break
		}
		if probe != nil {
			probe.after(e, wall)
		}
		res.walls = append(res.walls, wall)
		res.tokens += perStep
	}
	res.elapsed = time.Since(start)
	return res, nil
}

// runCanonical sets up the canonical engine, trains it for measure and
// closes it. With a non-nil probe the engine records spans on the probe's
// tracer and the probe sees every measured step.
func runCanonical(w workload, seed int64, measure time.Duration, scratch string, probe *layerProbe) (runResult, error) {
	var tr *obs.Tracer
	if probe != nil {
		tr = probe.tr
	}
	e, dir, setups, err := setUp(w, seed, scratch, tr)
	if err != nil {
		return runResult{}, err
	}
	defer os.RemoveAll(dir)
	res, err := train(e, w, seed, measure, probe)
	res.setups = setups
	if err == nil {
		res.peakRSS, err = peakRSS()
	}
	if ferr := e.FlushAsync(); ferr != nil && err == nil {
		err = fmt.Errorf("engine.FlushAsync: %w", ferr)
	}
	if cerr := e.Close(); cerr != nil && err == nil {
		err = fmt.Errorf("engine.Close: %w", cerr)
	}
	return res, err
}

// referenceLosses trains the plain configuration for n steps on the same
// seed: the trajectory every canonical run must reproduce bit for bit.
func referenceLosses(w workload, seed int64, n int) ([]float64, error) {
	e, err := engine.New(w.plainConfig(seed))
	if err != nil {
		return nil, fmt.Errorf("reference engine.New: %w", err)
	}
	defer e.Close()
	loader, err := newLoader(w, seed)
	if err != nil {
		return nil, err
	}
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		tokens, targets := loader.Next()
		loss, err := e.TrainStep(tokens, targets)
		if err != nil {
			return nil, fmt.Errorf("reference step %d: %w", i, err)
		}
		out = append(out, loss)
	}
	return out, nil
}

// mismatches counts the steps of got whose loss is not bit-identical to
// want's (want must be at least as long).
func mismatches(got, want []float64) int {
	n := 0
	for i, l := range got {
		if math.Float64bits(l) != math.Float64bits(want[i]) {
			n++
		}
	}
	return n
}
