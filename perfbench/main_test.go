package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
	"time"

	"ratel/internal/engine"
)

// TestPlacement pins each workload's activation placement, both as
// configured and as the engine reports it after a step: offload puts every
// block on the SSD tier, optstate recomputes every block, compute pins
// every block in host memory.
func TestPlacement(t *testing.T) {
	want := map[string]engine.Tier{
		"offload":  engine.SwapSSD,
		"optstate": engine.Recompute,
		"compute":  engine.SwapHost,
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := w.config(1, t.TempDir(), nil)
			if len(cfg.Swap) != w.model.Layers {
				t.Fatalf("%d blocks placed, model has %d", len(cfg.Swap), w.model.Layers)
			}
			for b := 0; b < w.model.Layers; b++ {
				if got := cfg.Swap[b]; got != want[w.name] {
					t.Errorf("block %d on %v, want %v", b, got, want[w.name])
				}
			}
			e, err := engine.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			loader, err := newLoader(w, 1)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := e.TrainStep(loader.Next()); err != nil {
				t.Fatal(err)
			}
			s := e.Stats()
			var onTier bool
			switch want[w.name] {
			case engine.SwapSSD:
				onTier = s.ActBytesOffload > 0 && s.ActBytesHost == 0 && s.RecomputedBlocks == 0
			case engine.Recompute:
				onTier = s.ActBytesOffload == 0 && s.ActBytesHost == 0 && s.RecomputedBlocks == w.model.Layers
			case engine.SwapHost:
				onTier = s.ActBytesOffload == 0 && s.ActBytesHost > 0 && s.RecomputedBlocks == 0
			}
			if !onTier {
				t.Errorf("stats after one step don't match %v: %+v", want[w.name], s)
			}
		})
	}
}

// TestWarmupCoversDepthConvergence checks that warm-up spans the adaptive
// depth controller's climb from depth 1 to its ceiling, and that on the
// offload workload the effective depth no longer moves once warm-up ends.
func TestWarmupCoversDepthConvergence(t *testing.T) {
	if climb := (depthCeiling - 1) * engine.DefaultDepthWindow; warmupSteps < climb {
		t.Fatalf("warm-up %d steps, the controller needs %d to reach depth %d", warmupSteps, climb, depthCeiling)
	}
	w, err := findWorkload("offload")
	if err != nil {
		t.Fatal(err)
	}
	e, err := engine.New(w.config(1, t.TempDir(), nil))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	loader, err := newLoader(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	settled := 0
	for i := 0; i < warmupSteps+2*engine.DefaultDepthWindow; i++ {
		if _, err := e.TrainStep(loader.Next()); err != nil {
			t.Fatal(err)
		}
		d := e.EffectiveDepth()
		if d < 1 || d > depthCeiling {
			t.Fatalf("step %d: effective depth %d outside [1, %d]", i, d, depthCeiling)
		}
		switch {
		case i == warmupSteps-1:
			settled = d
		case i >= warmupSteps && d != settled:
			t.Fatalf("step %d: effective depth moved %d -> %d after %d warm-up steps", i, settled, d, warmupSteps)
		}
	}
}

// TestPrintedNamesMatchBenchmarkJSON checks that the workloads and every
// metric name and unit the benchmark prints are the ones BENCHMARK.json
// declares.
func TestPrintedNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []declared `json:"workloads"`
		EndToEnd  []declared `json:"end_to_end"`
		PerLayer  []declared `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var specNames []string
	for _, w := range spec.Workloads {
		specNames = append(specNames, w.Name)
	}
	if !equalSets(names, specNames) {
		t.Errorf("workloads %v, BENCHMARK.json declares %v", names, specNames)
	}

	run := runResult{tokens: 1, elapsed: time.Second, setups: []time.Duration{1}, peakRSS: 1}
	for i := 0; i <= tailBeyond; i++ {
		run.walls = append(run.walls, time.Millisecond)
	}
	e2e, err := endToEndValues(run)
	if err != nil {
		t.Fatal(err)
	}
	checkNames(t, "end_to_end", e2e, endToEnd, spec.EndToEnd)
	layer := layerValues(workloads[0], &layerProbe{}, probeResult{}, time.Millisecond, time.Millisecond)
	checkNames(t, "per_layer", layer, perLayer, spec.PerLayer)
}

// declared is one workload or metric entry of BENCHMARK.json.
type declared struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// checkNames compares the computed values' names and the printed units
// against a BENCHMARK.json section.
func checkNames(t *testing.T, section string, values map[string]float64, defs []metric, spec []declared) {
	t.Helper()
	var computed, printed, declaredUnits []string
	for name := range values {
		computed = append(computed, name)
	}
	for _, d := range defs {
		printed = append(printed, d.name+" "+d.unit)
	}
	var declNames []string
	for _, d := range spec {
		declaredUnits = append(declaredUnits, d.Name+" "+d.Unit)
		declNames = append(declNames, d.Name)
	}
	if !equalSets(computed, declNames) {
		t.Errorf("%s: computed %v, declared %v", section, computed, declNames)
	}
	if !equalSets(printed, declaredUnits) {
		t.Errorf("%s: printed %v, declared %v", section, printed, declaredUnits)
	}
}

func equalSets(a, b []string) bool {
	a, b = append([]string(nil), a...), append([]string(nil), b...)
	sort.Strings(a)
	sort.Strings(b)
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestTail checks the tail percentile leaves exactly tailBeyond samples
// above it.
func TestTail(t *testing.T) {
	var ds []time.Duration
	for i := 1; i <= 40; i++ {
		ds = append(ds, time.Duration(41-i)*time.Millisecond)
	}
	v, pct, ok := tail(ds)
	if !ok || v != 30*time.Millisecond || pct != 75 {
		t.Fatalf("tail = %v p%v ok=%v, want 30ms p75", v, pct, ok)
	}
	if _, _, ok := tail(ds[:tailBeyond]); ok {
		t.Fatalf("tail of %d samples reported ok", tailBeyond)
	}
}
