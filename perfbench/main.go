// Command perfbench is the repository's end-to-end training benchmark. It
// trains one named workload on the engine's canonical configuration (the
// optimized gradient mode, the NVMe transfer scheduler, readiness-ordered
// optimizer state and adaptive pipeline depth) as a closed loop, checks
// every step's loss bit for bit against the plain configuration on the
// same seed, and prints one JSON result line last:
//
//	perfbench --workload offload --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics of an untraced
// run. With --trace 1 it carries the per-layer breakdown: an untraced run,
// then a traced one (engine spans on, the benchmark's own counters sampled
// around every TrainStep), then direct probes of each layer.
//
// run.sh in this directory builds and runs it from a checkout.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"ratel/internal/obs"
)

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("workload", "", "workload to run: offload, optstate or compute")
	seed := flag.Int64("seed", 1, "seed of the token stream and the model's initial weights")
	seconds := flag.Float64("seconds", 10, "length of each measured window in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics of an untraced run; 1: per-layer metrics of a traced run")
	scratch := flag.String("scratch", ".bench_build/run", "directory for the file-backed devices")
	flag.Parse()
	w, err := findWorkload(*name)
	if err != nil {
		return err
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	if *seconds <= 0 {
		return fmt.Errorf("--seconds must be positive, got %v", *seconds)
	}
	measure := time.Duration(*seconds * float64(time.Second))
	// The kernel pool sizes itself from GOMAXPROCS on first use; never run
	// more Ps than online CPUs.
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}
	if err := os.MkdirAll(*scratch, 0o755); err != nil {
		return err
	}
	runDir, err := os.MkdirTemp(*scratch, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(runDir)

	fmt.Printf("# machine: %s\n", fingerprint())
	fmt.Printf("# workload %s, seed %d, closed loop: 1 trainer, %d warm-up steps, %v measured window\n",
		w.name, *seed, warmupSteps, measure)

	phase := time.Now()
	steal0, total0, ticksOK := cpuTicks()
	untraced, err := runCanonical(w, *seed, measure, runDir, nil)
	if err != nil {
		return err
	}
	fmt.Printf("# untraced run: %.1fs\n", time.Since(phase).Seconds())
	// Time the hypervisor gave other guests slows every timing here; print
	// it so a noisy run can be told from a slow program.
	if steal1, total1, ok := cpuTicks(); ok && ticksOK {
		fmt.Printf("# host cpu steal during the untraced run: %.1f%%\n", 100*ratio(float64(steal1-steal0), float64(total1-total0)))
	}
	runs := []runResult{untraced}
	var (
		probe  *layerProbe
		traced runResult
	)
	if *trace == 1 {
		probe = &layerProbe{tr: obs.NewTracer(obs.DefaultCapacity)}
		phase = time.Now()
		if traced, err = runCanonical(w, *seed, measure, runDir, probe); err != nil {
			return err
		}
		fmt.Printf("# traced run: %.1fs\n", time.Since(phase).Seconds())
		runs = append(runs, traced)
	}

	// Output check: every step of every run against the plain
	// configuration's trajectory, and the traced run against the untraced.
	longest := 0
	for _, r := range runs {
		longest = max(longest, len(r.losses))
	}
	phase = time.Now()
	ref, err := referenceLosses(w, *seed, longest)
	if err != nil {
		return err
	}
	fmt.Printf("# reference run of %d steps: %.1fs\n", longest, time.Since(phase).Seconds())
	res := result{Correct: true, Metrics: map[string]metricValue{}}
	for i, r := range runs {
		res.Attempted += r.attempted()
		res.Failed += mismatches(r.losses, ref)
		if r.stepErr != nil {
			res.Failed++
			fmt.Printf("# run %d: step %d failed: %v\n", i, len(r.losses), r.stepErr)
		}
	}
	if *trace == 1 {
		n := min(len(untraced.losses), len(traced.losses))
		if d := mismatches(traced.losses[:n], untraced.losses[:n]); d > 0 {
			fmt.Printf("# traced run differs from the untraced run on %d of %d steps\n", d, n)
			res.Correct = false
		}
	}
	fmt.Printf("# steps attempted %d, failed %d, step_fail_ratio %g\n",
		res.Attempted, res.Failed, ratio(float64(res.Failed), float64(res.Attempted)))
	if res.Failed > 0 {
		res.Correct = false
	}

	var values map[string]float64
	var defs []metric
	if *trace == 0 {
		defs = endToEnd
		if values, err = endToEndValues(untraced); err != nil {
			return err
		}
		_, pct, _ := tail(untraced.walls)
		fmt.Printf("# step_tail_ms is p%.1f of %d measured steps (%d beyond it)\n", pct, len(untraced.walls), tailBeyond)
		q := func(p float64) float64 { return ms(quantile(untraced.walls, p)) }
		fmt.Printf("# step ms: min %.2f p10 %.2f p25 %.2f p50 %.2f p75 %.2f p90 %.2f p95 %.2f max %.2f\n",
			q(0), q(0.1), q(0.25), q(0.5), q(0.75), q(0.9), q(0.95), q(1))
	} else {
		defs = perLayer
		if !traceIntact(probe) {
			res.Correct = false
		}
		if values, err = tracedValues(w, *seed, untraced, traced, probe, runDir); err != nil {
			return err
		}
	}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not computed", d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// traceIntact reports whether the traced run's records are whole: the
// tracer dropped no spans, and the flow ledger's NVMe rows equal the
// array's own byte counters.
func traceIntact(p *layerProbe) bool {
	p.noteDropped()
	fmt.Printf("# spans recorded %d, dropped %d; ledger NVMe read %d B / write %d B, array read %d B / write %d B\n",
		p.spans, p.dropped, p.ledgerRead, p.ledgerWrite, p.arrayRead, p.arrayWrite)
	return p.dropped == 0 && p.ledgerRead == p.arrayRead && p.ledgerWrite == p.arrayWrite
}

// tracedValues runs the layer probes and computes the per-layer metrics.
func tracedValues(w workload, seed int64, untraced, traced runResult, p *layerProbe, runDir string) (map[string]float64, error) {
	objectBytes := 64 << 10
	if p.writeOps > 0 {
		objectBytes = int(p.writeBytes / p.writeOps)
	}
	pr, err := runProbes(w, seed, objectBytes, runDir)
	if err != nil {
		return nil, err
	}
	v := layerValues(w, p, pr, median(untraced.walls), median(traced.walls))
	fmt.Printf("# step %.3f ms = forward %.3f + backward %.3f + opt drain %.3f + residual %.3f (per-step means, traced)\n",
		v["engine.step_ms"], v["engine.forward_ms"], v["engine.backward_ms"], v["engine.opt_drain_ms"], v["engine.residual_ms"])
	fmt.Printf("# probes: nvme object %d B, adam group %d params\n", pr.objectBytes, pr.groupLen)
	return v, nil
}
