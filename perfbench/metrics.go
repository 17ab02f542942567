package main

import (
	"fmt"
	"sort"
	"time"

	"ratel/internal/nvme"
)

// metric is one named, unit-carrying number the benchmark prints.
type metric struct {
	name, unit string
}

// endToEnd are the metrics of an untraced run (--trace 0), in print order.
var endToEnd = []metric{
	{"tokens_per_s", "tok/s"},
	{"step_p50_ms", "ms"},
	{"step_tail_ms", "ms"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of a traced run (--trace 1), in print order.
// Engine-through-tensor values are per-step means over the traced window.
var perLayer = []metric{
	{"engine.step_ms", "ms"},
	{"engine.forward_ms", "ms"},
	{"engine.backward_ms", "ms"},
	{"engine.opt_drain_ms", "ms"},
	{"engine.residual_ms", "ms"},
	{"engine.fetch_wait_ms", "ms"},
	{"engine.fetch_stalls", "count"},
	{"engine.offload_wait_ms", "ms"},
	{"engine.offload_stalls", "count"},
	{"engine.depth", "count"},
	{"engine.recomputed_blocks", "count"},
	{"engine.act_offload_bytes", "B"},
	{"engine.act_fetched_bytes", "B"},
	{"engine.allocs_per_step", "count"},
	{"engine.gc_pause_ms", "ms"},
	{"nvme.read_bytes", "B"},
	{"nvme.write_bytes", "B"},
	{"nvme.read_ops", "count"},
	{"nvme.write_ops", "count"},
	{"nvme.read_util", "ratio"},
	{"nvme.write_util", "ratio"},
	{"nvme.ssd0.read_busy", "ratio"},
	{"nvme.ssd0.write_busy", "ratio"},
	{"nvme.ssd1.read_busy", "ratio"},
	{"nvme.ssd1.write_busy", "ratio"},
	{"nvme.ssd2.read_busy", "ratio"},
	{"nvme.ssd2.write_busy", "ratio"},
	{"nvme.queue_wait_ms.fetch", "ms"},
	{"nvme.queue_wait_ms.opt-read", "ms"},
	{"nvme.queue_wait_ms.writeback", "ms"},
	{"nvme.queue_wait_ms.write-behind", "ms"},
	{"nvme.coalesced", "count"},
	{"nvme.read_p50_us", "us"},
	{"nvme.read_p99_us", "us"},
	{"nvme.write_p50_us", "us"},
	{"nvme.write_p99_us", "us"},
	{"nvme.probe_read_mbps", "MB/s"},
	{"nvme.probe_write_mbps", "MB/s"},
	{"opt.adam_ms", "ms"},
	{"opt.adam_mparams_per_s", "Mparam/s"},
	{"opt.prefetched_reads", "count"},
	{"opt.state_read_bytes", "B"},
	{"opt.state_write_bytes", "B"},
	{"opt.probe_adam_mparams_per_s", "Mparam/s"},
	{"tensor.compute_ms", "ms"},
	{"tensor.pool_jobs", "count"},
	{"tensor.pool_inline_runs", "count"},
	{"tensor.pool_stolen_chunks", "count"},
	{"tensor.probe_matmul_gflops", "GFLOP/s"},
	{"tensor.probe_fp16_encode_gbps", "GB/s"},
	{"tensor.pool_speedup", "ratio"},
	{"obs.trace_overhead_pct", "%"},
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func sorted(ds []time.Duration) []time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// quantile is the q-quantile (nearest rank) of ds, 0 when empty.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	i := int(q*float64(len(ds))+0.5) - 1
	return sorted(ds)[min(max(i, 0), len(ds)-1)]
}

func median(ds []time.Duration) time.Duration {
	s := sorted(ds)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailBeyond is how many samples must lie above the tail percentile.
const tailBeyond = 10

// tail is the highest step-time percentile with at least tailBeyond steps
// beyond it: the (n-tailBeyond)'th smallest of n. It returns the value and
// the percentile it sits at; ok is false with too few steps.
func tail(ds []time.Duration) (v time.Duration, pct float64, ok bool) {
	n := len(ds)
	if n <= tailBeyond {
		return 0, 0, false
	}
	return sorted(ds)[n-tailBeyond-1], 100 * float64(n-tailBeyond) / float64(n), true
}

// endToEndValues computes the untraced run's metrics.
func endToEndValues(r runResult) (map[string]float64, error) {
	v, _, ok := tail(r.walls)
	if !ok {
		return nil, fmt.Errorf("only %d measured steps; the tail needs more than %d", len(r.walls), tailBeyond)
	}
	return map[string]float64{
		"tokens_per_s": ratio(float64(r.tokens), r.elapsed.Seconds()),
		"step_p50_ms":  ms(median(r.walls)),
		"step_tail_ms": ms(v),
		"setup_s":      median(r.setups).Seconds(),
		"peak_rss_mb":  float64(r.peakRSS) / 1e6,
	}, nil
}

// layerValues computes the traced run's metrics from its probe, the layer
// probes, and the untraced and traced median step times.
func layerValues(w workload, p *layerProbe, pr probeResult, untracedP50, tracedP50 time.Duration) map[string]float64 {
	n := float64(p.steps)
	perStep := func(x float64) float64 { return ratio(x, n) }
	stepMS := func(d time.Duration) float64 { return perStep(ms(d)) }
	residual := p.wall - p.fwd - p.bwd - p.drain
	v := map[string]float64{
		"engine.step_ms":           stepMS(p.wall),
		"engine.forward_ms":        stepMS(p.fwd),
		"engine.backward_ms":       stepMS(p.bwd),
		"engine.opt_drain_ms":      stepMS(p.drain),
		"engine.residual_ms":       stepMS(residual),
		"engine.fetch_wait_ms":     stepMS(p.fetchWait),
		"engine.fetch_stalls":      perStep(float64(p.fetchStalls)),
		"engine.offload_wait_ms":   stepMS(p.offloadWait),
		"engine.offload_stalls":    perStep(float64(p.offloadStalls)),
		"engine.depth":             perStep(float64(p.depthSum)),
		"engine.recomputed_blocks": perStep(float64(p.recomputed)),
		"engine.act_offload_bytes": perStep(float64(p.actOffload)),
		"engine.act_fetched_bytes": perStep(float64(p.actFetched)),
		"engine.allocs_per_step":   perStep(float64(p.mallocs)),
		"engine.gc_pause_ms":       stepMS(p.gcPause),

		"nvme.read_bytes":       perStep(float64(p.readBytes)),
		"nvme.write_bytes":      perStep(float64(p.writeBytes)),
		"nvme.read_ops":         perStep(float64(p.readOps)),
		"nvme.write_ops":        perStep(float64(p.writeOps)),
		"nvme.coalesced":        perStep(float64(p.coalesced)),
		"nvme.read_p50_us":      float64(quantile(p.readLat, 0.50)) / 1e3,
		"nvme.read_p99_us":      float64(quantile(p.readLat, 0.99)) / 1e3,
		"nvme.write_p50_us":     float64(quantile(p.writeLat, 0.50)) / 1e3,
		"nvme.write_p99_us":     float64(quantile(p.writeLat, 0.99)) / 1e3,
		"nvme.probe_read_mbps":  pr.readMBps,
		"nvme.probe_write_mbps": pr.writeMBps,

		"opt.adam_ms":                  stepMS(p.adamBusy),
		"opt.adam_mparams_per_s":       ratio(float64(p.adamParams)/1e6, p.adamBusy.Seconds()),
		"opt.prefetched_reads":         perStep(float64(p.prefetched)),
		"opt.state_read_bytes":         perStep(float64(p.stateRead)),
		"opt.state_write_bytes":        perStep(float64(p.stateWrite)),
		"opt.probe_adam_mparams_per_s": pr.adamMParams,

		"tensor.compute_ms":             stepMS(p.fwd + p.bwd - p.fetchWait - p.offloadWait),
		"tensor.pool_jobs":              perStep(float64(p.poolJobs)),
		"tensor.pool_inline_runs":       perStep(float64(p.poolInline)),
		"tensor.pool_stolen_chunks":     perStep(float64(p.poolStolen)),
		"tensor.probe_matmul_gflops":    pr.matmulGFlops,
		"tensor.probe_fp16_encode_gbps": pr.fp16GBps,
		"tensor.pool_speedup":           ratio(pr.matmulGFlops, pr.matmul1GFlops),

		"obs.trace_overhead_pct": 100 * ratio(float64(tracedP50-untracedP50), float64(untracedP50)),
	}
	// Utilisation is bytes over what the throttle admits in the window; an
	// unthrottled array has no ceiling and reports 0.
	if w.ssd != nil {
		wall := p.wall.Seconds()
		v["nvme.read_util"] = ratio(float64(p.readBytes), devices*float64(w.ssd.ReadBW)*wall)
		v["nvme.write_util"] = ratio(float64(p.writeBytes), devices*float64(w.ssd.WriteBW)*wall)
	} else {
		v["nvme.read_util"], v["nvme.write_util"] = 0, 0
	}
	for d := 0; d < devices; d++ {
		v[fmt.Sprintf("nvme.ssd%d.read_busy", d)] = ratio(float64(p.devBusy[d][0]), float64(p.wall))
		v[fmt.Sprintf("nvme.ssd%d.write_busy", d)] = ratio(float64(p.devBusy[d][1]), float64(p.wall))
	}
	for c := nvme.Class(0); c < nvme.NumClasses; c++ {
		v["nvme.queue_wait_ms."+c.String()] = stepMS(p.queueWait[c])
	}
	return v
}
