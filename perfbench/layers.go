package main

import (
	"runtime"
	"strconv"
	"strings"
	"time"

	"ratel/internal/engine"
	"ratel/internal/nvme"
	"ratel/internal/obs"
	"ratel/internal/tensor/pool"
)

// laneBench is the lane of the benchmark's own spans, one per TrainStep.
const (
	laneBench  = "bench"
	labelTrain = "TrainStep"
)

// layerProbe observes the traced run from outside the engine: it snapshots the engine's public
// counters around every measured TrainStep and folds the step's spans into
// per-device busy time and per-operation latency. It empties the tracer's
// ring at the adaptive depth controller's window boundaries only: with
// tracing on, the controller reads its whole window's spans back.
type layerProbe struct {
	tr *obs.Tracer

	// Snapshots taken in before.
	stats0 engine.Stats
	sched0 nvme.SchedStats
	flow0  obs.FlowSnapshot
	pool0  pool.Stats
	mem0   runtime.MemStats
	mem1   runtime.MemStats
	from   time.Duration

	steps                                int
	wall, fwd, bwd, drain                time.Duration
	fetchWait, offloadWait, adamBusy     time.Duration
	fetchStalls, offloadStalls, depthSum int64
	adamParams, prefetched               int64
	recomputed, actOffload, actFetched   int64
	readBytes, writeBytes                int64
	readOps, writeOps                    int64
	queueWait                            [nvme.NumClasses]time.Duration
	coalesced                            int64
	stateRead, stateWrite                int64
	poolJobs, poolInline, poolStolen     int64
	mallocs                              uint64
	gcPause                              time.Duration
	// devBusy is each device lane's busy time, indexed [device][write].
	devBusy           [devices][2]time.Duration
	readLat, writeLat []time.Duration
	spans, dropped    uint64
	// Cumulative NVMe bytes since construction as the flow ledger and the
	// array each count them, as of the last step.
	ledgerRead, ledgerWrite int64
	arrayRead, arrayWrite   int64
}

func (p *layerProbe) before(e *engine.Engine) {
	p.stats0 = e.Stats()
	p.sched0 = e.Array().SchedStats()
	p.flow0 = e.Flows()
	p.pool0 = pool.DefaultStats()
	if p.stats0.Steps%engine.DefaultDepthWindow == 0 {
		p.noteDropped()
		p.tr.Reset()
	}
	runtime.ReadMemStats(&p.mem0)
	p.from = p.tr.Now()
}

func (p *layerProbe) after(e *engine.Engine, wall time.Duration) {
	to := p.tr.Now()
	runtime.ReadMemStats(&p.mem1)
	p.tr.RecordSpan(laneBench, labelTrain, p.from, to)
	p.mallocs += p.mem1.Mallocs - p.mem0.Mallocs
	p.gcPause += time.Duration(p.mem1.PauseTotalNs - p.mem0.PauseTotalNs)

	m := e.LastStepMetrics()
	p.steps++
	p.wall += wall
	p.fwd += m.Forward
	p.bwd += m.Backward
	p.drain += m.OptimizerDrain
	p.fetchWait += m.FetchStallWait
	p.fetchStalls += int64(m.FetchStalls)
	p.offloadWait += m.OffloadStallWait
	p.offloadStalls += int64(m.OffloadStalls)
	p.depthSum += int64(m.EffectiveDepth)
	p.adamParams += m.AdamParams
	p.adamBusy += m.AdamBusy
	p.prefetched += int64(m.PrefetchedReads)

	s := e.Stats()
	p.recomputed += int64(s.RecomputedBlocks - p.stats0.RecomputedBlocks)
	p.actOffload += int64(s.ActBytesOffload - p.stats0.ActBytesOffload)
	p.actFetched += int64(s.ActBytesFetched - p.stats0.ActBytesFetched)
	p.readBytes += int64(s.SSD.BytesRead - p.stats0.SSD.BytesRead)
	p.writeBytes += int64(s.SSD.BytesWritten - p.stats0.SSD.BytesWritten)
	p.readOps += s.SSD.ReadOps - p.stats0.SSD.ReadOps
	p.writeOps += s.SSD.WriteOps - p.stats0.SSD.WriteOps

	sched := e.Array().SchedStats()
	for c := range sched.PerClass {
		p.queueWait[c] += sched.PerClass[c].Wait - p.sched0.PerClass[c].Wait
		p.coalesced += sched.PerClass[c].Coalesced - p.sched0.PerClass[c].Coalesced
	}
	cur := e.Flows()
	flow := cur.Sub(p.flow0)
	p.stateRead += flow.Get(obs.EdgeHostNVMeRead, obs.FlowOptState)
	p.stateWrite += flow.Get(obs.EdgeHostNVMeWrite, obs.FlowOptState)
	p.ledgerRead, p.arrayRead = cur.Edge(obs.EdgeHostNVMeRead), int64(s.SSD.BytesRead)
	p.ledgerWrite, p.arrayWrite = cur.Edge(obs.EdgeHostNVMeWrite), int64(s.SSD.BytesWritten)

	ps := pool.DefaultStats()
	p.poolJobs += ps.Jobs - p.pool0.Jobs
	p.poolInline += ps.InlineRuns - p.pool0.InlineRuns
	p.poolStolen += ps.StolenChunks - p.pool0.StolenChunks

	p.foldSpans(p.tr.Spans(), p.from, to)
}

// noteDropped adds the spans the ring lost since its last reset.
func (p *layerProbe) noteDropped() {
	_, dropped := p.tr.Recorded()
	p.dropped += dropped
}

// foldSpans adds the step's spans, those within [from, to]: each device's
// lane busy time (the union of its "ssdN" stride spans per direction) and
// the object-level NVMe operation latencies.
func (p *layerProbe) foldSpans(spans []obs.Span, from, to time.Duration) {
	var dev [devices][2][]obs.Span
	for _, s := range spans {
		if s.Start < from || s.End > to {
			continue
		}
		p.spans++
		write := s.Lane == obs.LaneNVMeWrite
		if !write && s.Lane != obs.LaneNVMeRead {
			continue
		}
		if d, ok := deviceOf(s.Name); ok {
			if d < devices {
				dir := 0
				if write {
					dir = 1
				}
				dev[d][dir] = append(dev[d][dir], s)
			}
			continue
		}
		if write {
			p.writeLat = append(p.writeLat, s.Duration())
		} else {
			p.readLat = append(p.readLat, s.Duration())
		}
	}
	for d := range dev {
		p.devBusy[d][0] += obs.LaneBusy(dev[d][0], obs.LaneNVMeRead, from, to)
		p.devBusy[d][1] += obs.LaneBusy(dev[d][1], obs.LaneNVMeWrite, from, to)
	}
}

// deviceOf parses a device stride span name ("ssd2" → 2).
func deviceOf(name string) (int, bool) {
	rest, ok := strings.CutPrefix(name, "ssd")
	if !ok {
		return 0, false
	}
	d, err := strconv.Atoi(rest)
	return d, err == nil && d >= 0
}
