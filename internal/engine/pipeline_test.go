package engine

import (
	"errors"
	"math"
	"testing"
	"time"

	"ratel/internal/agoffload"
	"ratel/internal/nvme"
	"ratel/internal/obs"
	"ratel/internal/units"
)

// pipelineIdle asserts the invariants the step barrier guarantees between
// steps, successful or failed: no write in flight, every ring-slot token
// home, no leaked host-pool reservation, no live read-ahead.
func pipelineIdle(t *testing.T, e *Engine) {
	t.Helper()
	if e.pipe.outstanding != 0 {
		t.Fatalf("%d offload writes still outstanding after the step barrier", e.pipe.outstanding)
	}
	if free, want := e.pipe.freeSlots(), len(e.pipe.slotTok); free != want {
		t.Fatalf("%d of %d ring-slot tokens home after the step barrier", free, want)
	}
	if used := e.hostPool.Used(); used != 0 {
		t.Fatalf("host pool still holds %v after the step barrier", used)
	}
	for i, live := range e.fetchLive {
		if live {
			t.Fatalf("block %d read-ahead still marked live after the step", i)
		}
	}
}

// poisonPool dirties a spread of shared-pool buffers, the datapath_test
// harness: any consumer trusting recycled contents now reads trash.
func poisonPool(blobLen int) {
	var bufs [][]byte
	for _, n := range []int{blobLen, blobLen, 512, 4096} {
		bufs = append(bufs, nvme.Buffers.Get(n))
	}
	for _, b := range bufs {
		for i := range b {
			b[i] = 0xAB
		}
		nvme.Buffers.Put(b)
	}
}

// TestPipelineWriteFaultBarrier injects a device fault that fires on the
// second activation write of a step — squarely mid-pipeline, with block 0's
// blob already retired and later blocks still computing. The step barrier
// must surface the device error, and every slot token, reservation, and
// read-ahead mark must be back home; after the fault clears (and the shared
// pool is poisoned, to prove the returned buffers carry no poison into
// values), training resumes.
func TestPipelineWriteFaultBarrier(t *testing.T) {
	// One device: every chunk op lands on it, so the countdown is exact. A
	// mini blob (3360 bytes) is one 4096-byte stripe chunk, and Serialized
	// mode does no optimizer I/O until after backward — so from the step's
	// start, chunk ops 0,1,2 are exactly the three activation writes.
	e := newEngine(t, Config{
		GradMode: agoffload.Serialized,
		Swap:     map[int]Tier{0: SwapSSD, 1: SwapSSD, 2: SwapSSD},
		Devices:  1,
		Tracer:   obs.NewTracer(0),
	})
	tokens, targets := data(e.cfg.Model, 3)

	boom := errors.New("flash wear-out")
	e.Array().InjectFaultAfter(0, 1, boom) // first write lands, second fails
	if _, err := e.TrainStep(tokens, targets); err == nil || !errors.Is(err, boom) {
		t.Fatalf("TrainStep with mid-pipeline write fault = %v, want %v", err, boom)
	}
	pipelineIdle(t, e)

	e.Array().InjectFault(0, nil)
	poisonPool(e.blobLen)
	loss, err := e.TrainStep(tokens, targets)
	if err != nil {
		t.Fatalf("TrainStep after fault cleared: %v", err)
	}
	if math.IsNaN(loss) || math.IsInf(loss, 0) {
		t.Fatalf("recovered step loss = %v", loss)
	}
	pipelineIdle(t, e)
}

// TestPipelineReadFaultBarrier arms the countdown past the forward's three
// writes so the first backward read-ahead fails mid-flight. The fetch error
// must surface from TrainStep, and the deferred drain must leave no live
// read-ahead or leaked reservation behind.
func TestPipelineReadFaultBarrier(t *testing.T) {
	e := newEngine(t, Config{
		GradMode: agoffload.Serialized,
		Swap:     map[int]Tier{0: SwapSSD, 1: SwapSSD, 2: SwapSSD},
		Devices:  1,
	})
	tokens, targets := data(e.cfg.Model, 3)

	boom := errors.New("uncorrectable read")
	e.Array().InjectFaultAfter(0, 3, boom) // ops 0..2: forward writes; op 3: first read
	if _, err := e.TrainStep(tokens, targets); err == nil || !errors.Is(err, boom) {
		t.Fatalf("TrainStep with mid-pipeline read fault = %v, want %v", err, boom)
	}
	pipelineIdle(t, e)

	e.Array().InjectFault(0, nil)
	poisonPool(e.blobLen)
	if _, err := e.TrainStep(tokens, targets); err != nil {
		t.Fatalf("TrainStep after fault cleared: %v", err)
	}
	pipelineIdle(t, e)
}

// TestPipelineWindowStall pins the ring's flow control: a depth-1 window
// over three SSD blocks with a slow device must block block 2's encode on
// block 0's in-flight write. The stall is observable — counted in
// StepMetrics and recorded on the stall lane — and values stay identical to
// an unthrottled synchronous run.
func TestPipelineWindowStall(t *testing.T) {
	swap := map[int]Tier{0: SwapSSD, 1: SwapSSD, 2: SwapSSD}
	tr := obs.NewTracer(0)
	slow := newEngine(t, Config{
		GradMode:      agoffload.Optimized,
		Swap:          swap,
		PipelineDepth: 1,
		SSD:           &nvme.Config{OpLatency: time.Millisecond},
		Tracer:        tr,
	})
	ref := newEngine(t, Config{GradMode: agoffload.Optimized, Swap: swap, DisablePipeline: true})

	slowLoss := trainK(t, slow, 2)
	refLoss := trainK(t, ref, 2)
	for i := range refLoss {
		if refLoss[i] != slowLoss[i] {
			t.Fatalf("loss[%d] differs under window stalls: %v vs %v", i, refLoss[i], slowLoss[i])
		}
	}
	pa, pb := paramsSnapshot(ref.Model()), paramsSnapshot(slow.Model())
	if !floatsEqual(pa, pb) {
		t.Fatal("window stalls changed trained parameters")
	}

	m := slow.LastStepMetrics()
	if m.OffloadStalls == 0 || m.OffloadStallWait <= 0 {
		t.Fatalf("depth-1 window over 3 slow writes recorded no stalls: %+v", m)
	}
	if m.OffloadQueuePeak == 0 {
		t.Fatalf("offload queue peak not recorded: %+v", m)
	}
	stallSpans := 0
	for _, s := range tr.Spans() {
		if s.Lane == obs.LaneStall {
			stallSpans++
			if s.End < s.Start {
				t.Fatalf("stall span ends before it starts: %+v", s)
			}
		}
	}
	if stallSpans == 0 {
		t.Fatal("no spans recorded on the stall lane")
	}
	pipelineIdle(t, slow)
}

// TestPipelinePoolBackpressure caps the host staging pool at exactly one
// blob: every block past the first must wait for an in-flight write to
// release its reservation before reserving its own. The retry loop must
// make progress (no deadlock, no spurious OOM), count its stalls, and keep
// values bit-identical.
func TestPipelinePoolBackpressure(t *testing.T) {
	swap := map[int]Tier{0: SwapSSD, 1: SwapSSD, 2: SwapSSD}
	blob := geometryOf(miniConfig()).blobBytes()
	tight := newEngine(t, Config{
		GradMode:   agoffload.Optimized,
		Swap:       swap,
		HostMemory: units.Bytes(blob), // exactly one blob in flight
		SSD:        &nvme.Config{OpLatency: time.Millisecond},
	})
	ref := newEngine(t, Config{GradMode: agoffload.Optimized, Swap: swap, DisablePipeline: true})

	tightLoss := trainK(t, tight, 2)
	refLoss := trainK(t, ref, 2)
	for i := range refLoss {
		if refLoss[i] != tightLoss[i] {
			t.Fatalf("loss[%d] differs under pool backpressure: %v vs %v", i, refLoss[i], tightLoss[i])
		}
	}
	if !floatsEqual(paramsSnapshot(ref.Model()), paramsSnapshot(tight.Model())) {
		t.Fatal("pool backpressure changed trained parameters")
	}
	if m := tight.LastStepMetrics(); m.OffloadStalls == 0 {
		t.Fatalf("one-blob staging pool over 3 slow writes recorded no stalls: %+v", m)
	}
	pipelineIdle(t, tight)
}

// TestPipelineDepthValidation: a negative window is a configuration error,
// not a silent fallback.
func TestPipelineDepthValidation(t *testing.T) {
	if _, err := New(Config{Model: miniConfig(), PipelineDepth: -1}); err == nil {
		t.Fatal("New accepted a negative PipelineDepth")
	}
}

// TestPipelineDefaultDepth: the zero Config gets DefaultPipelineDepth and a
// matching ring; DisablePipeline is window 0 of the same ring — depth 0 on
// the minimum 2-slot ring, still drained by the offload pipeline.
func TestPipelineDefaultDepth(t *testing.T) {
	on := newEngine(t, Config{GradMode: agoffload.Optimized})
	if on.depth != DefaultPipelineDepth || on.pipe == nil {
		t.Fatalf("default engine: depth %d, pipe %v", on.depth, on.pipe != nil)
	}
	if len(on.arena.slots) != DefaultPipelineDepth+1 {
		t.Fatalf("ring has %d slots, want depth+1 = %d", len(on.arena.slots), DefaultPipelineDepth+1)
	}
	off := newEngine(t, Config{GradMode: agoffload.Optimized, DisablePipeline: true})
	if off.depth != 0 || off.pipe == nil || len(off.arena.slots) != 2 {
		t.Fatalf("DisablePipeline engine: depth %d, pipe %v, %d ring slots", off.depth, off.pipe != nil, len(off.arena.slots))
	}
}
