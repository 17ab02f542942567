// Optimizer scheduling modes on top of OutOfCoreAdam (ROADMAP item 3).
//
// The synchronous schedule streams each group's state inline with its
// update, so the optimizer drain is a serialized read→adam→write chain.
// This file adds the two schedules that break that chain:
//
//   - StatePrefetcher (GreedySnake-style): a persistent reader goroutine
//     issues group state reads in gradient-arrival order, as soon as each
//     gradient lands in backward, depth-bounded through nvme.Buffers. The
//     update consumes the prefetched wire bytes through the same codec
//     path a direct load uses, so results are bit-identical to the
//     synchronous schedule — only the fetch timing changes.
//
//   - AsyncApplier (ZenFlow-style): unimportant groups' updates are staged
//     (gradient snapshot + captured step/hyperparameters) and drained by a
//     background goroutine with its own scratch; the new fp16 working
//     weights land in a staging buffer and are installed on the step
//     goroutine at the engine's bounded-staleness barrier, never
//     concurrently with compute.
package opt

import (
	"fmt"
	"sync"

	"ratel/internal/nn"
	"ratel/internal/nvme"
	"ratel/internal/obs"
	"ratel/internal/tensor"
)

// ScheduleMode selects how the engine schedules optimizer work relative to
// the training step.
type ScheduleMode int

// Optimizer scheduling modes.
const (
	// ScheduleSync is the baseline: every group's handler streams its own
	// state inline (read, adam, write) in gradient-arrival order.
	ScheduleSync ScheduleMode = iota
	// ScheduleReadiness issues each group's state read as soon as its
	// gradient arrives in backward, reordered by readiness and overlapped
	// with the remaining backward compute and with other groups' updates.
	// Bit-identical to ScheduleSync: same updates, different fetch order.
	ScheduleReadiness
	// ScheduleAsync partitions groups by gradient-norm importance: the
	// important partition updates synchronously in-step, the tail drains on
	// a background applier under a bounded-staleness barrier. Changes the
	// training trajectory (boundedly); validated by a convergence test, not
	// bit-equality.
	ScheduleAsync
)

// String names the mode.
func (m ScheduleMode) String() string {
	switch m {
	case ScheduleSync:
		return "sync"
	case ScheduleReadiness:
		return "readiness"
	case ScheduleAsync:
		return "async"
	}
	return fmt.Sprintf("ScheduleMode(%d)", int(m))
}

// ParseScheduleMode parses a -opt-schedule flag value.
func ParseScheduleMode(s string) (ScheduleMode, error) {
	switch s {
	case "sync":
		return ScheduleSync, nil
	case "readiness":
		return ScheduleReadiness, nil
	case "async":
		return ScheduleAsync, nil
	}
	return 0, fmt.Errorf("opt: unknown schedule mode %q (want sync, readiness or async)", s)
}

// stateFetch is one group's in-flight (or completed) state prefetch. One
// struct per registered group, preallocated and reused every step.
type stateFetch struct {
	name  string
	keys  groupKeys
	n     int
	label string // "<group>/opt-pread" span label, precomputed
	ready chan error
	wire  StateWire // buffers from nvme.Buffers while live
	live  bool
}

// StatePrefetcher reorders OutOfCoreAdam state reads by readiness: Launch
// enqueues a group's fetch the moment its gradient lands, a single
// persistent reader goroutine streams the state into pooled buffers
// (depth-bounded), and UpdateGroup consumes the bytes through
// UpdateGroupWire. Launch and UpdateGroup run on the engine's step/worker
// goroutines; per-fetch handoff synchronizes through each fetch's ready
// channel, and the engine's job channel orders Launch before the matching
// consume.
type StatePrefetcher struct {
	o        *OutOfCoreAdam
	depth    int
	queue    chan *stateFetch
	sem      chan struct{} // depth tokens: bounds unconsumed fetched state
	wg       sync.WaitGroup
	stopOnce sync.Once
	byName   map[string]*stateFetch
	// fifo holds launched fetches in launch order until DrainLive resets it
	// at the end of the step. Reader processing is FIFO, so draining in this
	// order can never deadlock against the depth tokens.
	fifo []*stateFetch
}

// NewStatePrefetcher starts the reader goroutine. depth bounds how many
// groups' fetched state may sit unconsumed (minimum 1); maxGroups sizes the
// launch queue so Launch never blocks the backward pass. The optimizer's
// Store must be safe for concurrent use — the reader fetches one group's
// state while the step goroutine writes another's back (nvme.Array is
// synchronized; the bare MemStore test map is not).
func NewStatePrefetcher(o *OutOfCoreAdam, depth, maxGroups int) *StatePrefetcher {
	if depth < 1 {
		depth = 1
	}
	if maxGroups < 1 {
		maxGroups = 1
	}
	p := &StatePrefetcher{
		o:      o,
		depth:  depth,
		queue:  make(chan *stateFetch, maxGroups),
		sem:    make(chan struct{}, depth),
		byName: make(map[string]*stateFetch),
		fifo:   make([]*stateFetch, 0, maxGroups),
	}
	p.wg.Add(1)
	go p.reader()
	return p
}

// Register preallocates the fetch slot for one parameter group; call once
// per group before training starts.
func (p *StatePrefetcher) Register(g nn.ParamGroup) {
	p.byName[g.Name] = &stateFetch{
		name:  g.Name,
		keys:  p.o.groupKeysFor(g.Name),
		n:     g.NumParams(),
		label: g.Name + "/opt-pread",
		ready: make(chan error, 1),
	}
}

// Launch enqueues the group's state fetch. Non-blocking (the queue holds
// every registered group); a group already in flight is left alone.
func (p *StatePrefetcher) Launch(group string) {
	f := p.byName[group]
	if f == nil || f.live {
		return
	}
	f.live = true
	p.fifo = append(p.fifo, f)
	p.queue <- f
}

// UpdateGroup applies one group's optimizer update, consuming its
// prefetched state when a fetch is in flight and falling back to the
// synchronous load otherwise. Bit-identical either way.
func (p *StatePrefetcher) UpdateGroup(g nn.ParamGroup) error {
	f := p.byName[g.Name]
	if f == nil || !f.live {
		return p.o.UpdateGroup(g)
	}
	f.live = false
	if err := <-f.ready; err != nil {
		p.release(f)
		return err
	}
	err := p.o.UpdateGroupWire(g, &f.wire)
	p.release(f)
	return err
}

// DrainLive consumes every launched-but-unapplied fetch (the failure-path
// cleanup: a failed step abandons its remaining updates) and resets the
// launch-order list; in the normal path it is a cheap per-step reset. It
// must only run while no worker goroutine is consuming fetches.
func (p *StatePrefetcher) DrainLive() error {
	if p == nil {
		return nil
	}
	var first error
	for _, f := range p.fifo {
		if !f.live {
			continue
		}
		f.live = false
		if err := <-f.ready; err != nil && first == nil {
			first = err
		}
		p.release(f)
	}
	p.fifo = p.fifo[:0]
	return first
}

// Close drains any abandoned fetches and joins the reader goroutine.
// Idempotent and nil-safe.
func (p *StatePrefetcher) Close() {
	if p == nil {
		return
	}
	p.stopOnce.Do(func() {
		close(p.queue)
		_ = p.DrainLive()
	})
	p.wg.Wait()
}

// reader is the persistent fetch goroutine: strictly FIFO over the launch
// queue, holding at most depth groups' state in pooled buffers.
func (p *StatePrefetcher) reader() {
	defer p.wg.Done()
	for f := range p.queue {
		p.sem <- struct{}{} // wait for a consumed slot before buffering more
		start := p.o.tracer.Now()
		err := p.fetch(f)
		p.o.tracer.RecordSpan(obs.LanePrefetch, f.label, start, p.o.tracer.Now())
		f.ready <- err
	}
}

// fetch streams one group's three state tensors into pooled wire buffers.
// All-or-nothing: on error the buffers go straight back to the pool.
func (p *StatePrefetcher) fetch(f *stateFetch) error {
	nb := 4 * f.n
	f.wire.P32 = nvme.Buffers.Get(nb)
	f.wire.M = nvme.Buffers.Get(nb)
	f.wire.V = nvme.Buffers.Get(nb)
	if err := p.readOne(f.keys.p32, f.wire.P32, f.name, "p32"); err != nil {
		p.putBufs(f)
		return err
	}
	if err := p.readOne(f.keys.m, f.wire.M, f.name, "m"); err != nil {
		p.putBufs(f)
		return err
	}
	if err := p.readOne(f.keys.v, f.wire.V, f.name, "v"); err != nil {
		p.putBufs(f)
		return err
	}
	return nil
}

// readOne reads one state object into dst.
func (p *StatePrefetcher) readOne(key string, dst []byte, group, kind string) error {
	if err := p.o.store.ReadIntoClass(key, dst, nvme.ClassOptRead); err != nil {
		return fmt.Errorf("opt: prefetch %s/%s: %w", group, kind, err)
	}
	return nil
}

// release returns a consumed fetch's buffers to the pool and frees its
// depth token.
func (p *StatePrefetcher) release(f *stateFetch) {
	p.putBufs(f)
	<-p.sem
}

// putBufs recycles whatever wire buffers the fetch holds.
func (p *StatePrefetcher) putBufs(f *stateFetch) {
	if f.wire.P32 != nil {
		nvme.Buffers.Put(f.wire.P32)
		f.wire.P32 = nil
	}
	if f.wire.M != nil {
		nvme.Buffers.Put(f.wire.M)
		f.wire.M = nil
	}
	if f.wire.V != nil {
		nvme.Buffers.Put(f.wire.V)
		f.wire.V = nil
	}
}

// DeferredUpdate is one group's staged asynchronous update: the gradient
// snapshot and captured optimizer step/hyperparameters at defer time, plus
// the fp16 staging the background apply writes its result into. One struct
// per group, preallocated and reused; the pending flag (owned by the step
// goroutine) serializes reuse, and the done channel carries the handoff
// from the applier goroutine.
type DeferredUpdate struct {
	group nn.ParamGroup
	name  string
	n     int
	keys  groupKeys
	label string // "<group>/opt-adam-async" span label, precomputed

	step  int        // optimizer step the staged gradient belongs to
	cfg   AdamConfig // hyperparameters at stage time (pins the scheduled LR)
	grads []float32  // fp16-rounded, unscaled, clipped gradient snapshot
	p16   []float32  // fp16 working weights the apply produced, pre-install

	done    chan error
	pending bool
}

// NewDeferred preallocates the deferred-update slot for one parameter
// group: staging sized to the group, the result channel, and precomputed
// store keys and span label, so deferring never allocates or touches
// shared maps.
func (o *OutOfCoreAdam) NewDeferred(g nn.ParamGroup) *DeferredUpdate {
	n := g.NumParams()
	return &DeferredUpdate{
		group: g,
		name:  g.Name,
		n:     n,
		keys:  o.groupKeysFor(g.Name),
		label: g.Name + "/opt-adam-async",
		grads: make([]float32, n),
		p16:   make([]float32, n),
		done:  make(chan error, 1),
	}
}

// Pending reports whether a background apply of this update is in flight.
func (d *DeferredUpdate) Pending() bool { return d.pending }

// Step is the optimizer step the staged gradient belongs to; the weights'
// staleness at step t is t - Step().
func (d *DeferredUpdate) Step() int { return d.step }

// Name is the parameter group this slot serves.
func (d *DeferredUpdate) Name() string { return d.name }

// DeferredBytes is the optimizer traffic one deferred update moves off the
// step's critical path: the 12 B/param state read, 14 B/param state+P16
// write-back, and the 2 B/param fp16 gradient snapshot.
func (d *DeferredUpdate) DeferredBytes() int64 { return 28 * int64(d.n) }

// Wait blocks until the background apply finishes, installs the fresh fp16
// working weights into the group's tensors, and clears the pending mark.
// Must run on the step goroutine (the installed weights are read by
// compute).
func (d *DeferredUpdate) Wait() error {
	if !d.pending {
		return nil
	}
	err := <-d.done
	d.pending = false
	if err != nil {
		return err
	}
	d.install()
	return nil
}

// install copies the staged fp16 working weights into the model tensors.
func (d *DeferredUpdate) install() {
	off := 0
	for _, p := range d.group.Params {
		copy(p.W.Data, d.p16[off:off+p.W.Numel()])
		off += p.W.Numel()
	}
}

// StageDeferred captures everything a background apply of g's update needs:
// the fp16-rounded, unscaled and clipped gradient, the optimizer step the
// gradient belongs to, and the hyperparameters at stage time (so the
// learning-rate schedule applies to the step that produced the gradient,
// not the step the apply lands in). The G16 staging is bit-identical to the
// synchronous handler's. d must be idle.
func (o *OutOfCoreAdam) StageDeferred(d *DeferredUpdate, g nn.ParamGroup) error {
	if o.step < 1 {
		return fmt.Errorf("opt: StageDeferred(%s) before BeginStep", g.Name)
	}
	if d.pending {
		return fmt.Errorf("opt: StageDeferred(%s): previous deferred update still in flight", g.Name)
	}
	if err := o.stageGrad(d.grads, g); err != nil {
		return err
	}
	d.step = o.step
	d.cfg = o.cfg
	d.pending = true
	return nil
}

// AsyncApplier drains DeferredUpdates on a background goroutine. It owns
// its own state scratch — a background apply never contends with an
// in-step update on the optimizer's scratch lock, and the store keys of a
// deferred group are disjoint from every concurrently-updating group (the
// engine's partition routing guarantees it).
type AsyncApplier struct {
	o        *OutOfCoreAdam
	jobs     chan *DeferredUpdate
	wg       sync.WaitGroup
	stopOnce sync.Once
	scr      stateScratch
}

// NewAsyncApplier starts the applier goroutine; maxQueue sizes the job
// channel (the engine passes its group count, so Submit never blocks the
// backward pass). The optimizer's Store must be safe for concurrent use —
// the applier round-trips deferred groups' state while the step goroutine
// streams the in-step groups' (nvme.Array is synchronized; the bare
// MemStore test map is not).
func NewAsyncApplier(o *OutOfCoreAdam, maxQueue int) *AsyncApplier {
	if maxQueue < 1 {
		maxQueue = 1
	}
	a := &AsyncApplier{o: o, jobs: make(chan *DeferredUpdate, maxQueue)}
	a.wg.Add(1)
	go a.run()
	return a
}

// Submit hands a staged update to the applier. Jobs apply strictly in
// submission order, so two defers of the same group (serialized by the
// pending flag) can never reorder.
func (a *AsyncApplier) Submit(d *DeferredUpdate) { a.jobs <- d }

// Close stops the applier after finishing queued jobs. Idempotent and
// nil-safe; flush pending updates (DeferredUpdate.Wait) before closing if
// their results matter.
func (a *AsyncApplier) Close() {
	if a == nil {
		return
	}
	a.stopOnce.Do(func() { close(a.jobs) })
	a.wg.Wait()
}

// run drains the job queue until Close.
func (a *AsyncApplier) run() {
	defer a.wg.Done()
	for d := range a.jobs {
		d.done <- a.apply(d)
	}
}

// apply runs one deferred group update against the store using the
// applier's own scratch: stream P32+OS32 in, Adam at the captured
// step/hyperparameters, stream back, and round the new fp16 working
// weights into the staging buffer for the step goroutine to install.
func (a *AsyncApplier) apply(d *DeferredUpdate) error {
	p32, err := a.o.roundTrip(&a.scr, d.name, d.keys, d.label, nil, d.grads, d.step, d.cfg)
	if err != nil {
		return err
	}
	if err := tensor.RoundFP16Into(d.p16, p32); err != nil {
		return fmt.Errorf("opt: async install %s: %w", d.name, err)
	}
	// The fp16 install crosses back to the compute tier when the step
	// goroutine copies it in at the staleness barrier; credit it where the
	// bytes are produced.
	a.o.flows.Add(obs.EdgeComputeHost, obs.FlowParams, int64(2*d.n))
	return nil
}
