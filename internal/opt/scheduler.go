// Optimizer scheduling: when each parameter group's OutOfCoreAdam update
// runs relative to the training step (ROADMAP item 3).
//
// The synchronous schedule streams each group's state inline with its
// update, so the optimizer drain is a serialized read→adam→write chain.
// Scheduler adds the two schedules that break that chain:
//
//   - readiness (GreedySnake-style): a persistent reader goroutine issues
//     group state reads in gradient-arrival order, as soon as each gradient
//     lands in backward, depth-bounded through nvme.Buffers. The update
//     consumes the prefetched wire bytes through the same codec path a
//     direct load uses, so results are bit-identical to the synchronous
//     schedule — only the fetch timing changes.
//
//   - async (ZenFlow-style): unimportant groups' updates are staged
//     (gradient snapshot + captured step/hyperparameters) and drained by a
//     background goroutine with its own scratch; the new fp16 working
//     weights land in a staging buffer and are installed on the step
//     goroutine at the bounded-staleness barrier, never concurrently with
//     compute.
package opt

import (
	"errors"
	"fmt"
	"math"
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

// SchedStats is one step's optimizer-scheduling profile; every field is
// zero under the sync schedule.
type SchedStats struct {
	// DeferredGroups and DeferredBytes count the step's updates handed to
	// the async applier and the optimizer traffic they moved off the step.
	DeferredGroups int
	DeferredBytes  int64
	// StalenessPeak is the oldest still-pending deferred update (in steps)
	// left after the staleness barrier — at most maxStaleness by
	// construction.
	StalenessPeak int
	// PrefetchedReads counts readiness-ordered state reads launched during
	// backward.
	PrefetchedReads int
}

// Scheduler decides when each parameter group's update runs: inline
// (sync), with its state read launched at gradient arrival (readiness), or,
// for groups outside the importance partition, on a background applier
// (async). One step drives it as
//
//	o.BeginStep(); s.BeginStep()
//	for each group, as its gradient completes:
//	    deferred, err := s.Arrive(g); if !deferred { s.Update(g) }
//	s.EndStep(ok)
//
// BeginStep, Arrive and EndStep run on the step goroutine. Update may run on
// one other goroutine (the pipelined optimizer worker) as long as each
// group's Arrive happens before its Update. The sync schedule is a
// Scheduler with neither a prefetcher nor an applier.
type Scheduler struct {
	o *OutOfCoreAdam
	// index maps a group name to its position in the registered groups —
	// the prefetcher's fetch slots and the async deferred slots are both in
	// that order. nil under the sync schedule.
	index map[string]int
	// pref is the readiness prefetcher (ScheduleReadiness, nil otherwise).
	pref *prefetcher
	// applier and slots implement ScheduleAsync (nil otherwise): one
	// preallocated deferred slot per group, because the importance
	// partition shifts over training and sizing for the current tail would
	// allocate on every partition change. routed reports whether a
	// partition has been committed (before that every group updates
	// in-step); due is whether this step samples gradient norms and then
	// recommits the partition (every importanceEvery steps, and always
	// until the first partition).
	applier      *applier
	slots        []deferredUpdate
	routed, due  bool
	topK         int
	maxStaleness int
	every        int
	stats        SchedStats
}

// NewScheduler builds the scheduler for mode over groups, starting the
// prefetcher (readiness) or applier (async) goroutine. depth bounds how many
// groups' prefetched state may sit unconsumed (minimum 1). The async knobs
// default when not positive: topK (the groups updated in-step) to half the
// groups rounded up, maxStaleness to 1 step, importanceEvery to every step.
// The non-sync modes need a Store safe for concurrent use — a background
// goroutine streams one group's state while the step streams another's
// (nvme.Array is synchronized; the bare MemStore test map is not).
func NewScheduler(o *OutOfCoreAdam, groups []nn.ParamGroup, mode ScheduleMode, depth, topK, maxStaleness, importanceEvery int) (*Scheduler, error) {
	s := &Scheduler{o: o}
	switch mode {
	case ScheduleSync:
		return s, nil
	case ScheduleReadiness, ScheduleAsync:
	default:
		return nil, fmt.Errorf("opt: unknown optimizer schedule %v", mode)
	}
	s.index = make(map[string]int, len(groups))
	for i, g := range groups {
		s.index[g.Name] = i
	}
	if mode == ScheduleReadiness {
		s.pref = newPrefetcher(o, groups, depth)
		return s, nil
	}
	s.topK = topK
	if s.topK <= 0 {
		s.topK = (len(groups) + 1) / 2
	}
	s.maxStaleness = max(maxStaleness, 1)
	s.every = max(importanceEvery, 1)
	s.slots = make([]deferredUpdate, len(groups))
	for i, g := range groups {
		s.slots[i] = o.newDeferred(g)
	}
	s.applier = newApplier(o, len(groups))
	return s, nil
}

// BeginStep opens a step; call it after OutOfCoreAdam.BeginStep. It resets
// the per-step counters and, under async scheduling, runs the staleness
// barrier: any deferred update staged at step d with t-d > maxStaleness is
// joined before the new step's gradients can overwrite its group. Younger
// updates are deliberately NOT installed early even when the applier has
// finished — installs happen only at this fixed lag (or when the group is
// re-staged), so the trajectory depends on step arithmetic alone, never on
// applier timing, and training stays bit-reproducible across thread counts
// and reruns.
func (s *Scheduler) BeginStep() error {
	s.stats = SchedStats{}
	if s.applier == nil {
		return nil
	}
	t := s.o.Step()
	s.due = !s.routed || t%s.every == 0
	for i := range s.slots {
		d := &s.slots[i]
		if !d.pending {
			continue
		}
		age := t - d.step
		if age > s.maxStaleness {
			if err := d.wait(); err != nil {
				return err
			}
			continue
		}
		s.stats.StalenessPeak = max(s.stats.StalenessPeak, age)
	}
	return nil
}

// Arrive takes g the moment its gradient is complete. Under readiness
// scheduling it launches the group's state read; under async scheduling it
// samples the gradient norm on partition-refresh steps, joins the group's
// previous deferred apply (a slot is never reused, or raced by an in-step
// update, while in flight) and, for a group outside the important
// partition, stages the update for the applier. deferred reports that the
// update was handed off; otherwise the caller runs Update(g) in-step, as it
// does for a group the scheduler was not built with.
func (s *Scheduler) Arrive(g nn.ParamGroup) (deferred bool, err error) {
	i, ok := s.index[g.Name]
	if !ok {
		return false, nil
	}
	if s.pref != nil {
		s.pref.launch(&s.pref.fetches[i])
		s.stats.PrefetchedReads++
		return false, nil
	}
	d := &s.slots[i]
	if s.due {
		d.norm = gradNorm(g)
	}
	if err := d.wait(); err != nil {
		return false, err
	}
	if !s.routed || d.important {
		return false, nil
	}
	if err := s.o.stageDeferred(d, g); err != nil {
		return false, err
	}
	s.applier.jobs <- d
	s.stats.DeferredGroups++
	// The optimizer traffic moved off the step: the 12 B/param state read,
	// the 14 B/param state+P16 write-back and the 2 B/param fp16 gradient
	// snapshot.
	s.stats.DeferredBytes += 28 * int64(d.n)
	return true, nil
}

// Update applies g's in-step update, consuming its prefetched state when a
// read was launched and loading the state inline otherwise — bit-identical
// either way.
func (s *Scheduler) Update(g nn.ParamGroup) error {
	if s.pref != nil {
		if i, ok := s.index[g.Name]; ok {
			return s.pref.update(&s.pref.fetches[i], g)
		}
	}
	return s.o.UpdateGroup(g)
}

// EndStep closes a step once no Update is running. It consumes every
// launched-but-unapplied prefetch (a failed step abandons its remaining
// updates) and, after a successful step (ok) on a refresh step, recommits
// the top-k importance partition from the norms sampled this step so it
// routes the next step's gradients.
func (s *Scheduler) EndStep(ok bool) error {
	if err := s.pref.drain(); err != nil {
		return err
	}
	if !ok || s.applier == nil || !s.due {
		return nil
	}
	for i := range s.slots {
		s.slots[i].important = false
	}
	for rank := 0; rank < s.topK && rank < len(s.slots); rank++ {
		best := -1
		for i := range s.slots {
			if d := &s.slots[i]; !d.important && (best < 0 || d.norm > s.slots[best].norm) {
				best = i
			}
		}
		s.slots[best].important = true
	}
	s.routed = true
	return nil
}

// Flush joins every in-flight deferred update, installing its result. It
// runs on the step goroutine between steps; checkpointing and weight export
// call it so persisted state reflects all staged gradients. A no-op outside
// async scheduling.
func (s *Scheduler) Flush() error {
	var joined error
	for i := range s.slots {
		if err := s.slots[i].wait(); err != nil {
			joined = errors.Join(joined, err)
		}
	}
	return joined
}

// Close joins the prefetcher and applier goroutines: abandoned prefetches
// are drained, queued deferred applies finish, but their results are not
// installed — Flush first when they matter. Idempotent.
func (s *Scheduler) Close() {
	s.pref.close()
	s.applier.close()
}

// StepStats reports the current step's scheduling profile.
func (s *Scheduler) StepStats() SchedStats { return s.stats }

// gradNorm is the L2 norm of a group's gradients, used to rank groups for
// the importance partition.
func gradNorm(g nn.ParamGroup) float64 {
	var sum float64
	for _, p := range g.Params {
		if p.G == nil {
			continue
		}
		for _, v := range p.G.Data {
			sum += float64(v) * float64(v)
		}
	}
	return math.Sqrt(sum)
}

// stateWire is one group's optimizer state in wire form: the raw
// little-endian fp32 bytes of the masters and both Adam moments, exactly as
// the store holds them (4*NumParams bytes each). The prefetcher fills one
// from the store ahead of the update and the optimizer decodes it through
// the same codec path a direct load uses, so a prefetched update is
// bit-identical to a synchronous one.
type stateWire struct {
	p32, m, v []byte
}

// stateFetch is one group's in-flight (or completed) state prefetch. One
// struct per group, preallocated and reused every step.
type stateFetch struct {
	name  string
	keys  groupKeys
	n     int
	label string // "<group>/opt-pread" span label, precomputed
	ready chan error
	wire  stateWire // buffers from nvme.Buffers while live
	live  bool
}

// prefetcher reorders OutOfCoreAdam state reads by readiness: launch
// enqueues a group's fetch the moment its gradient lands, a single
// persistent reader goroutine streams the state into pooled buffers
// (depth-bounded), and update consumes the bytes. Per-fetch handoff
// synchronizes through each fetch's ready channel; the caller orders a
// group's launch before its update.
type prefetcher struct {
	o        *OutOfCoreAdam
	queue    chan *stateFetch // holds every group: launch never blocks backward
	sem      chan struct{}    // depth tokens: bounds unconsumed fetched state
	wg       sync.WaitGroup
	stopOnce sync.Once
	fetches  []stateFetch
	// fifo holds launched fetches in launch order until drain resets it at
	// the end of the step. Reader processing is FIFO, so draining in this
	// order can never deadlock against the depth tokens.
	fifo []*stateFetch
}

// newPrefetcher preallocates one fetch slot per group and starts the reader
// goroutine.
func newPrefetcher(o *OutOfCoreAdam, groups []nn.ParamGroup, depth int) *prefetcher {
	n := max(len(groups), 1)
	p := &prefetcher{
		o:       o,
		queue:   make(chan *stateFetch, n),
		sem:     make(chan struct{}, max(depth, 1)),
		fetches: make([]stateFetch, len(groups)),
		fifo:    make([]*stateFetch, 0, n),
	}
	for i, g := range groups {
		p.fetches[i] = stateFetch{
			name:  g.Name,
			keys:  o.groupKeysFor(g.Name),
			n:     g.NumParams(),
			label: g.Name + "/opt-pread",
			ready: make(chan error, 1),
		}
	}
	p.wg.Add(1)
	go p.reader()
	return p
}

// launch enqueues f's state read; a fetch already in flight is left alone.
func (p *prefetcher) launch(f *stateFetch) {
	if f.live {
		return
	}
	f.live = true
	p.fifo = append(p.fifo, f)
	p.queue <- f
}

// update applies g's update from f's prefetched state, falling back to the
// synchronous load when no fetch is in flight.
func (p *prefetcher) update(f *stateFetch, g nn.ParamGroup) error {
	if !f.live {
		return p.o.UpdateGroup(g)
	}
	f.live = false
	if err := <-f.ready; err != nil {
		p.release(f)
		return err
	}
	err := p.o.applyGroup(g, &f.wire)
	p.release(f)
	return err
}

// drain consumes every launched-but-unapplied fetch and resets the
// launch-order list; in the normal path it is a cheap per-step reset. It
// must only run while no goroutine is consuming fetches. Nil-safe.
func (p *prefetcher) drain() error {
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

// close drains any abandoned fetches and joins the reader goroutine.
// Idempotent and nil-safe.
func (p *prefetcher) close() {
	if p == nil {
		return
	}
	p.stopOnce.Do(func() {
		close(p.queue)
		_ = p.drain() // nothing consumes an abandoned fetch's error at shutdown
	})
	p.wg.Wait()
}

// reader is the persistent fetch goroutine: strictly FIFO over the launch
// queue, holding at most depth groups' state in pooled buffers.
func (p *prefetcher) reader() {
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
func (p *prefetcher) fetch(f *stateFetch) error {
	nb := 4 * f.n
	f.wire.p32 = nvme.Buffers.Get(nb)
	f.wire.m = nvme.Buffers.Get(nb)
	f.wire.v = nvme.Buffers.Get(nb)
	if err := p.readOne(f.keys.p32, f.wire.p32, f.name, "p32"); err != nil {
		p.putBufs(f)
		return err
	}
	if err := p.readOne(f.keys.m, f.wire.m, f.name, "m"); err != nil {
		p.putBufs(f)
		return err
	}
	if err := p.readOne(f.keys.v, f.wire.v, f.name, "v"); err != nil {
		p.putBufs(f)
		return err
	}
	return nil
}

// readOne reads one state object into dst.
func (p *prefetcher) readOne(key string, dst []byte, group, kind string) error {
	if err := p.o.store.ReadIntoClass(key, dst, nvme.ClassOptRead); err != nil {
		return fmt.Errorf("opt: prefetch %s/%s: %w", group, kind, err)
	}
	return nil
}

// release returns a consumed fetch's buffers to the pool and frees its
// depth token.
func (p *prefetcher) release(f *stateFetch) {
	p.putBufs(f)
	<-p.sem
}

// putBufs recycles whatever wire buffers the fetch holds.
func (p *prefetcher) putBufs(f *stateFetch) {
	if f.wire.p32 != nil {
		nvme.Buffers.Put(f.wire.p32)
		f.wire.p32 = nil
	}
	if f.wire.m != nil {
		nvme.Buffers.Put(f.wire.m)
		f.wire.m = nil
	}
	if f.wire.v != nil {
		nvme.Buffers.Put(f.wire.v)
		f.wire.v = nil
	}
}

// deferredUpdate is one group's async slot: the staged update (gradient
// snapshot and the optimizer step/hyperparameters captured at stage time),
// the fp16 staging the background apply writes its result into, and the
// group's standing in the importance partition. Preallocated per group and
// reused; the pending flag (owned by the step goroutine) serializes reuse,
// and the done channel carries the handoff from the applier goroutine.
type deferredUpdate struct {
	group nn.ParamGroup
	n     int
	keys  groupKeys
	label string // "<group>/opt-adam-async" span label, precomputed

	step  int        // optimizer step the staged gradient belongs to
	cfg   AdamConfig // hyperparameters at stage time (pins the scheduled LR)
	grads []float32  // fp16-rounded, unscaled, clipped gradient snapshot
	p16   []float32  // fp16 working weights the apply produced, pre-install

	done    chan error
	pending bool

	// norm is the gradient L2 norm sampled on the last refresh step;
	// important puts the group in the in-step partition. Step goroutine
	// only.
	norm      float64
	important bool
}

// newDeferred preallocates g's deferred slot: staging sized to the group,
// the result channel, and precomputed store keys and span label, so
// deferring never allocates or touches shared maps.
func (o *OutOfCoreAdam) newDeferred(g nn.ParamGroup) deferredUpdate {
	n := g.NumParams()
	return deferredUpdate{
		group: g,
		n:     n,
		keys:  o.groupKeysFor(g.Name),
		label: g.Name + "/opt-adam-async",
		grads: make([]float32, n),
		p16:   make([]float32, n),
		done:  make(chan error, 1),
	}
}

// wait blocks until the background apply finishes, installs the fresh fp16
// working weights into the group's tensors, and clears the pending mark. A
// no-op when nothing is pending. Must run on the step goroutine (the
// installed weights are read by compute).
func (d *deferredUpdate) wait() error {
	if !d.pending {
		return nil
	}
	err := <-d.done
	d.pending = false
	if err != nil {
		return err
	}
	off := 0
	for _, p := range d.group.Params {
		off += copy(p.W.Data, d.p16[off:off+p.W.Numel()])
	}
	return nil
}

// stageDeferred captures everything a background apply of g's update needs
// into the idle slot d: the fp16-rounded, unscaled and clipped gradient, the
// optimizer step the gradient belongs to, and the hyperparameters at stage
// time (so the learning-rate schedule applies to the step that produced the
// gradient, not the step the apply lands in). The G16 staging is
// bit-identical to the synchronous handler's.
func (o *OutOfCoreAdam) stageDeferred(d *deferredUpdate, g nn.ParamGroup) error {
	if o.step < 1 {
		return fmt.Errorf("opt: stage deferred %s before BeginStep", g.Name)
	}
	if err := o.stageGrad(d.grads, g); err != nil {
		return err
	}
	d.step = o.step
	d.cfg = o.cfg
	d.pending = true
	return nil
}

// applier drains deferred updates on a background goroutine, strictly in
// submission order. It owns its own state scratch — a background apply
// never contends with an in-step update on the optimizer's scratch lock,
// and the store keys of a deferred group are disjoint from every
// concurrently-updating group (the partition routing guarantees it).
type applier struct {
	o        *OutOfCoreAdam
	jobs     chan *deferredUpdate // holds every group: staging never blocks backward
	wg       sync.WaitGroup
	stopOnce sync.Once
	scr      stateScratch
}

// newApplier starts the applier goroutine with room for maxQueue jobs.
func newApplier(o *OutOfCoreAdam, maxQueue int) *applier {
	a := &applier{o: o, jobs: make(chan *deferredUpdate, max(maxQueue, 1))}
	a.wg.Add(1)
	go a.run()
	return a
}

// close stops the applier after finishing queued jobs. Idempotent and
// nil-safe.
func (a *applier) close() {
	if a == nil {
		return
	}
	a.stopOnce.Do(func() { close(a.jobs) })
	a.wg.Wait()
}

// run drains the job queue until close.
func (a *applier) run() {
	defer a.wg.Done()
	for d := range a.jobs {
		d.done <- a.apply(d)
	}
}

// apply runs one deferred group update against the store using the
// applier's own scratch: stream P32+OS32 in, Adam at the captured
// step/hyperparameters, stream back, and round the new fp16 working
// weights into the staging buffer for the step goroutine to install.
func (a *applier) apply(d *deferredUpdate) error {
	p32, err := a.o.roundTrip(&a.scr, d.group.Name, d.keys, d.label, nil, d.grads, d.step, d.cfg)
	if err != nil {
		return err
	}
	if err := tensor.RoundFP16Into(d.p16, p32); err != nil {
		return fmt.Errorf("opt: async install %s: %w", d.group.Name, err)
	}
	// The fp16 install crosses back to the compute tier when the step
	// goroutine copies it in at the staleness barrier; credit it where the
	// bytes are produced.
	a.o.flows.Add(obs.EdgeComputeHost, obs.FlowParams, int64(2*d.n))
	return nil
}
