// Package pool provides the shared worker pool the CPU kernels run on: a
// fixed set of persistent goroutines that execute chunked parallel-for jobs.
// Scheduling is core-aware work-stealing at chunk granularity: each job's
// chunk range is split into contiguous segments, one per expected
// participant, and every participant (the submitting goroutine included)
// drains its own segment before stealing round-robin from the others.
// Adjacent chunks usually touch adjacent memory, so segment affinity keeps
// each participant streaming through one contiguous region — prefetch
// friendly, no cache-line ping-pong on a single shared cursor — while
// stealing still load-balances uneven chunks and a busy pool can never
// deadlock a caller: the caller always makes progress on its own job.
//
// The pool exists because the mini training engine's hot loops (matmul
// panels, attention heads, Adam chunks) are far too short-lived to pay a
// goroutine spawn each; workers park on a channel between jobs.
//
// Dispatch itself allocates nothing in the steady state:
//   - job descriptors are recycled through a freelist the pool owns; each
//     counts the participants inside it and carries a generation that
//     every offer to the workers is tagged with, so an offer dequeued
//     after its job completed is recognised as stale and neither pins nor
//     disturbs the recycled descriptor;
//   - each descriptor owns a cap-1 completion channel, made once;
//   - For keeps its carve (n, chunk size, body) in the descriptor instead
//     of a wrapper closure;
//   - ForKernel takes a top-level Kernel plus an Operands value copied
//     into the descriptor, so a kernel with nothing to capture — the
//     fp16/fp32 codec family — dispatches with zero allocations at any
//     participant count.
//
// Sizing: the default pool targets runtime.GOMAXPROCS(0) participants (the
// scheduler's actual parallelism, which respects CPU-quota–aware deploys
// better than the raw core count), overridable at process start with the
// RATEL_THREADS environment variable and at runtime with SetLimit
// (tensor.SetParallelism forwards to it). A limit of 1 makes every job run
// serially on the caller.
package pool

import (
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ratel/internal/obs"
)

// maxSegs caps the number of per-job segments. Segment cursors live in a
// fixed array embedded in the job struct — no per-job slice allocation, so
// the steady-state allocation pin is untouched — which makes the cap a
// compile-time constant. Participants beyond maxSegs share segments.
const maxSegs = 16

// segCursor is one segment's claim cursor, padded to a cache line so
// participants draining different segments never contend on the same line.
type segCursor struct {
	c atomic.Int64
	_ [56]byte
}

// Kernel is a chunk body with no captured state: a top-level function
// that reads every slice it touches from ops. Passing one to ForKernel
// allocates nothing, where a capturing func literal passed to For escapes
// to the heap on every call.
type Kernel func(ops Operands, lo, hi int)

// Operands are the slices a Kernel works on. The pool copies them into the
// job descriptor by value and hands each chunk a copy, so neither the
// caller's operands nor their address ever move to the heap. Which slice
// plays which role is the kernel's own convention.
type Operands struct {
	X, Y []float32
	B    []byte
}

// job is one parallel-for invocation. Chunks [0,chunks) are divided into
// segs contiguous segments of segLen chunks (the last may be short); each
// segment has its own claim cursor. The participant whose completion credit
// brings done to chunks sends on fin.
//
// Descriptors are recycled (getJob / release). state packs the
// descriptor's generation (high 32 bits, bumped on every reuse) with a
// reference count of the participants inside the job (low 32 bits): the
// submitter until it has received fin, plus each worker that joined. The
// last release returns the descriptor to the freelist. A submitter offers
// its job lim-1 times and may finish it alone, so a worker can dequeue an
// offer long after the job completed; offers carry the generation they
// were made for, and a worker joins only through acquire, which refuses a
// generation that has moved on or a count that already reached zero. So a
// stale offer neither holds the descriptor back from reuse — the freelist
// does not grow while workers lag — nor touches anything of a later job
// but the state word. (A stale offer is misread only if its descriptor is
// recycled 2^32 times between the worker's dequeue and its acquire.)
type job struct {
	state   atomic.Uint64
	done    atomic.Int64
	chunks  int64
	segLen  int64
	segs    int
	fin     chan struct{} // cap 1, made once per descriptor
	pool    *Pool
	cursors [maxSegs]segCursor

	// The chunk body: run(c) for Run; otherwise chunk c covers
	// [c*span, min((c+1)*span, n)) of kern(ops, lo, hi) or body(lo, hi).
	run  func(chunk int)
	body func(lo, hi int)
	kern Kernel
	ops  Operands
	n    int
	span int
}

// exec runs chunk c through whichever body the job carries.
func (j *job) exec(c int) {
	if j.run != nil {
		j.run(c)
		return
	}
	lo := c * j.span
	hi := lo + j.span
	if hi > j.n {
		hi = j.n
	}
	if j.kern != nil {
		j.kern(j.ops, lo, hi)
		return
	}
	j.body(lo, hi)
}

// work claims chunks until the job is exhausted: first from the
// participant's own segment, then — once a full segment drains its cursor
// never refills, so a single round-robin pass suffices — by stealing from
// the remaining segments in order. Claims are credited to the worker or
// submitter counter, and cross-segment claims to the stolen counter, with
// one atomic add per participant rather than per chunk to keep claiming
// cheap. Completion is credited to done last, also once per participant,
// so by the time fin fires every participant's stats are folded in.
// claimed counts chunks the participant already claimed and ran before
// calling work (the submitter's reserved first chunk).
func (j *job) work(worker bool, id int, claimed int64) {
	var stolen int64
	pref := 0
	if worker {
		// Spawn-order ids map workers onto segments 1..segs-1 first,
		// leaving segment 0 to the submitter (which starts instantly and
		// is usually the goroutine that just wrote the input).
		pref = (id + 1) % j.segs
	}
	for s := 0; s < j.segs; s++ {
		seg := pref + s
		if seg >= j.segs {
			seg -= j.segs
		}
		base := int64(seg) * j.segLen
		end := base + j.segLen
		if end > j.chunks {
			end = j.chunks
		}
		for {
			c := base + j.cursors[seg].c.Add(1) - 1
			if c >= end {
				break
			}
			claimed++
			if s != 0 {
				stolen++
			}
			j.exec(int(c))
		}
	}
	if claimed == 0 {
		return
	}
	if worker {
		j.pool.stats.workerChunks.Add(claimed)
	} else {
		j.pool.stats.submitterChunks.Add(claimed)
	}
	if stolen > 0 {
		j.pool.stats.stolenChunks.Add(stolen)
	}
	if j.done.Add(claimed) == j.chunks {
		j.fin <- struct{}{}
	}
}

// offer is one invitation to join a job: the descriptor and the
// generation it was made for.
type offer struct {
	j   *job
	gen uint32
}

// acquire joins the job for a worker holding an offer of generation gen:
// it takes a reference unless the descriptor has been released (count 0)
// or recycled (another generation) since the offer was made.
func (j *job) acquire(gen uint32) bool {
	for {
		s := j.state.Load()
		if uint32(s>>32) != gen || uint32(s) == 0 {
			return false
		}
		if j.state.CompareAndSwap(s, s+1) {
			return true
		}
	}
}

// release drops one participant's reference; the last one clears the body
// fields (so a parked descriptor retains no closure or operand slices) and
// returns the descriptor to the pool's freelist. The count is at least 1,
// so the decrement never borrows from the generation.
func (j *job) release() {
	if uint32(j.state.Add(^uint64(0))) != 0 {
		return
	}
	j.run, j.body, j.kern, j.ops = nil, nil, nil, Operands{}
	p := j.pool
	p.freeMu.Lock()
	p.free = append(p.free, j)
	p.freeMu.Unlock()
}

// Pool is a set of persistent workers executing chunked parallel-for jobs.
// The zero value is not usable; use New or Default.
type Pool struct {
	jobs  chan offer
	limit atomic.Int32 // participants per job (workers + caller)

	// jobLat, when set, receives each parallel job's wall time (dispatch
	// to completion) — the pool-latency histogram the engine's telemetry
	// exports. Inline runs are not recorded: they have no dispatch cost,
	// and timing them would put two clock reads on the serial fast path.
	jobLat atomic.Pointer[obs.Histogram]

	mu      sync.Mutex
	spawned int // worker goroutines started so far

	// free recycles job descriptors. A plain mutex-guarded freelist rather
	// than sync.Pool, as nvme's xferPool: the working set is bounded by the
	// jobs in flight, and deterministic reuse keeps the allocation pins
	// exact (a GC never empties it).
	freeMu sync.Mutex
	free   []*job

	// closeOnce makes Close idempotent: the jobs channel is closed at
	// most once no matter how many owners tear the pool down.
	closeOnce sync.Once

	stats struct {
		jobs            atomic.Int64
		inlineRuns      atomic.Int64
		submitterChunks atomic.Int64
		workerChunks    atomic.Int64
		stolenChunks    atomic.Int64
	}
}

// Stats is a snapshot of a pool's scheduling counters: how much work was
// dispatched in parallel, how much ran inline on the caller, and how chunk
// stealing split between the submitting goroutine and the workers (the
// pool-utilization signal the metrics registry exports).
type Stats struct {
	// Jobs is the number of parallel-for jobs dispatched to workers.
	Jobs int64
	// InlineRuns counts invocations that ran entirely on the caller —
	// Limit() 1, a single chunk, or work under the ForWork serial cutoff.
	InlineRuns int64
	// SubmitterChunks and WorkerChunks split claimed chunks of parallel
	// jobs by who claimed them; their sum is the total chunk count.
	SubmitterChunks int64
	WorkerChunks    int64
	// StolenChunks counts chunks a participant claimed outside its own
	// segment. High values relative to the total mean chunk costs are
	// uneven (or the pool is oversubscribed) and affinity is being traded
	// for balance — the signal `ratelbench tune` uses to judge grain.
	StolenChunks int64
}

// Stats reads the pool's counters atomically enough for monitoring: each
// field is an atomic load, so sums are consistent once the pool is idle.
func (p *Pool) Stats() Stats {
	return Stats{
		Jobs:            p.stats.jobs.Load(),
		InlineRuns:      p.stats.inlineRuns.Load(),
		SubmitterChunks: p.stats.submitterChunks.Load(),
		WorkerChunks:    p.stats.workerChunks.Load(),
		StolenChunks:    p.stats.stolenChunks.Load(),
	}
}

// ResetStats zeroes the counters (benchmark hook: measure one region).
func (p *Pool) ResetStats() {
	p.stats.jobs.Store(0)
	p.stats.inlineRuns.Store(0)
	p.stats.submitterChunks.Store(0)
	p.stats.workerChunks.Store(0)
	p.stats.stolenChunks.Store(0)
}

// New creates a pool that runs jobs with up to workers participants
// (workers-1 background goroutines plus the submitting goroutine).
func New(workers int) *Pool {
	p := &Pool{jobs: make(chan offer, 128)}
	p.SetLimit(workers)
	return p
}

var (
	defaultOnce sync.Once
	defaultPool *Pool
)

// Default returns the process-wide pool, created on first use with
// RATEL_THREADS participants if set and valid, else runtime.GOMAXPROCS(0)
// — the scheduler's actual parallelism, which tracks CPU quotas and
// GOMAXPROCS overrides where raw runtime.NumCPU() would oversubscribe.
func Default() *Pool {
	defaultOnce.Do(func() {
		defaultPool = New(envWorkers(os.Getenv("RATEL_THREADS"), runtime.GOMAXPROCS(0)))
	})
	return defaultPool
}

// envWorkers parses a RATEL_THREADS value, falling back for empty, bad, or
// non-positive input.
func envWorkers(s string, fallback int) int {
	if n, err := strconv.Atoi(s); err == nil && n >= 1 {
		return n
	}
	return fallback
}

// SetLimit sets the number of participants per job, clamped to at least 1.
// The pool grows its worker set as needed; shrinking only lowers the
// participation limit (excess workers stay parked, costing nothing).
func (p *Pool) SetLimit(n int) {
	if n < 1 {
		n = 1
	}
	p.mu.Lock()
	for p.spawned < n-1 {
		// Spawn-order ids give each worker a stable preferred segment
		// ((id+1) mod the job's segment count), so worker k always starts
		// in the same region of every job — segment affinity across jobs.
		go func(id int) {
			for o := range p.jobs {
				if o.j.acquire(o.gen) {
					o.j.work(true, id, 0)
					o.j.release()
				}
			}
		}(p.spawned)
		p.spawned++
	}
	p.mu.Unlock()
	p.limit.Store(int32(n))
}

// Limit reports the current participants-per-job limit.
func (p *Pool) Limit() int { return int(p.limit.Load()) }

// Close retires the pool's workers: closing the jobs channel lets each
// parked worker finish any queued job and exit its range loop — the join
// edge the gojoin analyzer requires for the worker spawns in SetLimit.
// Close is idempotent and safe to call concurrently. The pool must be
// idle: Run after (or racing) Close panics on the closed channel. The
// process-wide Default pool lives for the whole process and is never
// closed.
func (p *Pool) Close() {
	p.closeOnce.Do(func() { close(p.jobs) })
}

// SetJobHistogram installs (or, with nil, removes) the histogram that
// receives each parallel job's wall time. Safe to call concurrently with
// Run; the record path is allocation-free.
func (p *Pool) SetJobHistogram(h *obs.Histogram) { p.jobLat.Store(h) }

// Run executes run(0..chunks-1), each chunk exactly once, sharding chunks
// across up to Limit() participants. It returns when every chunk has
// finished. Chunks must be independent: they may run concurrently and in
// any order. With Limit() <= 1 or a single chunk the caller runs everything
// inline with no synchronization.
func (p *Pool) Run(chunks int, run func(chunk int)) {
	if chunks <= 0 {
		return
	}
	lim := p.Limit()
	if lim <= 1 || chunks == 1 {
		p.stats.inlineRuns.Add(1)
		for i := 0; i < chunks; i++ {
			run(i)
		}
		return
	}
	j := p.getJob(chunks, lim)
	j.run = run
	p.dispatch(j, lim)
}

// For splits [0,n) into contiguous chunks of at least grain elements and
// runs body(lo, hi) for each, in parallel. The partition is a pure
// function of (n, grain, Limit()), so within a fixed parallelism setting
// every call over the same range is carved identically — re-running a
// kernel reproduces its chunk boundaries exactly.
func (p *Pool) For(n, grain int, body func(lo, hi int)) {
	p.forRange(n, grain, body, nil, Operands{})
}

// ForKernel is For for a non-capturing kernel: it carves [0,n) exactly as
// For does and runs kern(ops, lo, hi) for each chunk. ops is copied into
// the recycled job descriptor, so the call allocates nothing.
func (p *Pool) ForKernel(n, grain int, ops Operands, kern Kernel) {
	p.forRange(n, grain, nil, kern, ops)
}

// forRange is For and ForKernel: exactly one of body and kern is set.
func (p *Pool) forRange(n, grain int, body func(lo, hi int), kern Kernel, ops Operands) {
	if n <= 0 {
		return
	}
	lim := p.Limit()
	span, chunks := carve(n, grain, lim)
	if lim <= 1 || chunks == 1 {
		p.stats.inlineRuns.Add(1)
		for lo := 0; lo < n; lo += span {
			if kern != nil {
				kern(ops, lo, min(lo+span, n))
			} else {
				body(lo, min(lo+span, n))
			}
		}
		return
	}
	j := p.getJob(chunks, lim)
	j.body, j.kern, j.ops, j.n, j.span = body, kern, ops, n, span
	p.dispatch(j, lim)
}

// carve is For's partition of [0,n): ~4 chunks per participant — enough
// slack for stealing to balance uneven chunk costs without drowning in
// scheduling overhead — and never fewer than grain elements per chunk.
func carve(n, grain, lim int) (span, chunks int) {
	if grain < 1 {
		grain = 1
	}
	span = (n + 4*lim - 1) / (4 * lim)
	if span < grain {
		span = grain
	}
	return span, (n + span - 1) / span
}

// getJob takes a descriptor from the freelist (or makes one) and sets it
// up for chunks chunks at lim participants, held by the submitter alone.
func (p *Pool) getJob(chunks, lim int) *job {
	var j *job
	p.freeMu.Lock()
	if k := len(p.free); k > 0 {
		j = p.free[k-1]
		p.free[k-1] = nil
		p.free = p.free[:k-1]
	}
	p.freeMu.Unlock()
	if j == nil {
		j = &job{fin: make(chan struct{}, 1), pool: p}
	}
	segs := min(lim, chunks, maxSegs)
	j.done.Store(0)
	j.chunks = int64(chunks)
	j.segs = segs
	j.segLen = (int64(chunks) + int64(segs) - 1) / int64(segs)
	// The submitter claims its own segment's first chunk before any worker
	// can see the job, so it always takes part in it — even when the workers
	// would otherwise drain every chunk before the submitter gets to run.
	j.cursors[0].c.Store(1)
	for s := 1; s < segs; s++ {
		j.cursors[s].c.Store(0)
	}
	// Publish the set-up under a new generation, held by the submitter.
	j.state.Store((j.state.Load()>>32+1)<<32 | 1)
	return j
}

// dispatch offers j to up to lim-1 workers, runs its reserved first chunk
// and the rest of its share on the caller, waits for completion and drops
// the submitter's reference.
func (p *Pool) dispatch(j *job, lim int) {
	p.stats.jobs.Add(1)
	lat := p.jobLat.Load()
	var latStart time.Time
	if lat != nil {
		latStart = time.Now()
	}
	o := offer{j: j, gen: uint32(j.state.Load() >> 32)}
	offers := min(lim-1, int(j.chunks)-1)
	for i := 0; i < offers; i++ {
		select {
		case p.jobs <- o:
		default:
			// Pool saturated with other jobs; the caller still completes
			// this one alone rather than blocking.
			i = offers
		}
	}
	j.exec(0)
	j.work(false, 0, 1)
	<-j.fin
	if lat != nil {
		lat.RecordDuration(time.Since(latStart))
	}
	j.release()
}

// Run is Default().Run.
func Run(chunks int, run func(chunk int)) { Default().Run(chunks, run) }

// For is Default().For.
func For(n, grain int, body func(lo, hi int)) { Default().For(n, grain, body) }

// SerialCutoff is the estimated scalar-op count below which ForWork runs
// its body inline: a job this small finishes faster than its dispatch.
const SerialCutoff = 1 << 17

// ForWork shards [0,n) like For when the caller's estimated work (in
// scalar ops) justifies parallel dispatch, and otherwise runs body(0, n)
// inline on the calling goroutine — the hot-path entry every kernel uses.
func ForWork(n, grain int, work int64, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	p := Default()
	if work < SerialCutoff || p.Limit() <= 1 {
		p.stats.inlineRuns.Add(1)
		body(0, n)
		return
	}
	p.For(n, grain, body)
}

// ForWorkKernel is ForWork for a non-capturing kernel: kern(ops, 0, n)
// inline under the serial cutoff or at Limit() 1, ForKernel otherwise.
// Allocation-free on both paths.
func ForWorkKernel(n, grain int, work int64, ops Operands, kern Kernel) {
	if n <= 0 {
		return
	}
	p := Default()
	if work < SerialCutoff || p.Limit() <= 1 {
		p.stats.inlineRuns.Add(1)
		kern(ops, 0, n)
		return
	}
	p.ForKernel(n, grain, ops, kern)
}

// InlineWork reports whether a job with the given estimated work (in
// scalar ops) would run inline on the caller, recording it as an inline run
// when so. Hot kernels call this BEFORE constructing their parallel-for
// closure: a func literal passed to ForWork escapes to the heap, so on the
// serial path — tiny tensors, or Limit() 1 — branching first lets the
// kernel run a named panel function directly and allocate nothing. The
// parallel branch then calls ForWork and pays one allocation, the closure
// itself (the job descriptor is recycled). A kernel whose operands fit
// Operands uses ForWorkKernel instead and pays nothing on either path.
func InlineWork(work int64) bool {
	p := Default()
	if work < SerialCutoff || p.Limit() <= 1 {
		p.stats.inlineRuns.Add(1)
		return true
	}
	return false
}

// DefaultStats is Default().Stats.
func DefaultStats() Stats { return Default().Stats() }
