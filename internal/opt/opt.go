// Package opt implements the optimizer side of the paper's model-state
// management: mixed-precision Adam with fp32 master weights and moments
// (P32 + OS32, Table II), and an out-of-core variant that streams each
// parameter group's state through a storage backend — the CPU optimizer
// that active gradient offloading (§IV-C) drives.
//
// The out-of-core optimizer is exactly equivalent to the in-memory one for
// any chunking: state round-trips through storage as raw little-endian
// float32, and gradients are consumed in fp16 (G16) in both paths.
package opt

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"ratel/internal/nn"
	"ratel/internal/nvme"
	"ratel/internal/obs"
	"ratel/internal/tensor"
	"ratel/internal/tensor/pool"
)

// AdamConfig holds the Adam hyperparameters. A non-zero WeightDecay selects
// decoupled weight decay (AdamW), the variant commonly used for LLM
// fine-tuning.
type AdamConfig struct {
	LR          float64
	Beta1       float64
	Beta2       float64
	Eps         float64
	WeightDecay float64
}

// DefaultAdam is the conventional Adam configuration used for LLM
// fine-tuning.
func DefaultAdam() AdamConfig {
	return AdamConfig{LR: 1e-3, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
}

// AdamStep applies one bias-corrected Adam update to p32 in place, with
// step t (1-based) and moments m, v. The gradient is consumed as given
// (the engine rounds it to fp16 before handing it over: G16).
//
// Elements update independently, so the slice is cut into chunks sharded
// across the worker pool — the paper's multi-threaded CPU optimizer
// (§IV-C). Results are bit-identical at any thread count.
func AdamStep(cfg AdamConfig, t int, p32, m, v, grad []float32) error {
	if len(p32) != len(m) || len(p32) != len(v) || len(p32) != len(grad) {
		return fmt.Errorf("opt: mismatched state sizes %d/%d/%d/%d", len(p32), len(m), len(v), len(grad))
	}
	if t < 1 {
		return fmt.Errorf("opt: step %d, want >= 1", t)
	}
	b1c := 1 - math.Pow(cfg.Beta1, float64(t))
	b2c := 1 - math.Pow(cfg.Beta2, float64(t))
	// ~20 scalar ops per element (sqrt included).
	work := 20 * int64(len(p32))
	if pool.InlineWork(work) {
		adamChunk(cfg, b1c, b2c, p32, m, v, grad)
		return nil
	}
	pool.ForWork(len(p32), adamChunkGrain, work, func(lo, hi int) {
		adamChunk(cfg, b1c, b2c, p32[lo:hi], m[lo:hi], v[lo:hi], grad[lo:hi])
	})
	return nil
}

// adamChunkGrain is the minimum parameters per pool chunk: small enough to
// load-balance, large enough that chunk dispatch is noise next to the
// floating-point work.
const adamChunkGrain = 8192

// adamChunk is the serial Adam kernel over one contiguous chunk of state.
func adamChunk(cfg AdamConfig, b1c, b2c float64, p32, m, v, grad []float32) {
	for i := range p32 {
		g := float64(grad[i])
		mi := cfg.Beta1*float64(m[i]) + (1-cfg.Beta1)*g
		vi := cfg.Beta2*float64(v[i]) + (1-cfg.Beta2)*g*g
		m[i], v[i] = float32(mi), float32(vi)
		mhat := mi / b1c
		vhat := vi / b2c
		p := float64(p32[i])
		p -= cfg.LR * mhat / (math.Sqrt(vhat) + cfg.Eps)
		if cfg.WeightDecay != 0 {
			p -= cfg.LR * cfg.WeightDecay * float64(p32[i])
		}
		p32[i] = float32(p)
	}
}

// Store is the storage the out-of-core optimizer streams model states
// through; *nvme.Array satisfies it. Every transfer carries its traffic
// class, so the optimizer's state streams keep their true priority on the
// NVMe transfer scheduler: reads ahead of the Adam sweep are
// latency-sensitive (ClassOptRead), state write-backs are not
// (ClassWriteback). PutClass must not retain data after it returns — the
// optimizer encodes into reusable scratch buffers. ReadIntoClass fills dst,
// which must be exactly the stored object's size.
type Store interface {
	PutClass(key string, data []byte, class nvme.Class) error
	ReadIntoClass(key string, dst []byte, class nvme.Class) error
}

// MemStore is an in-memory Store for tests and the in-memory reference
// optimizer. It has no scheduler, so it ignores traffic classes.
type MemStore map[string][]byte

// PutClass stores a copy of data.
func (s MemStore) PutClass(key string, data []byte, _ nvme.Class) error {
	s[key] = append([]byte(nil), data...)
	return nil
}

// ReadIntoClass copies the stored bytes into dst, which must have the
// object's exact size.
func (s MemStore) ReadIntoClass(key string, dst []byte, _ nvme.Class) error {
	b, ok := s[key]
	if !ok {
		return fmt.Errorf("opt: memstore: missing %q", key)
	}
	if len(dst) != len(b) {
		return fmt.Errorf("opt: memstore: read %q: dst %d bytes, object %d", key, len(dst), len(b))
	}
	copy(dst, b)
	return nil
}

// OutOfCoreAdam keeps fp32 master weights and Adam moments in a Store and
// updates one parameter group at a time — the paper's CPU optimizer
// operating on model states homed on NVMe.
type OutOfCoreAdam struct {
	cfg       AdamConfig
	store     Store
	prefix    string
	step      int
	gradScale float64 // loss-scale divisor; 0 or 1 means unscaled
	clipNorm  float64 // per-group L2 clip; 0 disables

	tracer     *obs.Tracer       // optional: records per-chunk Adam spans
	flows      *obs.FlowLedger   // optional: per-edge/purpose byte accounting
	adamLabels map[string]string // group -> "group/opt-adam", precomputed
	keys       map[string]groupKeys

	// scr and grad are the UpdateGroup scratch: state and gradient staging
	// plus the byte codec buffer, sized to the largest group seen and reused
	// for the optimizer's lifetime. scrMu serializes UpdateGroup — the
	// engine's pipeline runs group updates on one worker, so the lock is
	// uncontended and exists only to keep concurrent misuse safe.
	scrMu sync.Mutex
	scr   stateScratch
	grad  []float32

	kernelParams atomic.Int64 // params the Adam kernel has updated
	kernelNanos  atomic.Int64 // wall-clock spent inside the Adam kernel
}

// stateScratch is one updater's working set for a group's state round-trip:
// the decoded fp32 masters and moments and the byte codec buffer they stream
// through. The synchronous optimizer and the async applier each own one, so
// a background apply never contends with an in-step update.
type stateScratch struct {
	p32, m, v []float32
	enc       []byte
}

// encBuf returns the codec buffer sized for n fp32 values, growing it when
// the group is larger than any seen before.
func (s *stateScratch) encBuf(n int) []byte {
	if cap(s.enc) < 4*n {
		s.enc = make([]byte, 4*n)
	}
	return s.enc[:4*n]
}

// groupKeys are a group's precomputed store keys (the hot path must not
// Sprintf per transfer).
type groupKeys struct {
	p32, m, v string
}

// KernelStats reports cumulative CPU-optimizer kernel work: parameters
// updated and wall-clock spent in the Adam kernel (excluding state
// streaming). Their quotient is the live Adam params/s rate the metrics
// registry exports and the calibration report compares against
// agoffload.MeasureAdamRate.
func (o *OutOfCoreAdam) KernelStats() (params int64, busy time.Duration) {
	return o.kernelParams.Load(), time.Duration(o.kernelNanos.Load())
}

// SetTracer installs a wall-clock span tracer: every UpdateGroup records
// one span per parameter group (the paper's per-tensor optimizer chunk) on
// obs.LaneAdam around the Adam kernel, named after the simulator's
// "<group>/opt-adam" task labels so measured and simulated timelines join
// by name. Call before training starts.
func (o *OutOfCoreAdam) SetTracer(tr *obs.Tracer) { o.tracer = tr }

// SetFlowLedger installs a byte-flow ledger: every UpdateGroup credits
// its gradient staging (fp16 wire bytes, compute→host), its fp16
// parameter install (host→compute), and the fp32 codec traffic of the
// state stream (3 tensors each way). The host↔NVMe bytes themselves are
// accounted by the store (nvme.Array.SetObservers), not here — the two
// views reconcile because the optimizer streams state through the store
// uncompressed. Call before training starts; updates are allocation-free.
func (o *OutOfCoreAdam) SetFlowLedger(l *obs.FlowLedger) { o.flows = l }

// adamLabel returns the group's precomputed span label (built at InitGroup
// so the UpdateGroup hot path never concatenates).
func (o *OutOfCoreAdam) adamLabel(group string) string {
	if l, ok := o.adamLabels[group]; ok {
		return l
	}
	return group
}

// SetClipNorm enables per-group gradient clipping: each parameter group's
// gradient is rescaled so its L2 norm does not exceed n. Note this is
// per-GROUP clipping, not global-norm clipping — the global norm is only
// known once every gradient has arrived, which is exactly the serialization
// active gradient offloading exists to avoid.
func (o *OutOfCoreAdam) SetClipNorm(n float64) error {
	if n < 0 {
		return fmt.Errorf("opt: negative clip norm %v", n)
	}
	o.clipNorm = n
	return nil
}

// NewOutOfCoreAdam creates an optimizer over the given store. prefix
// namespaces its keys.
func NewOutOfCoreAdam(store Store, cfg AdamConfig, prefix string) *OutOfCoreAdam {
	return &OutOfCoreAdam{cfg: cfg, store: store, prefix: prefix}
}

// Step reports the number of completed optimizer steps.
func (o *OutOfCoreAdam) Step() int { return o.step }

func (o *OutOfCoreAdam) key(group, kind string) string {
	return o.prefix + "/" + group + "/" + kind
}

// groupKeysFor returns the group's precomputed keys, building and caching
// them on first use.
func (o *OutOfCoreAdam) groupKeysFor(group string) groupKeys {
	if ks, ok := o.keys[group]; ok {
		return ks
	}
	if o.keys == nil {
		o.keys = make(map[string]groupKeys)
	}
	ks := groupKeys{
		p32: o.key(group, "p32"),
		m:   o.key(group, "m"),
		v:   o.key(group, "v"),
	}
	o.keys[group] = ks
	return ks
}

// InitGroup seeds the store with the group's fp32 masters (from the current
// working weights) and zero moments, and rounds the working weights to fp16
// (the P16 copies the GPU computes with). State flattens and encodes through
// the optimizer's scratch buffers — the same ones UpdateGroup streams
// through — so initialization warms them to the largest group's size
// instead of allocating per call.
func (o *OutOfCoreAdam) InitGroup(g nn.ParamGroup) error {
	if o.adamLabels == nil {
		o.adamLabels = make(map[string]string)
	}
	o.adamLabels[g.Name] = g.Name + "/opt-adam"
	ks := o.groupKeysFor(g.Name) // precompute store keys off the hot path
	o.scrMu.Lock()
	defer o.scrMu.Unlock()
	n := g.NumParams()
	flat := scrF32(&o.scr.p32, n)
	off := 0
	for _, p := range g.Params {
		off += copy(flat[off:], p.W.Data)
	}
	buf := o.scr.encBuf(n)
	if err := o.saveFP32(buf, ks.p32, flat); err != nil {
		return fmt.Errorf("opt: init %s: %w", g.Name, err)
	}
	zero := scrF32(&o.scr.m, n)
	for i := range zero {
		zero[i] = 0
	}
	if err := o.saveFP32(buf, ks.m, zero); err != nil {
		return fmt.Errorf("opt: init %s: %w", g.Name, err)
	}
	if err := o.saveFP32(buf, ks.v, zero); err != nil {
		return fmt.Errorf("opt: init %s: %w", g.Name, err)
	}
	for _, p := range g.Params {
		p.W.RoundFP16InPlace()
	}
	return nil
}

// BeginStep advances the optimizer step counter; call once per training
// iteration before the group updates.
func (o *OutOfCoreAdam) BeginStep() { o.step++ }

// UpdateGroup is the active-gradient-offloading handler body: it consumes
// the group's gradients (rounded to fp16, as they arrive over PCIe),
// streams P32+OS32 in from the store, applies Adam, streams the updated
// state back, and installs the new fp16 working weights.
func (o *OutOfCoreAdam) UpdateGroup(g nn.ParamGroup) error {
	return o.applyGroup(g, nil)
}

// applyGroup runs one group update. wire, when non-nil, supplies the state
// bytes (prefetched); nil streams them from the store inline.
func (o *OutOfCoreAdam) applyGroup(g nn.ParamGroup, wire *stateWire) error {
	if o.step < 1 {
		return fmt.Errorf("opt: UpdateGroup(%s) before BeginStep", g.Name)
	}
	o.scrMu.Lock()
	defer o.scrMu.Unlock()
	n := g.NumParams()
	grad := scrF32(&o.grad, n)
	if err := o.stageGrad(grad, g); err != nil {
		return err
	}
	p32, err := o.roundTrip(&o.scr, g.Name, o.groupKeysFor(g.Name), o.adamLabel(g.Name), wire, grad, o.step, o.cfg)
	if err != nil {
		return err
	}
	// Install P16 = fp16(P32) working copies through the chunked round
	// kernel (bit-identical to the scalar loop per element).
	off := 0
	for _, p := range g.Params {
		if err := tensor.RoundFP16Into(p.W.Data, p32[off:off+len(p.W.Data)]); err != nil {
			return fmt.Errorf("opt: install %s: %w", g.Name, err)
		}
		off += len(p.W.Data)
	}
	// Fresh fp16 working weights cross back to the compute tier.
	o.flows.Add(obs.EdgeComputeHost, obs.FlowParams, int64(2*n))
	return nil
}

// stageGrad carries g's gradient across the G16 boundary into dst
// (g.NumParams() values): each value crosses PCIe in fp16 at loss-scaled
// magnitude, is unscaled in fp32, and the group is clipped to the per-group
// norm. The synchronous handler and the async stage both come through here,
// so a deferred gradient is bit-identical to the one an in-step update
// would have consumed.
func (o *OutOfCoreAdam) stageGrad(dst []float32, g nn.ParamGroup) error {
	inv := 1.0
	if o.gradScale > 0 {
		inv = 1 / o.gradScale
	}
	idx := 0
	for _, p := range g.Params {
		if inv == 1 {
			// Unscaled: stage through the chunked fp16 round kernel
			// (vectorized where available, bit-identical to the scalar path
			// per element).
			if err := tensor.RoundFP16Into(dst[idx:idx+len(p.G.Data)], p.G.Data); err != nil {
				return fmt.Errorf("opt: stage grad %s: %w", g.Name, err)
			}
			idx += len(p.G.Data)
			continue
		}
		for _, gv := range p.G.Data {
			// The unscale multiply is float64 — a float32 vector multiply
			// would change bits, so the scaled path stays scalar.
			dst[idx] = float32(float64(tensor.RoundFP16(gv)) * inv)
			idx++
		}
	}
	// Gradients crossed the compute→host boundary in fp16 (G16).
	o.flows.Add(obs.EdgeComputeHost, obs.FlowGrads, int64(2*len(dst)))
	if o.clipNorm > 0 {
		var sq float64
		for _, gv := range dst {
			sq += float64(gv) * float64(gv)
		}
		if norm := math.Sqrt(sq); norm > o.clipNorm {
			scale := float32(o.clipNorm / norm)
			for i := range dst {
				dst[i] *= scale
			}
		}
	}
	return nil
}

// roundTrip runs one group's Adam update against the store through scr:
// P32+OS32 are decoded from wire when the readiness prefetcher already read
// them (nil loads them inline), AdamStep applies grad at step t with cfg
// under a label span on obs.LaneAdam, and the updated state is written
// back. It returns the new fp32 masters (scr's slice) for the caller to
// install. The synchronous handler passes the optimizer's live step and
// hyperparameters; the async applier passes the ones captured at stage time.
func (o *OutOfCoreAdam) roundTrip(scr *stateScratch, name string, ks groupKeys, label string, wire *stateWire, grad []float32, t int, cfg AdamConfig) ([]float32, error) {
	n := len(grad)
	p32 := scrF32(&scr.p32, n)
	m := scrF32(&scr.m, n)
	v := scrF32(&scr.v, n)
	buf := scr.encBuf(n)
	if wire != nil {
		if err := decodeWire(wire.p32, p32, name, "p32"); err != nil {
			return nil, err
		}
		if err := decodeWire(wire.m, m, name, "m"); err != nil {
			return nil, err
		}
		if err := decodeWire(wire.v, v, name, "v"); err != nil {
			return nil, err
		}
	} else {
		if err := o.loadFP32Into(p32, buf, ks.p32, name, "p32"); err != nil {
			return nil, err
		}
		if err := o.loadFP32Into(m, buf, ks.m, name, "m"); err != nil {
			return nil, err
		}
		if err := o.loadFP32Into(v, buf, ks.v, name, "v"); err != nil {
			return nil, err
		}
	}
	// Three fp32 state tensors decoded from their wire form (P32, M, V).
	o.flows.Add(obs.EdgeCodecDecode, obs.FlowOptState, int64(3*4*n))
	sp := o.tracer.StartSpan(obs.LaneAdam, label)
	kernelStart := time.Now()
	if err := AdamStep(cfg, t, p32, m, v, grad); err != nil {
		sp.End()
		return nil, fmt.Errorf("opt: update %s: %w", name, err)
	}
	o.kernelNanos.Add(time.Since(kernelStart).Nanoseconds())
	o.kernelParams.Add(int64(n))
	sp.End()
	if err := o.saveFP32(buf, ks.p32, p32); err != nil {
		return nil, err
	}
	if err := o.saveFP32(buf, ks.m, m); err != nil {
		return nil, err
	}
	if err := o.saveFP32(buf, ks.v, v); err != nil {
		return nil, err
	}
	// Three fp32 state tensors re-encoded to their wire form.
	o.flows.Add(obs.EdgeCodecEncode, obs.FlowOptState, int64(3*4*n))
	return p32, nil
}

// scrF32 returns a scratch slice of length n backed by *s, growing the
// backing array when the group is larger than any seen before. Contents are
// unspecified; every caller fully overwrites its slice.
func scrF32(s *[]float32, n int) []float32 {
	if cap(*s) < n {
		*s = make([]float32, n)
	}
	return (*s)[:n]
}

// decodeWire decodes one prefetched state tensor from its wire bytes.
func decodeWire(src []byte, dst []float32, group, kind string) error {
	if err := tensor.FromFP32Bytes(src, dst); err != nil {
		return fmt.Errorf("opt: decode prefetched %s/%s: %w", group, kind, err)
	}
	return nil
}

// loadFP32Into streams one state tensor into dst through buf, the shared
// byte staging buffer (exactly 4*len(dst) bytes).
func (o *OutOfCoreAdam) loadFP32Into(dst []float32, buf []byte, key, group, kind string) error {
	if err := o.store.ReadIntoClass(key, buf, nvme.ClassOptRead); err != nil {
		return fmt.Errorf("opt: load %s/%s: %w", group, kind, err)
	}
	if err := tensor.FromFP32Bytes(buf, dst); err != nil {
		return fmt.Errorf("opt: decode %s/%s: %w", group, kind, err)
	}
	return nil
}

// saveFP32 encodes vals into buf and writes it back to the store. Safe
// because Store.PutClass must not retain its argument.
func (o *OutOfCoreAdam) saveFP32(buf []byte, key string, vals []float32) error {
	if err := tensor.ToFP32BytesInto(buf, vals); err != nil {
		return err
	}
	return o.store.PutClass(key, buf, nvme.ClassWriteback)
}

// MasterWeights returns the group's current fp32 masters (a copy), for
// checkpointing and tests.
func (o *OutOfCoreAdam) MasterWeights(group string, n int) ([]float32, error) {
	return o.loadFP32(group, "p32", n)
}

// GroupState is the full optimizer state of one parameter group: fp32
// masters and Adam moments (P32 + OS32, Table II).
type GroupState struct {
	P32, M, V []float32
}

// ExportGroup extracts a group's state for checkpointing.
func (o *OutOfCoreAdam) ExportGroup(group string, n int) (GroupState, error) {
	var st GroupState
	var err error
	if st.P32, err = o.loadFP32(group, "p32", n); err != nil {
		return GroupState{}, err
	}
	if st.M, err = o.loadFP32(group, "m", n); err != nil {
		return GroupState{}, err
	}
	if st.V, err = o.loadFP32(group, "v", n); err != nil {
		return GroupState{}, err
	}
	return st, nil
}

// ImportGroup restores a group's state from a checkpoint and installs the
// fp16 working weights into the group's tensors.
func (o *OutOfCoreAdam) ImportGroup(g nn.ParamGroup, st GroupState) error {
	n := g.NumParams()
	if len(st.P32) != n || len(st.M) != n || len(st.V) != n {
		return fmt.Errorf("opt: import %s: state sizes %d/%d/%d for %d params",
			g.Name, len(st.P32), len(st.M), len(st.V), n)
	}
	ks := o.groupKeysFor(g.Name)
	o.scrMu.Lock()
	defer o.scrMu.Unlock()
	buf := o.scr.encBuf(n)
	if err := o.saveFP32(buf, ks.p32, st.P32); err != nil {
		return fmt.Errorf("opt: import %s: %w", g.Name, err)
	}
	if err := o.saveFP32(buf, ks.m, st.M); err != nil {
		return fmt.Errorf("opt: import %s: %w", g.Name, err)
	}
	if err := o.saveFP32(buf, ks.v, st.V); err != nil {
		return fmt.Errorf("opt: import %s: %w", g.Name, err)
	}
	off := 0
	for _, p := range g.Params {
		if err := tensor.RoundFP16Into(p.W.Data, st.P32[off:off+len(p.W.Data)]); err != nil {
			return fmt.Errorf("opt: import %s: %w", g.Name, err)
		}
		off += len(p.W.Data)
	}
	return nil
}

// SetStep restores the optimizer step counter from a checkpoint.
func (o *OutOfCoreAdam) SetStep(step int) error {
	if step < 0 {
		return fmt.Errorf("opt: negative step %d", step)
	}
	o.step = step
	return nil
}

// loadFP32 returns one state tensor as a fresh caller-owned slice. It
// streams through the persistent scratch under scrMu exactly like
// UpdateGroup — the only allocation is the result itself, so checkpoint and
// export traffic stays off the steady-state alloc budget.
func (o *OutOfCoreAdam) loadFP32(group, kind string, n int) ([]float32, error) {
	out := make([]float32, n)
	o.scrMu.Lock()
	defer o.scrMu.Unlock()
	if err := o.loadFP32Into(out, o.scr.encBuf(n), o.key(group, kind), group, kind); err != nil {
		return nil, err
	}
	return out, nil
}
