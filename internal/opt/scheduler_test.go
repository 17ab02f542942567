package opt

import (
	"strings"
	"sync"
	"testing"

	"ratel/internal/nn"
	"ratel/internal/nvme"
)

// lockedStore guards a MemStore with a mutex for the readiness and async
// scheduler tests: their background goroutines require a concurrency-safe
// Store (nvme.Array in the engine), and the bare test map is not one.
type lockedStore struct {
	mu sync.Mutex
	m  MemStore
}

func (s *lockedStore) PutClass(key string, data []byte, class nvme.Class) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m.PutClass(key, data, class)
}

func (s *lockedStore) ReadIntoClass(key string, dst []byte, class nvme.Class) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m.ReadIntoClass(key, dst, class)
}

func TestScheduleModeParse(t *testing.T) {
	for _, m := range []ScheduleMode{ScheduleSync, ScheduleReadiness, ScheduleAsync} {
		got, err := ParseScheduleMode(m.String())
		if err != nil || got != m {
			t.Errorf("ParseScheduleMode(%q) = %v, %v", m.String(), got, err)
		}
	}
	if _, err := ParseScheduleMode("eventually"); err == nil {
		t.Error("unknown mode accepted")
	}
}

// TestPrefetcherBitIdentity: consuming state through the readiness
// schedule produces bit-identical parameters to the sync schedule — the
// prefetcher only changes when the bytes are fetched, not what the update
// computes.
func TestPrefetcherBitIdentity(t *testing.T) {
	modelSync := buildModel(t)
	modelPref := buildModel(t)
	sync, ss := newStoreOptimizer(t, modelSync, MemStore{}, ScheduleSync)
	pref, ps := newStoreOptimizer(t, modelPref, &lockedStore{m: MemStore{}}, ScheduleReadiness)
	groups := modelPref.ParamGroups()

	for step := 1; step <= 3; step++ {
		setGrads(modelSync, int64(step))
		setGrads(modelPref, int64(step))
		schedStep(t, sync, ss, modelSync.ParamGroups())
		// Every fetch launches at arrival and is consumed after the last
		// one: the reads run ahead of the updates, depth-bounded.
		schedStep(t, pref, ps, groups)
		if n := ps.StepStats().PrefetchedReads; n != len(groups) {
			t.Fatalf("step %d: %d prefetched reads, want %d", step, n, len(groups))
		}
	}

	a, b := modelSync.Params(), modelPref.Params()
	for i := range a {
		for j := range a[i].W.Data {
			if a[i].W.Data[j] != b[i].W.Data[j] {
				t.Fatalf("param %d[%d]: sync %v vs prefetched %v", i, j, a[i].W.Data[j], b[i].W.Data[j])
			}
		}
	}
}

// TestPrefetcherFallback: Update without a prior Arrive falls back to the
// synchronous load, an abandoned read is reclaimed by EndStep (the depth-1
// window is free again for the next step), and Close is idempotent.
func TestPrefetcherFallback(t *testing.T) {
	m := buildModel(t)
	o := NewOutOfCoreAdam(&lockedStore{m: MemStore{}}, DefaultAdam(), "x")
	groups := m.ParamGroups()
	for _, g := range groups {
		if err := o.InitGroup(g); err != nil {
			t.Fatal(err)
		}
	}
	s, err := NewScheduler(o, groups, ScheduleReadiness, 1, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	setGrads(m, 1)
	o.BeginStep()
	if err := s.BeginStep(); err != nil {
		t.Fatal(err)
	}
	if err := s.Update(groups[0]); err != nil { // no Arrive: sync fallback
		t.Fatal(err)
	}
	// Abandoned: a failed step never consumes it.
	if _, err := s.Arrive(groups[1]); err != nil {
		t.Fatal(err)
	}
	if err := s.EndStep(false); err != nil {
		t.Fatal(err)
	}
	trainSteps(t, m, o, s, 2, 2)
	s.Close()
	s.Close() // idempotent
}

// TestAsyncApplierMatchesSync: with the tail groups deferred to the
// background applier and every deferred update flushed at the end, the
// weights and masters are bit-identical to the sync schedule — deferral
// changes when an update runs, not what it computes (the gradients here do
// not depend on the weights, so the staleness cannot show).
func TestAsyncApplierMatchesSync(t *testing.T) {
	modelSync := buildModel(t)
	modelAsync := buildModel(t)
	sync, ss := newStoreOptimizer(t, modelSync, MemStore{}, ScheduleSync)
	async := NewOutOfCoreAdam(&lockedStore{m: MemStore{}}, DefaultAdam(), "s")
	groups := modelAsync.ParamGroups()
	for _, g := range groups {
		if err := async.InitGroup(g); err != nil {
			t.Fatal(err)
		}
	}
	as, err := NewScheduler(async, groups, ScheduleAsync, 1, 1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer as.Close()

	deferred := 0
	for step := 1; step <= 4; step++ {
		trainSteps(t, modelSync, sync, ss, step, step)
		trainSteps(t, modelAsync, async, as, step, step)
		deferred += as.StepStats().DeferredGroups
	}
	if deferred == 0 {
		t.Fatal("async schedule deferred no update")
	}
	if err := as.Flush(); err != nil {
		t.Fatal(err)
	}

	pa, pb := modelSync.Params(), modelAsync.Params()
	for i := range pa {
		for j := range pa[i].W.Data {
			if pa[i].W.Data[j] != pb[i].W.Data[j] {
				t.Fatalf("param %d[%d]: sync %v vs deferred %v", i, j, pa[i].W.Data[j], pb[i].W.Data[j])
			}
		}
	}
	for _, g := range groups {
		want, err := sync.MasterWeights(g.Name, g.NumParams())
		if err != nil {
			t.Fatal(err)
		}
		got, err := async.MasterWeights(g.Name, g.NumParams())
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("%s master %d: sync %v vs deferred %v", g.Name, i, want[i], got[i])
			}
		}
	}
}

// newAsyncScheduler seeds an optimizer over a concurrency-safe store with
// m's groups and builds a top-1 async scheduler at staleness 1 with the
// given importance cadence.
func newAsyncScheduler(t *testing.T, m *nn.Model, store *lockedStore, every int) (*OutOfCoreAdam, *Scheduler) {
	t.Helper()
	o := NewOutOfCoreAdam(store, DefaultAdam(), "x")
	groups := m.ParamGroups()
	for _, g := range groups {
		if err := o.InitGroup(g); err != nil {
			t.Fatal(err)
		}
	}
	s, err := NewScheduler(o, groups, ScheduleAsync, 1, 1, 1, every)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return o, s
}

// tailGroup returns the index of a group outside s's important partition.
func tailGroup(t *testing.T, s *Scheduler) int {
	t.Helper()
	for i := range s.slots {
		if !s.slots[i].important {
			return i
		}
	}
	t.Fatal("every group is important")
	return -1
}

// TestAsyncApplierFault: a store failure inside the background apply
// surfaces from Flush, leaves the group's working weights untouched, and
// frees the slot for reuse.
func TestAsyncApplierFault(t *testing.T) {
	m := buildModel(t)
	store := &lockedStore{m: MemStore{}}
	o, s := newAsyncScheduler(t, m, store, 0)
	groups := m.ParamGroups()
	trainSteps(t, m, o, s, 1, 1) // commits the first partition
	i := tailGroup(t, s)
	g := groups[i]
	before := append([]float32(nil), g.Params[0].W.Data...)
	store.mu.Lock()
	delete(store.m, o.key(g.Name, "m")) // media failure stand-in
	store.mu.Unlock()

	trainSteps(t, m, o, s, 2, 2) // defers the tail, whose apply fails
	if s.StepStats().DeferredGroups == 0 {
		t.Fatal("step 2 deferred nothing")
	}
	err := s.Flush()
	if err == nil || !strings.Contains(err.Error(), "missing") {
		t.Fatalf("Flush after store fault = %v, want missing-object error", err)
	}
	if s.slots[i].pending {
		t.Fatal("slot still pending after failed Flush")
	}
	for j, v := range g.Params[0].W.Data {
		if v != before[j] {
			t.Fatal("failed apply modified working weights")
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatalf("second Flush = %v, want nil (the failure was already reported)", err)
	}
}

// TestStageDeferredErrors: an unknown schedule is rejected at construction,
// and a tail group arriving while the optimizer has no open step (restored
// to step 0 here) is refused instead of staging an update at step 0.
func TestStageDeferredErrors(t *testing.T) {
	m := buildModel(t)
	o, s := newAsyncScheduler(t, m, &lockedStore{m: MemStore{}}, 0)
	groups := m.ParamGroups()
	if _, err := NewScheduler(o, groups, ScheduleMode(99), 1, 0, 0, 0); err == nil {
		t.Error("unknown schedule mode accepted")
	}
	trainSteps(t, m, o, s, 1, 1) // commits the first partition
	if err := o.SetStep(0); err != nil {
		t.Fatal(err)
	}
	if err := s.BeginStep(); err != nil {
		t.Fatal(err)
	}
	i := tailGroup(t, s)
	if _, err := s.Arrive(groups[i]); err == nil || !strings.Contains(err.Error(), "before BeginStep") {
		t.Errorf("staging before BeginStep = %v, want a refusal", err)
	}
	if s.slots[i].pending {
		t.Error("refused stage left the slot pending")
	}
}

// TestImportanceEveryCadence: with importanceEvery 3 the important set is
// recommitted only after steps 1 (no partition yet), 3 and 6, and held —
// with the norms it was ranked by — on the steps in between, even though
// every step moves the largest gradient to another group.
func TestImportanceEveryCadence(t *testing.T) {
	m := buildModel(t)
	o, s := newAsyncScheduler(t, m, &lockedStore{m: MemStore{}}, 3)
	groups := m.ParamGroups()
	if len(groups) < 3 {
		t.Fatalf("%d groups: the rotation needs at least 3", len(groups))
	}
	hot := func(step int) int { return step % len(groups) }
	committed := 0
	norms := make([]float64, len(groups))
	for step := 1; step <= 7; step++ {
		for i, g := range groups {
			v := float32(1e-3)
			if i == hot(step) {
				v = 1
			}
			for _, p := range g.Params {
				for k := range p.G.Data {
					p.G.Data[k] = v
				}
			}
		}
		schedStep(t, o, s, groups)
		refresh := step == 1 || step == 3 || step == 6
		if refresh {
			committed = step
		}
		for i := range s.slots {
			d := &s.slots[i]
			if want := i == hot(committed); d.important != want {
				t.Fatalf("after step %d: group %s important=%v, want the set ranked at step %d ({%s})",
					step, groups[i].Name, d.important, committed, groups[hot(committed)].Name)
			}
			if refresh {
				norms[i] = d.norm
			} else if d.norm != norms[i] {
				t.Fatalf("step %d sampled group %s's norm off the cadence", step, groups[i].Name)
			}
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
}
