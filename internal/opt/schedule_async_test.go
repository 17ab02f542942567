package opt

import (
	"strings"
	"sync"
	"testing"

	"ratel/internal/nvme"
)

// lockedStore guards a MemStore with a mutex for the prefetcher/applier
// tests: those consumers require a concurrency-safe Store (nvme.Array in
// the engine), and the bare test map is not one.
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
// prefetcher produces bit-identical parameters to the synchronous loads —
// the prefetcher only changes when the bytes are fetched, not what the
// update computes.
func TestPrefetcherBitIdentity(t *testing.T) {
	modelSync := buildModel(t)
	modelPref := buildModel(t)

	sync := NewOutOfCoreAdam(MemStore{}, DefaultAdam(), "s")
	pref := NewOutOfCoreAdam(&lockedStore{m: MemStore{}}, DefaultAdam(), "s")
	for _, g := range modelSync.ParamGroups() {
		if err := sync.InitGroup(g); err != nil {
			t.Fatal(err)
		}
	}
	groups := modelPref.ParamGroups()
	for _, g := range groups {
		if err := pref.InitGroup(g); err != nil {
			t.Fatal(err)
		}
	}
	p := NewStatePrefetcher(pref, 2, len(groups))
	defer p.Close()
	for _, g := range groups {
		p.Register(g)
	}

	for step := 1; step <= 3; step++ {
		setGrads(modelSync, int64(step))
		setGrads(modelPref, int64(step))
		sync.BeginStep()
		pref.BeginStep()
		for _, g := range modelSync.ParamGroups() {
			if err := sync.UpdateGroup(g); err != nil {
				t.Fatal(err)
			}
		}
		// Launch every fetch first (gradient-arrival order), consume after:
		// the reads run ahead of the updates, depth-bounded.
		for _, g := range groups {
			p.Launch(g.Name)
		}
		for _, g := range groups {
			if err := p.UpdateGroup(g); err != nil {
				t.Fatal(err)
			}
		}
		if err := p.DrainLive(); err != nil {
			t.Fatal(err)
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

// TestPrefetcherFallback: UpdateGroup without a prior Launch falls back to
// the synchronous load, and an abandoned Launch is reclaimed by DrainLive.
func TestPrefetcherFallback(t *testing.T) {
	m := buildModel(t)
	o := NewOutOfCoreAdam(&lockedStore{m: MemStore{}}, DefaultAdam(), "x")
	groups := m.ParamGroups()
	for _, g := range groups {
		if err := o.InitGroup(g); err != nil {
			t.Fatal(err)
		}
	}
	p := NewStatePrefetcher(o, 1, len(groups))
	defer p.Close()
	for _, g := range groups {
		p.Register(g)
	}
	setGrads(m, 1)
	o.BeginStep()
	if err := p.UpdateGroup(groups[0]); err != nil { // no Launch: sync fallback
		t.Fatal(err)
	}
	p.Launch(groups[1].Name) // abandoned: a failed step never consumes it
	if err := p.DrainLive(); err != nil {
		t.Fatal(err)
	}
	p.Close()
	p.Close() // idempotent
}

// TestAsyncApplierMatchesSync: staging a group and waiting for the
// background apply before the next step is bit-identical to the synchronous
// update — deferral changes when the update runs, not what it computes.
func TestAsyncApplierMatchesSync(t *testing.T) {
	modelSync := buildModel(t)
	modelAsync := buildModel(t)

	sync := NewOutOfCoreAdam(MemStore{}, DefaultAdam(), "s")
	async := NewOutOfCoreAdam(&lockedStore{m: MemStore{}}, DefaultAdam(), "s")
	for _, g := range modelSync.ParamGroups() {
		if err := sync.InitGroup(g); err != nil {
			t.Fatal(err)
		}
	}
	groups := modelAsync.ParamGroups()
	for _, g := range groups {
		if err := async.InitGroup(g); err != nil {
			t.Fatal(err)
		}
	}
	a := NewAsyncApplier(async, len(groups))
	defer a.Close()
	slots := make([]*DeferredUpdate, len(groups))
	for i, g := range groups {
		slots[i] = async.NewDeferred(g)
	}

	for step := 1; step <= 3; step++ {
		setGrads(modelSync, int64(step))
		setGrads(modelAsync, int64(step))
		sync.BeginStep()
		async.BeginStep()
		for _, g := range modelSync.ParamGroups() {
			if err := sync.UpdateGroup(g); err != nil {
				t.Fatal(err)
			}
		}
		for i, g := range groups {
			if err := async.StageDeferred(slots[i], g); err != nil {
				t.Fatal(err)
			}
			a.Submit(slots[i])
		}
		for _, d := range slots {
			if err := d.Wait(); err != nil {
				t.Fatal(err)
			}
		}
	}

	pa, pb := modelSync.Params(), modelAsync.Params()
	for i := range pa {
		for j := range pa[i].W.Data {
			if pa[i].W.Data[j] != pb[i].W.Data[j] {
				t.Fatalf("param %d[%d]: sync %v vs deferred %v", i, j, pa[i].W.Data[j], pb[i].W.Data[j])
			}
		}
	}
}

// TestAsyncApplierFault: a store failure inside the background apply
// surfaces from Wait, leaves the working weights untouched, and frees the
// slot for reuse.
func TestAsyncApplierFault(t *testing.T) {
	m := buildModel(t)
	store := MemStore{}
	o := NewOutOfCoreAdam(store, DefaultAdam(), "x")
	g := m.ParamGroups()[0]
	if err := o.InitGroup(g); err != nil {
		t.Fatal(err)
	}
	a := NewAsyncApplier(o, 1)
	defer a.Close()
	d := o.NewDeferred(g)

	setGrads(m, 1)
	o.BeginStep()
	before := append([]float32(nil), g.Params[0].W.Data...)
	delete(store, o.key(g.Name, "m")) // media failure stand-in
	if err := o.StageDeferred(d, g); err != nil {
		t.Fatal(err)
	}
	a.Submit(d)
	err := d.Wait()
	if err == nil || !strings.Contains(err.Error(), "missing") {
		t.Fatalf("Wait after store fault = %v, want missing-object error", err)
	}
	if d.Pending() {
		t.Fatal("slot still pending after failed Wait")
	}
	for i, v := range g.Params[0].W.Data {
		if v != before[i] {
			t.Fatal("failed apply modified working weights")
		}
	}
}

func TestStageDeferredErrors(t *testing.T) {
	m := buildModel(t)
	o := NewOutOfCoreAdam(MemStore{}, DefaultAdam(), "x")
	g := m.ParamGroups()[0]
	if err := o.InitGroup(g); err != nil {
		t.Fatal(err)
	}
	d := o.NewDeferred(g)
	if err := o.StageDeferred(d, g); err == nil {
		t.Error("StageDeferred before BeginStep accepted")
	}
	o.BeginStep()
	if err := o.StageDeferred(d, g); err != nil {
		t.Fatal(err)
	}
	if err := o.StageDeferred(d, g); err == nil {
		t.Error("double StageDeferred on a pending slot accepted")
	}
}
