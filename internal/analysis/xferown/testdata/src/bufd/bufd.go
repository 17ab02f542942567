// Package bufd is xferown's straight-line golden suite: uses after a pool
// release or a writer hand-off with no branches or loops in between. It
// imports the real nvme package so receiver-type resolution works exactly
// as it does in the engine.
package bufd

import "ratel/internal/nvme"

func readAfterPut() byte {
	buf := nvme.Buffers.Get(4096)
	nvme.Buffers.Put(buf)
	return buf[0] // want `pooled buffer "buf" used after BufPool.Put released it`
}

func writeAfterPut() {
	buf := nvme.Buffers.Get(4096)
	nvme.Buffers.Put(buf)
	buf[0] = 1 // want `pooled buffer "buf" used after BufPool.Put released it`
}

func doublePut() {
	buf := nvme.Buffers.Get(4096)
	nvme.Buffers.Put(buf)
	nvme.Buffers.Put(buf) // want `pooled buffer "buf" used after BufPool.Put released it`
}

func useAfterWriteThenRelease(a *nvme.Array) error {
	// PutClass only borrows; the pool release right after it is the
	// transfer, so the error check must not touch the buffer again.
	buf := nvme.Buffers.Get(4096)
	err := a.PutClass("k", buf, nvme.ClassWriteback)
	nvme.Buffers.Put(buf)
	if err != nil {
		return err
	}
	buf[0] = 1 // want `pooled buffer "buf" used after BufPool.Put released it`
	return nil
}

// writeJob is the write-behind queue's job shape: the blob travels to the
// writer goroutine inside a struct.
type writeJob struct {
	key  string
	blob []byte
}

func useAfterQueueToWriter(jobs chan writeJob) {
	// Queueing the blob hands it to the writer goroutine, whatever class
	// the writer later tags the NVMe transfer with.
	buf := nvme.Buffers.Get(4096)
	jobs <- writeJob{key: "k", blob: buf}
	buf[0] = 1 // want `pooled buffer "buf" used after it was queued to a writer goroutine`
}

func capturedInClosureAfterPut() func() byte {
	buf := nvme.Buffers.Get(4096)
	nvme.Buffers.Put(buf)
	return func() byte { return buf[1] } // want `pooled buffer "buf" used after BufPool.Put released it`
}

func reassignFromGetIsFine() byte {
	buf := nvme.Buffers.Get(4096)
	nvme.Buffers.Put(buf)
	buf = nvme.Buffers.Get(8192)
	b := buf[0]
	nvme.Buffers.Put(buf)
	return b
}

func putThenReturnIsFine() {
	buf := nvme.Buffers.Get(4096)
	buf[0] = 1
	nvme.Buffers.Put(buf)
}

func arrayPutBorrowsOnly(a *nvme.Array) (byte, error) {
	// (*Array).PutClass borrows for the duration of the call — the caller
	// keeps ownership, so reading afterwards is the sanctioned idiom.
	buf := nvme.Buffers.Get(4096)
	if err := a.PutClass("k", buf, nvme.ClassWriteback); err != nil {
		return 0, err
	}
	b := buf[0]
	nvme.Buffers.Put(buf)
	return b, nil
}

func errorPathCleanupIsFine(a *nvme.Array, fill func([]byte) error) error {
	// The engine's host-tier idiom: release on the error path, then return.
	// Control never reaches the later uses after that release.
	buf := nvme.Buffers.Get(4096)
	if err := fill(buf); err != nil {
		nvme.Buffers.Put(buf)
		return err
	}
	if err := a.PutClass("k", buf, nvme.ClassWriteback); err != nil {
		nvme.Buffers.Put(buf)
		return err
	}
	nvme.Buffers.Put(buf)
	return nil
}

func unrelatedBufferIsFine() byte {
	a := nvme.Buffers.Get(512)
	b := nvme.Buffers.Get(512)
	nvme.Buffers.Put(a)
	v := b[0]
	nvme.Buffers.Put(b)
	return v
}
