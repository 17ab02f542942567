// Package xferd is xferown's golden testdata for the cases a straight-line
// scan cannot see: branch merges, loop back edges, deferred releases, and
// writer-goroutine channel transfers.
package xferd

import "ratel/internal/nvme"

type job struct {
	key     string
	payload []byte
}

// Released on one branch only: the merge point may hold a dead buffer.
func releasedOnOnePath(ok bool) byte {
	buf := nvme.Buffers.Get(64)
	if ok {
		nvme.Buffers.Put(buf)
	}
	return buf[0] // want `pooled buffer "buf" may be used after BufPool.Put released it on a preceding path`
}

// The release feeds back through the loop: iteration 2 writes a buffer
// iteration 1 already returned to the pool. Textually the use precedes the
// release, so only a CFG-aware check catches it.
func loopCarriedRelease(n int) {
	buf := nvme.Buffers.Get(64)
	for i := 0; i < n; i++ {
		buf[0] = byte(i)      // want `pooled buffer "buf" may be used after BufPool.Put released it on a preceding path`
		nvme.Buffers.Put(buf) // want `pooled buffer "buf" may be used after BufPool.Put released it on a preceding path`
	}
}

// Reacquiring at the top of each iteration is the fix: no finding.
func loopReacquireIsFine(n int) {
	for i := 0; i < n; i++ {
		buf := nvme.Buffers.Get(64)
		buf[0] = byte(i)
		nvme.Buffers.Put(buf)
	}
}

// A deferred Put runs after every use in the body — the straight-line scan
// flagged this sanctioned idiom as use-after-release.
func deferPutIsFine() byte {
	buf := nvme.Buffers.Get(64)
	defer nvme.Buffers.Put(buf)
	return buf[0]
}

// A deferred Put after an explicit Put is a double release: the exit chain
// releases a buffer the body already returned.
func deferThenExplicitPut() {
	buf := nvme.Buffers.Get(64)
	defer nvme.Buffers.Put(buf) // want `pooled buffer "buf" used after BufPool.Put released it`
	buf[0] = 1
	nvme.Buffers.Put(buf)
}

// Queueing the buffer to a writer goroutine transfers ownership with the
// send; the producer must not touch it afterwards.
func sendTransfersOwnership(jobs chan job) {
	buf := nvme.Buffers.Get(64)
	jobs <- job{key: "k", payload: buf}
	buf[0] = 1 // want `pooled buffer "buf" used after it was queued to a writer goroutine`
}

// Filling before the send is the protocol: no finding.
func fillThenSendIsFine(jobs chan job) {
	buf := nvme.Buffers.Get(64)
	buf[0] = 1
	jobs <- job{key: "k", payload: buf}
}

// A buffer whose cleanup responsibility moves into a closure escapes this
// frame; the closure's own frame is analyzed separately.
func closureOwnsCleanupIsFine() func() {
	buf := nvme.Buffers.Get(64)
	buf[0] = 1
	return func() { nvme.Buffers.Put(buf) }
}

// Inside a closure the same dataflow applies: the closure is its own frame.
func useAfterPutInsideClosure() func() byte {
	return func() byte {
		buf := nvme.Buffers.Get(64)
		nvme.Buffers.Put(buf)
		return buf[0] // want `pooled buffer "buf" used after BufPool.Put released it`
	}
}

// Releasing on both arms then merging is exactly-once on every path when
// each arm returns; the merge is never reached with a dead buffer.
func releaseOnBothReturningArms(ok bool) error {
	buf := nvme.Buffers.Get(64)
	if ok {
		nvme.Buffers.Put(buf)
		return nil
	}
	nvme.Buffers.Put(buf)
	return nil
}
