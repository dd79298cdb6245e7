package mpi

import "sync/atomic"

// Recycler receives a PooledBuf whose reference count dropped to zero.
// Transports implement it with their buffer arenas; the zero value of a
// message (no pooled backing) never reaches a Recycler.
type Recycler interface {
	Recycle(*PooledBuf)
}

// PooledBuf is the reference-counted handle of one pooled backing buffer.
// A transport hands the same handle to every message that aliases the
// buffer (copy-on-write fan-out: r physical sends share one encoded
// payload), and the buffer returns to its arena when the last reference
// is released. The handle travels with the buffer through the pool, so
// recycling costs no allocation.
//
// Reference protocol: the creator starts with one reference; every
// enqueued delivery takes one more (Retain before publication); every
// consumer that is done with its view calls Release. Dropping a handle
// without Release is safe — the buffer is garbage-collected instead of
// recycled — so legacy callers that retain Message.Data forever remain
// correct, they just opt out of reuse.
type PooledBuf struct {
	b    []byte
	refs atomic.Int32
	pool Recycler
}

// NewPooledBuf wraps a backing slice for the given arena. The returned
// handle carries one (creator) reference.
func NewPooledBuf(b []byte, pool Recycler) *PooledBuf {
	p := &PooledBuf{b: b, pool: pool}
	p.refs.Store(1)
	return p
}

// Reset rearms a recycled handle with one creator reference. Arenas call
// it when they hand the buffer out again.
func (p *PooledBuf) Reset() { p.refs.Store(1) }

// Bytes returns the full-capacity backing slice.
func (p *PooledBuf) Bytes() []byte { return p.b }

// Retain adds a reference. Call it before publishing another view of the
// buffer (e.g. before enqueueing the payload to one more destination).
func (p *PooledBuf) Retain() { p.refs.Add(1) }

// Release drops one reference; the last release returns the buffer to
// its arena. Using any slice view of the buffer after the final release
// is a use-after-free (the arena may poison or rewrite the bytes).
// Releasing a nil handle — what Arena.Acquire returns for an oversized
// fallback allocation — is a no-op.
func (p *PooledBuf) Release() {
	if p == nil {
		return
	}
	if p.refs.Add(-1) == 0 && p.pool != nil {
		p.pool.Recycle(p)
	}
}

// SharedSender is the optional capability a transport exposes when it
// can fan one pooled payload out to several destinations without copying
// (the redundancy layer's copy-on-write replica sends). Acquire a buffer,
// encode into it once, send it to each replica, then drop the creator
// reference:
//
//	buf, pb := ss.AcquireBuffer(n)
//	... fill buf ...
//	for _, dst := range replicas {
//		ss.SendPooled(dst, tag, buf, pb)
//	}
//	pb.Release()
type SharedSender interface {
	// AcquireBuffer returns a pooled buffer of length n and its handle,
	// holding one creator reference.
	AcquireBuffer(n int) ([]byte, *PooledBuf)
	// SendPooled behaves like Comm.Send for data (which must alias pb's
	// buffer) but shares the buffer with the destination instead of
	// copying it. The implementation manages the delivery references;
	// the caller keeps its own reference across the call.
	SendPooled(dst, tag int, data []byte, pb *PooledBuf) error
}
