package mpi

import "sync"

// Arena is the sync.Pool-backed buffer pool every transport shares for
// message payloads. Senders borrow a buffer, copy (or encode) the
// payload once at the transport boundary, and enqueue it; the receiver
// owns the buffer until it calls Message.Release, which returns it here
// for the next send. Buffers are size-classed in powers of two so a
// recycled buffer is never undersized for its class, and each buffer
// keeps its PooledBuf handle for life — recycling re-uses the handle, so
// the steady-state send/receive/release cycle allocates nothing.
//
// Oversized payloads (beyond the largest class) fall back to plain
// allocations with no handle; they are rare (checkpoint images take the
// storage path, not the message path) and simply bypass reuse.
//
// The arena began life inside simmpi; it moved here when the transport
// grew a second backend (procmpi) whose socket receive path borrows the
// same pooled buffers for zero-copy frame delivery.
type Arena struct {
	classes [arenaClasses]sync.Pool
	// poison overwrites returned buffers with a sentinel so a
	// use-after-release reads garbage deterministically; enabled under
	// the race detector where such bugs should be loudest.
	poison bool
}

const (
	// arenaMinClass is the smallest pooled buffer (wire headers, hashes,
	// barrier tokens all fit).
	arenaMinClass = 64
	// arenaMaxClass bounds pooled buffers; beyond it the arena falls
	// back to plain allocation. 128 KiB holds an 8-rank allgather of
	// CG-sized blocks (8 × 9.2 KB ≈ 74 KB plus wire header); at 64 KiB
	// every hop of such a payload allocated afresh and the replica
	// fan-out copied it per replica.
	arenaMaxClass = 128 * 1024
	arenaClasses  = 12 // 64 << 11 == 128 KiB
)

var _ Recycler = (*Arena)(nil)

// SharedArena returns the process-wide arena. The in-process transport's
// worlds and the collectives' root-side scratch all draw from it, so a
// buffer freed by one world serves the next: a job's restart attempts and
// a benchmark's back-to-back jobs each build a fresh world, and with an
// arena per world every one of them filled a pool of its own before the
// GC dropped the last one's.
func SharedArena() *Arena { return sharedArena }

var sharedArena = NewArena()

// NewArena creates an empty arena. Poisoning of recycled buffers is
// enabled automatically under the race detector.
func NewArena() *Arena {
	a := &Arena{poison: raceEnabled}
	for c := range a.classes {
		size := arenaMinClass << c
		a.classes[c].New = func() any {
			return NewPooledBuf(make([]byte, size), a)
		}
	}
	return a
}

// classFor returns the index of the smallest class holding n bytes, or
// -1 when n exceeds the largest class.
func classFor(n int) int {
	size := arenaMinClass
	for c := 0; c < arenaClasses; c++ {
		if n <= size {
			return c
		}
		size <<= 1
	}
	return -1
}

// Acquire returns a buffer of length n and its refcounted handle (nil
// for oversized fallback allocations). The handle carries one creator
// reference.
func (a *Arena) Acquire(n int) ([]byte, *PooledBuf) {
	c := classFor(n)
	if c < 0 {
		return make([]byte, n), nil
	}
	pb := a.classes[c].Get().(*PooledBuf)
	pb.Reset()
	return pb.Bytes()[:n], pb
}

// Recycle implements Recycler: the buffer's last reference was released,
// so it goes back to its size class for the next Acquire.
func (a *Arena) Recycle(pb *PooledBuf) {
	b := pb.Bytes()
	c := classFor(cap(b))
	if c < 0 || arenaMinClass<<c != cap(b) {
		return // not one of ours; drop it for the GC
	}
	if a.poison {
		full := b[:cap(b)]
		for i := range full {
			full[i] = poisonByte
		}
	}
	a.classes[c].Put(pb)
}

// poisonByte fills recycled buffers under the race detector: any reader
// holding a released payload sees this pattern instead of stale (or
// worse, newly overwritten) data.
const poisonByte = 0xDB
