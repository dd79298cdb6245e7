package mpi

import (
	"errors"
	"sync"
	"sync/atomic"
)

// State is the liveness and epoch view a receive engine checks before it
// queues a deposit and before a receive parks. The simulated world keeps
// one State for all its ranks; a worker process keeps its own view, fed
// by the hub's broadcasts (a rank's own bit is set when it is killed).
// Every field is read lock-free; a transport changes one and then wakes
// the parked waiters (Stripe.WakeAll), which re-check it under their
// stripe lock.
type State struct {
	// Dead holds the failed ranks.
	Dead *Bitset
	// Aborted is set when the world is torn down.
	Aborted atomic.Bool
	// Interrupted is set while the epoch is paused for recovery.
	Interrupted atomic.Bool
	// DeathSeq counts deaths; a Notifier compares it with its
	// acknowledgement watermark.
	DeathSeq atomic.Uint64
}

// Kill marks rank dead and reports whether it was alive.
func (st *State) Kill(rank int) bool {
	if st.Dead.Set(rank) {
		return false
	}
	st.DeathSeq.Add(1)
	return true
}

// ErrIfDown returns the error that ends any operation of rank, in
// priority order: the world aborted, rank itself killed, the epoch
// interrupted. Nil means rank may proceed.
func (st *State) ErrIfDown(rank int) error {
	if st.Aborted.Load() {
		return ErrAborted
	}
	if st.Dead.Get(rank) {
		return ErrKilled
	}
	if st.Interrupted.Load() {
		return ErrInterrupted
	}
	return nil
}

// errIfWaiting returns the error that ends owner's wait for a message
// from src, or nil if it may keep waiting: ErrIfDown, then the awaited
// peer's death, then (for a wildcard on a communicator with an
// errhandler) an unacknowledged failure.
func (st *State) errIfWaiting(n *Notifier, owner, src int) error {
	if err := st.ErrIfDown(owner); err != nil {
		return err
	}
	if src != AnySource {
		if st.Dead.Get(src) {
			return ErrPeerDead
		}
		return nil
	}
	if n.pending(st.DeathSeq.Load()) {
		// ULFM wildcard rule: with an errhandler installed, a wildcard
		// must not block past an unacknowledged failure — the dead rank
		// might have been the sender it was waiting for.
		return ErrFailurePending
	}
	return nil
}

// Notifier is one communicator's slice of the ULFM-style notification
// surface: the installed errhandler, the failures already delivered to
// it, and the acknowledgement watermark that gates wildcard operations
// (ErrFailurePending fires while the watermark lags State.DeathSeq).
// The zero Notifier has no handler.
type Notifier struct {
	mu       sync.Mutex
	handler  func(FailureInfo)
	notified map[int]bool

	// has mirrors handler != nil so the hot receive path can skip the
	// whole machinery with one atomic load; ack is the DeathSeq
	// watermark this communicator has acknowledged.
	has atomic.Bool
	ack atomic.Uint64
}

// SetHandler installs fn as the errhandler (nil uninstalls). The
// transport then wakes the communicator's parked waiters, so a wildcard
// re-checks for pending failures.
func (n *Notifier) SetHandler(fn func(FailureInfo)) {
	n.mu.Lock()
	n.handler = fn
	n.mu.Unlock()
	n.has.Store(fn != nil)
}

// pending reports whether an unacknowledged failure should stop this
// communicator's wildcard operations. Only handler-bearing
// communicators opt in, so legacy code keeps the block-until-abort
// behavior unchanged.
func (n *Notifier) pending(deathSeq uint64) bool {
	return n != nil && n.has.Load() && n.ack.Load() < deathSeq
}

// Fire delivers the failures in st that the errhandler has not been told
// about, if err is one a handler hears of (ErrPeerDead or
// ErrFailurePending). The handler runs outside the notifier's lock, so
// it may call FailureAck, Shrink or Agree itself.
func (n *Notifier) Fire(err error, st *State) {
	if n == nil || !n.has.Load() {
		return
	}
	if !errors.Is(err, ErrPeerDead) && !errors.Is(err, ErrFailurePending) {
		return
	}
	n.mu.Lock()
	fn := n.handler
	if fn == nil {
		n.mu.Unlock()
		return
	}
	if n.notified == nil {
		n.notified = make(map[int]bool)
	}
	var fresh []int
	st.Dead.ForEachSet(func(r int) {
		if !n.notified[r] {
			n.notified[r] = true
			fresh = append(fresh, r)
		}
	})
	n.mu.Unlock()
	for _, r := range fresh {
		fn(FailureInfo{Rank: r})
	}
}

// Ack implements Comm.FailureAck over st: it acknowledges the failures
// observed so far (wildcards proceed past them afterwards, and the
// handler is not told of them again) and returns the dead ranks in
// ascending order.
func (n *Notifier) Ack(st *State) []int {
	seq := st.DeathSeq.Load()
	n.mu.Lock()
	if n.notified == nil {
		n.notified = make(map[int]bool)
	}
	var acked []int
	st.Dead.ForEachSet(func(r int) {
		n.notified[r] = true
		acked = append(acked, r)
	})
	n.ack.Store(seq)
	n.mu.Unlock()
	return acked
}
