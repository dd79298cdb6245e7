package simmpi

import "repro/internal/mpi"

// mboxTable is the sharded mailbox table: destination ranks are striped
// across power-of-two lock stripes of the receive engine (mpi.Stripe),
// so a 100k-rank world's traffic spreads over up to maxShards
// independent locks instead of a mutex and condvar pair per rank. For
// worlds at or below maxShards ranks the striping degenerates to one
// stripe per rank — exactly per-rank locking.
//
// Liveness transitions (kill, abort, interrupt, resume) do not sweep
// every rank: each stripe advertises whether it holds parked waiters in
// an atomic flag, and broadcasts walk only the flagged stripes' active
// wait queues. The cost of a transition is O(parked waiters) + one
// atomic load per stripe, independent of world size — the "O(active
// ranks), not O(world)" contract the failure injector and epoch gate
// rely on at scale (see DESIGN.md §7 for the missed-wakeup proof
// obligations).
type mboxTable struct {
	world  *World
	shards []mpi.Stripe
	mask   uint32
}

// maxShards caps the stripe count. 512 stripes keep the table's fixed
// footprint trivial while giving a 100k-rank world ~200 ranks per lock;
// beyond that, contention is dominated by per-rank fan-in, which
// striping cannot help (one destination's matching is inherently
// serialized, as it was with per-rank mutexes).
const maxShards = 512

func shardCount(n int) int {
	s := 1
	for s < n && s < maxShards {
		s <<= 1
	}
	return s
}

func newMboxTable(w *World, n int) *mboxTable {
	s := shardCount(n)
	t := &mboxTable{world: w, shards: make([]mpi.Stripe, s), mask: uint32(s - 1)}
	if n <= denseCountThreshold {
		// Small worlds (the latency-sensitive tier): materialize every
		// box up front so first-message hot paths never pay lazy-init
		// allocations. Large worlds stay lazy — that is what keeps
		// NewWorld(100k) cheap.
		for r := 0; r < n; r++ {
			t.shardFor(r).Reserve(r)
		}
	}
	return t
}

// shardFor maps a destination rank to its stripe. Identity-modulo keeps
// neighboring ranks (halo exchanges, ring collectives) on distinct
// locks, and reduces to one stripe per rank for worlds ≤ maxShards.
func (t *mboxTable) shardFor(rank int) *mpi.Stripe {
	return &t.shards[uint32(rank)&t.mask]
}

// deposit enqueues a message and reports whether it was accepted (see
// mpi.Stripe.Deposit; a refused deposit's pb reference is released).
func (t *mboxTable) deposit(dst, src, tag int, data []byte, pb *mpi.PooledBuf) bool {
	depth, ok := t.shardFor(dst).Deposit(&t.world.st, dst, src, tag, data, pb)
	if ok {
		t.world.met.mailboxHWM.SetMax(int64(depth))
	}
	return ok
}

// tryReceive attempts a non-blocking matched receive.
func (t *mboxTable) tryReceive(owner, src, tag int) (mpi.Message, bool, error) {
	return t.shardFor(owner).TryReceive(&t.world.st, &t.world.comms[owner].fault, owner, src, tag)
}

// pending returns the number of unmatched messages addressed to rank,
// for tests and the bookmark-exchange verifier.
func (t *mboxTable) pending(rank int) int { return t.shardFor(rank).Pending(rank) }

// wakeAll broadcasts every registered waiter so it re-checks its
// liveness predicates, locking only stripes that advertise waiters, and
// returns the number of registered waiters notified (see
// mpi.Stripe.WakeAll).
func (t *mboxTable) wakeAll() int {
	woken := 0
	for i := range t.shards {
		woken += t.shards[i].WakeAll()
	}
	return woken
}

// purgeAll discards every rank's unmatched messages and wakes all
// waiters — the epoch boundary sweep. Only boxes on the stripes' dirty
// lists are visited, so the cost is O(ranks with traffic since the last
// sweep).
func (t *mboxTable) purgeAll() {
	for i := range t.shards {
		t.shards[i].PurgeDirty()
	}
}
