package simmpi

import (
	"sync"
	"sync/atomic"

	"repro/internal/mpi"
)

// mboxTable is the sharded mailbox table: destination ranks are striped
// across power-of-two lock shards, so a 100k-rank world's traffic
// spreads over up to maxShards independent locks instead of a mutex and
// condvar pair per rank. For worlds at or below maxShards ranks the
// striping degenerates to one shard per rank — exactly the old per-rank
// locking — so small-world behavior (every existing test and benchmark)
// is unchanged by construction.
//
// Liveness transitions (kill, abort, interrupt, resume) no longer sweep
// every rank: each shard advertises whether it holds parked waiters in
// an atomic flag, and broadcasts walk only the flagged shards' active
// wait queues. The cost of a transition is O(parked waiters) + one
// atomic load per shard, independent of world size — the "O(active
// ranks), not O(world)" contract the failure injector and epoch gate
// rely on at scale (see DESIGN.md §7 for the missed-wakeup proof
// obligations).
type mboxTable struct {
	world  *World
	shards []mboxShard
	mask   uint32
}

// maxShards caps the stripe count. 512 shards keep the table's fixed
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
	t := &mboxTable{world: w, shards: make([]mboxShard, s), mask: uint32(s - 1)}
	for i := range t.shards {
		t.shards[i].boxes = make(map[int]*rankBox)
	}
	if n <= denseCountThreshold {
		// Small worlds (the latency-sensitive tier): materialize every
		// box up front so first-message hot paths never pay lazy-init
		// allocations. Large worlds stay lazy — that is what keeps
		// NewWorld(100k) cheap.
		for r := 0; r < n; r++ {
			sh := t.shardFor(r)
			sh.boxes[r] = newRankBox(r)
			if sh.dirty == nil {
				sh.dirty = make([]*rankBox, 0, 4)
				sh.active = make([]*waitQueue, 0, 4)
			}
		}
	}
	return t
}

// shardFor maps a destination rank to its shard. Identity-modulo keeps
// neighboring ranks (halo exchanges, ring collectives) on distinct
// locks, and reduces to one-shard-per-rank for worlds ≤ maxShards.
func (t *mboxTable) shardFor(rank int) *mboxShard {
	return &t.shards[uint32(rank)&t.mask]
}

// mboxShard is one lock stripe of the table. All box state (queues,
// waiter registration, free lists) is guarded by mu; hasWaiters is the
// lock-free hint liveness sweeps read to skip idle shards.
type mboxShard struct {
	mu    sync.Mutex
	boxes map[int]*rankBox // lazily created per destination rank

	// active is the dense list of wait queues with registered waiters —
	// the shard-local work list a liveness broadcast walks. Entries
	// track their index for O(1) swap-removal.
	active     []*waitQueue
	nwaiters   int
	hasWaiters atomic.Bool

	// dirty lists boxes that have seen deposits since the last purge
	// sweep, so Resume touches only ranks with traffic.
	dirty []*rankBox

	// Free lists recycle the two park-path allocations (selector wait
	// queues and pair FIFOs), which is what takes the collective fan-in
	// path from ~2 allocations per message to zero in steady state.
	freeWait *waitQueue
	freePair *pairQueue
}

// box returns (creating lazily) the rank's box. Caller holds s.mu.
// Lazy creation is what makes NewWorld O(1) per rank at 100k ranks: a
// rank that never receives traffic costs one map slot, not a mutex, a
// condvar, and a queue.
func (s *mboxShard) box(rank int) *rankBox {
	b := s.boxes[rank]
	if b == nil {
		b = newRankBox(rank)
		s.boxes[rank] = b
	}
	return b
}

func (s *mboxShard) allocPairQueue(k pairKey) *pairQueue {
	q := s.freePair
	if q == nil {
		q = &pairQueue{}
	} else {
		s.freePair = q.nextFree
		q.nextFree = nil
	}
	q.key = k
	return q
}

func (s *mboxShard) freePairQueue(q *pairQueue) {
	q.nextFree = s.freePair
	s.freePair = q
}

// register parks bookkeeping for one waiter on (box, key): the waiter is
// counted before its final liveness re-check, which is the ordering the
// lock-free hasWaiters hint depends on (see wakeAll). Caller holds s.mu.
func (s *mboxShard) register(b *rankBox, k waitKey) *waitQueue {
	q := b.waiters[k]
	if q == nil {
		q = s.freeWait
		if q == nil {
			q = &waitQueue{cond: sync.NewCond(&s.mu), activeIdx: -1}
		} else {
			s.freeWait = q.nextFree
			q.nextFree = nil
		}
		b.waiters[k] = q
	}
	if q.n == 0 {
		q.activeIdx = len(s.active)
		s.active = append(s.active, q)
	}
	q.n++
	s.nwaiters++
	if s.nwaiters == 1 {
		s.hasWaiters.Store(true)
	}
	return q
}

// deregister undoes register. Caller holds s.mu.
func (s *mboxShard) deregister(b *rankBox, k waitKey, q *waitQueue) {
	q.n--
	s.nwaiters--
	if s.nwaiters == 0 {
		s.hasWaiters.Store(false)
	}
	if q.n == 0 {
		// Swap-remove from the active list.
		last := len(s.active) - 1
		moved := s.active[last]
		s.active[q.activeIdx] = moved
		moved.activeIdx = q.activeIdx
		s.active[last] = nil
		s.active = s.active[:last]
		q.activeIdx = -1
		delete(b.waiters, k)
		q.nextFree = s.freeWait
		s.freeWait = q
	}
}

// signalArrival wakes waiters able to consume a newly arrived
// (source, tag) message: every selector pattern the message matches is
// signaled — the exact key and the three wildcard forms — with one
// Signal (wake-one) per queue. Stopping at the first populated queue
// would be unsound: sync.Cond.Signal is delivered only to goroutines
// currently blocked in Wait, so when that queue's registered waiters
// are all momentarily awake (woken earlier, not yet re-holding the
// lock) the Signal is a silent no-op — and an early return would then
// skip the wildcard queues, stranding a parked waiter even though a
// message it matches sits in the box (the awake waiter may consume a
// *different*, earlier-arrived message and leave). Per-queue wake-one
// remains sound: a Signal is lost only when none of that queue's
// waiters are parked, and an awake waiter always re-scans the box
// exhaustively under the shard lock before parking again, so it cannot
// park with a deliverable message present. Patterns with no registered
// waiters cost one map lookup and no wakeup, so the collective fan-in
// hot path (a single AnySource selector live) still pays for exactly
// one Signal per message. Caller holds s.mu.
func (s *mboxShard) signalArrival(b *rankBox, src, tag int) {
	if len(b.waiters) == 0 {
		return
	}
	s.signalKey(b, waitKey{src, tag})
	s.signalKey(b, waitKey{src, mpi.AnyTag})
	s.signalKey(b, waitKey{mpi.AnySource, tag})
	s.signalKey(b, waitKey{mpi.AnySource, mpi.AnyTag})
}

func (s *mboxShard) signalKey(b *rankBox, k waitKey) {
	if q := b.waiters[k]; q != nil && q.n > 0 {
		q.cond.Signal()
	}
}

// deposit enqueues a message and reports whether it was accepted.
// Deposits to dead ranks, aborted worlds, or interrupted epochs are
// dropped (returning false), like packets to a crashed node (an
// interrupted epoch's traffic is recomputed from the checkpoint anyway);
// the caller still owns pb's reference on that path and must release it.
// On acceptance the reference rides the envelope to the receiver.
//
// A deposit from a sender killed after its send prologue is dropped too.
// The sender's liveness is read under the receiver's shard lock, where
// receive also reads it, so a receive that has reported the sender dead
// can never find a message the sender deposited afterwards. Such a late
// message would otherwise match the receiver's *next* receive from that
// sender and deliver one operation's payload as another's.
func (t *mboxTable) deposit(dst, src, tag int, data []byte, pb *mpi.PooledBuf) bool {
	w := t.world
	if w.aborted.Load() || w.interrupted.Load() || w.dead.get(dst) {
		return false
	}
	s := t.shardFor(dst)
	s.mu.Lock()
	if w.dead.get(src) {
		s.mu.Unlock()
		return false
	}
	b := s.box(dst)
	b.depositLocked(s, src, tag, data, pb)
	if !b.dirty {
		b.dirty = true
		s.dirty = append(s.dirty, b)
	}
	w.met.mailboxHWM.SetMax(int64(b.nq))
	s.signalArrival(b, src, tag)
	s.mu.Unlock()
	return true
}

// receive blocks until a message matching (src, tag) is available and
// removes and returns it. It unblocks with an error when the owner is
// killed, the world aborts, or a specific awaited peer dies first.
// A message already delivered before the peer died is still returned:
// death invalidates only *future* traffic.
//
// Waiter protocol: the waiter registers (under the shard lock) before
// its final liveness check, then blocks on the selector's condition —
// never re-polling. A concurrent Kill stores the dead bit first and
// reads hasWaiters second; in the seq-cst total order either the kill's
// flag read sees this waiter (and the broadcast reaches it), or this
// waiter's liveness check sees the dead bit (and it never parks). Both
// orders are safe; there is no window for a missed wakeup.
func (t *mboxTable) receive(owner, src, tag int) (mpi.Message, error) {
	s := t.shardFor(owner)
	s.mu.Lock()
	b := s.box(owner)
	var q *waitQueue
	k := waitKey{src, tag}
	for {
		if e, ok := b.match(s, src, tag); ok {
			if q != nil {
				s.deregister(b, k, q)
			}
			s.mu.Unlock()
			return mpi.NewMessage(e.source, e.tag, e.data, e.buf), nil
		}
		if q == nil {
			q = s.register(b, k)
		}
		if err := t.world.errIfDown(owner, src); err != nil {
			s.deregister(b, k, q)
			s.mu.Unlock()
			return mpi.Message{}, err
		}
		q.cond.Wait()
	}
}

// tryReceive attempts a non-blocking matched receive.
func (t *mboxTable) tryReceive(owner, src, tag int) (mpi.Message, bool, error) {
	s := t.shardFor(owner)
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.box(owner)
	if e, ok := b.match(s, src, tag); ok {
		return mpi.NewMessage(e.source, e.tag, e.data, e.buf), true, nil
	}
	if err := t.world.errIfDown(owner, src); err != nil {
		return mpi.Message{}, true, err
	}
	return mpi.Message{}, false, nil
}

// probe blocks until a matching message is available and returns its
// envelope without consuming it.
func (t *mboxTable) probe(owner, src, tag int) (mpi.Status, error) {
	s := t.shardFor(owner)
	s.mu.Lock()
	b := s.box(owner)
	var q *waitQueue
	k := waitKey{src, tag}
	for {
		if e, ok := b.peek(src, tag); ok {
			if q != nil {
				s.deregister(b, k, q)
			}
			// The probe may have absorbed its queue's per-message Signal
			// without consuming the message; chain the wakeup onward
			// (routed by the envelope's real coordinates so every queue
			// that matches it is re-signaled) so a sibling receive parked
			// on the same selector is not stranded with a deliverable
			// message in the box.
			s.signalArrival(b, e.source, e.tag)
			s.mu.Unlock()
			return mpi.Status{Source: e.source, Tag: e.tag, Len: len(e.data)}, nil
		}
		if q == nil {
			q = s.register(b, k)
		}
		if err := t.world.errIfDown(owner, src); err != nil {
			s.deregister(b, k, q)
			s.mu.Unlock()
			return mpi.Status{}, err
		}
		q.cond.Wait()
	}
}

// pending returns the number of unmatched messages addressed to rank,
// for tests and the bookmark-exchange verifier.
func (t *mboxTable) pending(rank int) int {
	s := t.shardFor(rank)
	s.mu.Lock()
	defer s.mu.Unlock()
	if b := s.boxes[rank]; b != nil {
		return b.nq
	}
	return 0
}

// wakeAll broadcasts every registered waiter so it re-checks its
// liveness predicates. Only shards advertising waiters are locked, and
// within a shard only the active wait queues are walked: the cost is
// O(parked waiters), not O(world size). Returns the number of
// registered waiters notified — q.n counts a waiter from register to
// deregister, so one that is momentarily awake re-scanning (not blocked
// in Wait) is included even though the Broadcast does not unpark it.
// The count is therefore an upper bound on goroutines actually woken;
// it equals them exactly when every registered waiter is quiescently
// parked, which is the regime the epoch-gate wakeup budget tests
// arrange before asserting on it.
func (t *mboxTable) wakeAll() int {
	woken := 0
	for i := range t.shards {
		s := &t.shards[i]
		if !s.hasWaiters.Load() {
			continue
		}
		s.mu.Lock()
		for _, q := range s.active {
			q.cond.Broadcast()
			woken += q.n
		}
		s.mu.Unlock()
	}
	return woken
}

// purgeRank discards rank's unmatched messages and wakes its waiters
// (Revive: the previous incarnation's unread traffic belongs to the
// interrupted epoch).
func (t *mboxTable) purgeRank(rank int) {
	s := t.shardFor(rank)
	s.mu.Lock()
	if b := s.boxes[rank]; b != nil {
		b.purgeLocked(s)
		for _, q := range b.waiters {
			q.cond.Broadcast()
		}
	}
	s.mu.Unlock()
}

// purgeAll discards every rank's unmatched messages and wakes all
// waiters — the epoch boundary sweep. Only boxes on the dirty lists are
// visited, so the cost is O(ranks with traffic since the last sweep).
func (t *mboxTable) purgeAll() {
	for i := range t.shards {
		s := &t.shards[i]
		// Lock unconditionally: a shard with traffic but no waiters has
		// a clear hasWaiters flag yet still needs its purge.
		s.mu.Lock()
		for _, b := range s.dirty {
			b.purgeLocked(s)
			b.dirty = false
		}
		s.dirty = s.dirty[:0]
		for _, q := range s.active {
			q.cond.Broadcast()
		}
		s.mu.Unlock()
	}
}
