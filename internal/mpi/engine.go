package mpi

import (
	"sync"
	"sync/atomic"
)

// This file is the rank-side receive engine both transports deliver
// into: per-destination boxes (rankBox) with pair-indexed message queues
// and selector-keyed wait queues, grouped under lock stripes (Stripe).
// The simulated world stripes every rank's box across up to 512
// Stripes; a worker process holds one Stripe for its one rank. Either
// way a deposit's liveness check, a receive's match and its park run
// under the same stripe lock, against the transport's State.

// envelope is a message in flight. buf is the pooled-buffer handle data
// lives in (nil for unpooled or oversized payloads); the reference it
// carries transfers to the receiver on match, or is released on purge.
// seq is the arrival stamp at the destination box, the total order that
// makes wildcard matching exact across pairs.
type envelope struct {
	source int
	tag    int
	data   []byte
	buf    *PooledBuf
	seq    uint64
}

// pairKey identifies one (source, tag) message class at a destination —
// the granularity at which MPI guarantees FIFO ordering.
type pairKey struct {
	src, tag int
}

// pairQueue is the FIFO of unmatched messages for one (source, tag)
// pair. It is a sliding-window slice: pop advances head instead of
// re-slicing the front, and the backing array is reused once drained, so
// the steady-state deposit/match cycle allocates nothing. Empty queues
// are kept in the box's pair map (and on the stripe free list once
// evicted) because collective tag windows revisit the same pairs every
// iteration.
type pairQueue struct {
	key      pairKey
	head     int
	msgs     []envelope
	nextFree *pairQueue
}

func (q *pairQueue) empty() bool { return q.head == len(q.msgs) }

func (q *pairQueue) headSeq() uint64 { return q.msgs[q.head].seq }

func (q *pairQueue) push(e envelope) { q.msgs = append(q.msgs, e) }

func (q *pairQueue) pop() envelope {
	e := q.msgs[q.head]
	q.msgs[q.head] = envelope{} // drop payload references eagerly
	q.head++
	if q.head == len(q.msgs) {
		q.msgs = q.msgs[:0]
		q.head = 0
	}
	return e
}

// waitKey is a blocked operation's (source, tag) selector, wildcards
// included — the granularity of targeted wakeups.
type waitKey struct {
	src, tag int
}

// waitQueue holds the waiters blocked on one selector of one box. n
// counts registered waiters (a waiter stays registered while it re-scans
// between wakeups, so a Signal aimed at its selector is never wasted on
// an empty queue). Queues are recycled through the stripe free list —
// the condvar is rebound once to the stripe mutex and reused forever, so
// parking allocates nothing in steady state. activeIdx is the queue's
// position in the stripe's active list (-1 when idle), which is what
// makes liveness broadcasts O(parked waiters) instead of O(world size).
type waitQueue struct {
	cond      *sync.Cond
	n         int
	activeIdx int
	nextFree  *waitQueue
}

// rankBox holds the unmatched messages addressed to one rank, indexed by
// (source, tag) pair, plus the rank's parked waiters. Receivers match
// under the owning stripe's lock: exact selectors are a single map
// lookup + FIFO pop; wildcard selectors take the minimum arrival stamp
// across matching pairs — exactly MPI's rule (FIFO per (source, tag),
// wildcards selecting the earliest arrival among all matching pairs).
type rankBox struct {
	pairs   map[pairKey]*pairQueue
	waiters map[waitKey]*waitQueue
	nq      int    // queued messages across all pairs
	seq     uint64 // next arrival stamp
	dirty   bool   // on the stripe's dirty list (has seen deposits since last sweep)
}

func newRankBox() *rankBox {
	// Size hints pre-allocate the first bucket so the first deposit and
	// first park do not each pay a map-grow allocation on the hot path.
	return &rankBox{
		pairs:   make(map[pairKey]*pairQueue, 8),
		waiters: make(map[waitKey]*waitQueue, 8),
	}
}

// pairsGCThreshold bounds the number of retained-but-empty pair queues
// per box: below it, empties stay mapped for reuse (collectives cycle
// through a small set of pairs); above it, drained queues are evicted to
// the stripe free list so worlds with churning tag patterns do not grow
// monotonically.
const pairsGCThreshold = 64

// match finds, removes, and returns the earliest-arrived queued envelope
// matching the selectors. The caller holds the owning stripe's lock.
func (b *rankBox) match(s *Stripe, src, tag int) (envelope, bool) {
	if src != AnySource && tag != AnyTag {
		q := b.pairs[pairKey{src, tag}]
		if q == nil || q.empty() {
			return envelope{}, false
		}
		return b.popFrom(s, q), true
	}
	q := b.peekWild(src, tag)
	if q == nil {
		return envelope{}, false
	}
	return b.popFrom(s, q), true
}

// peek returns the earliest matching envelope without consuming it
// (probe semantics). The caller holds the owning stripe's lock.
func (b *rankBox) peek(src, tag int) (envelope, bool) {
	if src != AnySource && tag != AnyTag {
		q := b.pairs[pairKey{src, tag}]
		if q == nil || q.empty() {
			return envelope{}, false
		}
		return q.msgs[q.head], true
	}
	q := b.peekWild(src, tag)
	if q == nil {
		return envelope{}, false
	}
	return q.msgs[q.head], true
}

// peekWild selects the non-empty pair queue with the earliest head
// arrival among those matching a wildcard selector.
func (b *rankBox) peekWild(src, tag int) *pairQueue {
	if b.nq == 0 {
		return nil
	}
	var best *pairQueue
	for k, q := range b.pairs {
		if q.empty() {
			continue
		}
		if src != AnySource && k.src != src {
			continue
		}
		if tag != AnyTag && k.tag != tag {
			continue
		}
		if best == nil || q.headSeq() < best.headSeq() {
			best = q
		}
	}
	return best
}

// popFrom removes the head of q, evicting the drained queue to the
// stripe free list when the box's pair map has grown past the GC
// threshold.
func (b *rankBox) popFrom(s *Stripe, q *pairQueue) envelope {
	e := q.pop()
	b.nq--
	if q.empty() && len(b.pairs) > pairsGCThreshold {
		delete(b.pairs, q.key)
		s.freePairQueue(q)
	}
	return e
}

// purgeLocked discards all unmatched messages: stale traffic from an
// epoch being rolled back, or addressed to a rank incarnation that no
// longer exists. Pooled buffers ride envelopes with a reference each, so
// purge releases them back to the arena instead of leaking them.
func (b *rankBox) purgeLocked(s *Stripe) {
	for k, q := range b.pairs {
		for !q.empty() {
			q.pop().buf.Release()
		}
		delete(b.pairs, k)
		s.freePairQueue(q)
	}
	b.nq = 0
}

// Stripe is one lock stripe of the receive engine: the boxes of the
// ranks it owns, their waiter registration and the free lists. All of
// it is guarded by one mutex, which a transport may also take (Lock) for
// state it keeps beside its boxes; hasWaiters is the lock-free hint
// WakeAll reads to skip idle stripes. The zero Stripe is ready for use.
type Stripe struct {
	mu    sync.Mutex
	boxes map[int]*rankBox // lazily created per destination rank

	// active is the dense list of wait queues with registered waiters —
	// the stripe-local work list a liveness broadcast walks. Entries
	// track their index for O(1) swap-removal.
	active     []*waitQueue
	nwaiters   int
	hasWaiters atomic.Bool

	// dirty lists boxes that have seen deposits since the last purge
	// sweep, so PurgeDirty touches only ranks with traffic.
	dirty []*rankBox

	// Free lists recycle the two park-path allocations (selector wait
	// queues and pair FIFOs), which is what takes the collective fan-in
	// path from ~2 allocations per message to zero in steady state.
	freeWait *waitQueue
	freePair *pairQueue
}

// Lock takes the stripe's mutex.
func (s *Stripe) Lock() { s.mu.Lock() }

// Unlock releases the stripe's mutex.
func (s *Stripe) Unlock() { s.mu.Unlock() }

// Reserve materializes rank's box up front, so its first messages pay no
// lazy-initialization allocations. Worlds too large to reserve every box
// leave them lazy: a rank that never receives traffic then costs one map
// slot, not a box.
func (s *Stripe) Reserve(rank int) {
	s.mu.Lock()
	s.box(rank)
	if s.dirty == nil {
		s.dirty = make([]*rankBox, 0, 4)
		s.active = make([]*waitQueue, 0, 4)
	}
	s.mu.Unlock()
}

// box returns (creating lazily) the rank's box. Caller holds s.mu.
func (s *Stripe) box(rank int) *rankBox {
	b := s.boxes[rank]
	if b == nil {
		if s.boxes == nil {
			s.boxes = make(map[int]*rankBox)
		}
		b = newRankBox()
		s.boxes[rank] = b
	}
	return b
}

func (s *Stripe) allocPairQueue(k pairKey) *pairQueue {
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

func (s *Stripe) freePairQueue(q *pairQueue) {
	q.nextFree = s.freePair
	s.freePair = q
}

// register parks bookkeeping for one waiter on (box, key): the waiter is
// counted before its final liveness re-check, which is the ordering the
// lock-free hasWaiters hint depends on (see WakeAll). Caller holds s.mu.
func (s *Stripe) register(b *rankBox, k waitKey) *waitQueue {
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
func (s *Stripe) deregister(b *rankBox, k waitKey, q *waitQueue) {
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
// exhaustively under the stripe lock before parking again, so it cannot
// park with a deliverable message present. Patterns with no registered
// waiters cost one map lookup and no wakeup, so the collective fan-in
// hot path (a single AnySource selector live) still pays for exactly
// one Signal per message. Caller holds s.mu.
func (s *Stripe) signalArrival(b *rankBox, src, tag int) {
	if len(b.waiters) == 0 {
		return
	}
	s.signalKey(b, waitKey{src, tag})
	s.signalKey(b, waitKey{src, AnyTag})
	s.signalKey(b, waitKey{AnySource, tag})
	s.signalKey(b, waitKey{AnySource, AnyTag})
}

func (s *Stripe) signalKey(b *rankBox, k waitKey) {
	if q := b.waiters[k]; q != nil && q.n > 0 {
		q.cond.Signal()
	}
}

// Deposit enqueues a message for dst and reports the box's queue depth
// and whether it was accepted. A deposit into an aborted or interrupted
// world, to a dead rank, or from a dead sender is refused and pb's
// reference released, like a packet to a crashed node (an interrupted
// epoch's traffic is recomputed from the checkpoint anyway). On
// acceptance the reference rides the envelope to the receiver.
//
// The liveness checks run under the stripe lock, where a receive's
// liveness check also runs, so a receive that has reported the sender
// dead can never find a message the sender deposited afterwards. Such a
// late message would otherwise match the receiver's *next* receive from
// that sender and deliver one operation's payload as another's.
func (s *Stripe) Deposit(st *State, dst, src, tag int, data []byte, pb *PooledBuf) (depth int, ok bool) {
	s.mu.Lock()
	if st.Aborted.Load() || st.Interrupted.Load() || st.Dead.Get(dst) || st.Dead.Get(src) {
		s.mu.Unlock()
		pb.Release()
		return 0, false
	}
	b := s.box(dst)
	k := pairKey{src, tag}
	q := b.pairs[k]
	if q == nil {
		q = s.allocPairQueue(k)
		b.pairs[k] = q
	}
	q.push(envelope{source: src, tag: tag, data: data, buf: pb, seq: b.seq})
	b.seq++
	b.nq++
	if !b.dirty {
		b.dirty = true
		s.dirty = append(s.dirty, b)
	}
	depth = b.nq
	s.signalArrival(b, src, tag)
	s.mu.Unlock()
	return depth, true
}

// Receive blocks until a message matching (src, tag) is available for
// owner and removes and returns it. It unblocks with an error when the
// owner is killed, the world aborts or is interrupted, a specific
// awaited peer dies first, or (n's errhandler installed) a wildcard
// meets an unacknowledged failure; n's handler hears of the failure.
// A message already delivered before the peer died is still returned:
// death invalidates only *future* traffic.
//
// Waiter protocol: the waiter registers (under the stripe lock) before
// its final liveness check, then blocks on the selector's condition —
// never re-polling. A concurrent Kill stores the dead bit first and
// reads hasWaiters second; in the seq-cst total order either the kill's
// flag read sees this waiter (and the broadcast reaches it), or this
// waiter's liveness check sees the dead bit (and it never parks). Both
// orders are safe; there is no window for a missed wakeup.
func (s *Stripe) Receive(st *State, n *Notifier, owner, src, tag int) (Message, error) {
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
			return NewMessage(e.source, e.tag, e.data, e.buf), nil
		}
		if q == nil {
			q = s.register(b, k)
		}
		if err := st.errIfWaiting(n, owner, src); err != nil {
			s.deregister(b, k, q)
			s.mu.Unlock()
			n.Fire(err, st)
			return Message{}, err
		}
		q.cond.Wait()
	}
}

// TryReceive is Receive without blocking: done is false when no message
// matches and the owner may keep waiting.
func (s *Stripe) TryReceive(st *State, n *Notifier, owner, src, tag int) (msg Message, done bool, err error) {
	s.mu.Lock()
	b := s.box(owner)
	if e, ok := b.match(s, src, tag); ok {
		s.mu.Unlock()
		return NewMessage(e.source, e.tag, e.data, e.buf), true, nil
	}
	err = st.errIfWaiting(n, owner, src)
	s.mu.Unlock()
	if err != nil {
		n.Fire(err, st)
		return Message{}, true, err
	}
	return Message{}, false, nil
}

// Probe blocks until a matching message is available and returns its
// envelope without consuming it; it fails like Receive.
func (s *Stripe) Probe(st *State, n *Notifier, owner, src, tag int) (Status, error) {
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
			return Status{Source: e.source, Tag: e.tag, Len: len(e.data)}, nil
		}
		if q == nil {
			q = s.register(b, k)
		}
		if err := st.errIfWaiting(n, owner, src); err != nil {
			s.deregister(b, k, q)
			s.mu.Unlock()
			n.Fire(err, st)
			return Status{}, err
		}
		q.cond.Wait()
	}
}

// Pending returns the number of unmatched messages addressed to rank.
func (s *Stripe) Pending(rank int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if b := s.boxes[rank]; b != nil {
		return b.nq
	}
	return 0
}

// Waiters returns the number of registered waiters.
func (s *Stripe) Waiters() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nwaiters
}

// WakeAll broadcasts every registered waiter so it re-checks its
// liveness predicates. A stripe without waiters is skipped without
// taking its lock, and within a stripe only the active wait queues are
// walked: the cost is O(parked waiters), not O(ranks). Returns the
// number of registered waiters notified — q.n counts a waiter from
// register to deregister, so one that is momentarily awake re-scanning
// (not blocked in Wait) is included even though the Broadcast does not
// unpark it. The count is therefore an upper bound on goroutines
// actually woken; it equals them exactly when every registered waiter
// is quiescently parked, which is the regime the epoch-gate wakeup
// budget tests arrange before asserting on it.
func (s *Stripe) WakeAll() int {
	if !s.hasWaiters.Load() {
		return 0
	}
	woken := 0
	s.mu.Lock()
	for _, q := range s.active {
		q.cond.Broadcast()
		woken += q.n
	}
	s.mu.Unlock()
	return woken
}

// Wake broadcasts rank's waiters so they re-check their liveness
// predicates (an errhandler was installed or removed).
func (s *Stripe) Wake(rank int) {
	s.mu.Lock()
	if b := s.boxes[rank]; b != nil {
		for _, q := range b.waiters {
			q.cond.Broadcast()
		}
	}
	s.mu.Unlock()
}

// Purge discards rank's unmatched messages and wakes its waiters (a
// revived rank: its previous incarnation's unread traffic belongs to
// the interrupted epoch).
func (s *Stripe) Purge(rank int) {
	s.mu.Lock()
	if b := s.boxes[rank]; b != nil {
		b.purgeLocked(s)
		for _, q := range b.waiters {
			q.cond.Broadcast()
		}
	}
	s.mu.Unlock()
}

// PurgeDirty discards the unmatched messages of every box that has seen
// deposits since the last sweep and wakes all waiters — the epoch
// boundary sweep, O(ranks with traffic) per stripe.
func (s *Stripe) PurgeDirty() {
	// Lock unconditionally: a stripe with traffic but no waiters has a
	// clear hasWaiters flag yet still needs its purge.
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
