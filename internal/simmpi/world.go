// Package simmpi is the message-passing runtime substituting for Open MPI
// in this reproduction: a World of ranks executing as goroutines inside
// one process, communicating through matched mailboxes with MPI
// point-to-point semantics (FIFO per (source, tag), wildcard receives,
// buffered eager sends, non-blocking requests).
//
// The runtime also provides the failure surface the paper's experimental
// framework needs: any rank can be killed at any time (fail-stop), after
// which its own operations return mpi.ErrKilled, messages sent to it are
// dropped, and receives posted against it complete with mpi.ErrPeerDead.
// An entire World can be aborted, unblocking every rank with
// mpi.ErrAborted — this is how the orchestrator tears a job down when a
// whole replica sphere has died and a restart from checkpoint is needed.
//
// The runtime is sized for the paper's operating point: worlds of 100k+
// virtual ranks. Mailboxes live in a lock-striped shard table (see
// table.go), liveness is a compact atomic bitset, and every liveness
// transition costs O(parked waiters + ranks with traffic), never O(world
// size).
package simmpi

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/mpi"
	"repro/internal/obs"
)

// World is a set of communicating ranks, the analogue of an MPI job's
// MPI_COMM_WORLD plus its runtime.
type World struct {
	size      int
	sendDelay time.Duration
	table     *mboxTable
	comms     []*Comm

	// pool is the payload buffer arena, the process-wide
	// mpi.SharedArena; nil when pooling is disabled (mpi.WithoutPooling),
	// in which case every send allocates fresh.
	pool *mpi.Arena

	// st is the liveness and epoch state every rank's receive engine
	// checks; its DeathSeq is what a communicator's notifier compares
	// against its acknowledgement watermark.
	st    mpi.State
	alive atomic.Int64

	// ft is the round behind mpi.Comm.Agree and Shrink, guarded by ftMu;
	// a kill excuses the rank. Waiters park on ftCond.
	ftMu   sync.Mutex
	ftCond sync.Cond
	ft     *mpi.Round

	// livenessWakeups counts registered waiters notified by liveness
	// broadcasts (Kill/Abort/Interrupt/Resume) — an upper bound on
	// goroutines unparked (see LivenessWakeups). The epoch-gate
	// regression tests pin this to the number of parked waiters, proving
	// transitions do not scale with world size.
	livenessWakeups atomic.Uint64

	// Telemetry. reg defaults to a fresh private registry; mpi.WithObs
	// injects a shared one (or nil to disable entirely). flight is the
	// bounded forensic recorder (mpi.WithFlight), nil when disabled.
	reg    *obs.Registry
	met    worldMetrics
	flight *obs.Recorder
}

// worldMetrics holds the runtime's instruments, resolved once at world
// construction so hot paths pay a single atomic add (or a nil check when
// telemetry is disabled).
type worldMetrics struct {
	sends      *obs.Counter // physical messages accepted from senders
	recvs      *obs.Counter // messages matched by receivers
	sendBytes  *obs.Counter // payload bytes pushed by senders
	drops      *obs.Counter // sends discarded because the peer was dead
	kills      *obs.Counter // fail-stops (replaces the old ad-hoc deaths counter)
	aborts     *obs.Counter // world teardowns
	interrupts *obs.Counter // epoch pauses for in-place recovery
	revives    *obs.Counter // dead ranks brought back by Revive
	mailboxHWM *obs.Gauge   // deepest unmatched-message backlog of any rank

	// Zero-copy path instruments.
	bytesPooled  *obs.Counter // payload bytes carried in arena buffers
	copiesElided *obs.Counter // deep copies avoided by shared (COW) sends
}

func newWorldMetrics(reg *obs.Registry, size int) worldMetrics {
	return worldMetrics{
		sends:        reg.StripedCounter("simmpi_sends_total", size),
		recvs:        reg.StripedCounter("simmpi_recvs_total", size),
		sendBytes:    reg.StripedCounter("simmpi_send_bytes_total", size),
		drops:        reg.Counter("simmpi_drops_total"),
		kills:        reg.Counter("simmpi_kills_total"),
		aborts:       reg.Counter("simmpi_aborts_total"),
		interrupts:   reg.Counter("simmpi_interrupts_total"),
		revives:      reg.Counter("simmpi_revives_total"),
		mailboxHWM:   reg.Gauge("simmpi_mailbox_depth_hwm"),
		bytesPooled:  reg.StripedCounter("simmpi_bytes_pooled_total", size),
		copiesElided: reg.StripedCounter("simmpi_copies_elided_total", size),
	}
}

// Option configures a World. It is the shared mpi.Option surface: the
// same option list a caller hands to NewWorld also configures
// redundancy.Wrap, each constructor applying the fields it understands.
type Option = mpi.Option

// NewWorld creates a world with n ranks, all alive. Options are the
// shared mpi.Option set; NewWorld applies SendDelay, Obs, and pooling
// and ignores the redundancy-layer fields (degree, hash comparison,
// corrupt ranks), so one option list can configure the whole stack.
//
// Construction is cheap per rank: mailboxes materialize lazily in the
// shard table on first traffic, and per-peer counters are dense arrays
// only below denseCountThreshold ranks, so a 100k-rank world costs
// megabytes, not the O(n²) the dense layout would.
func NewWorld(n int, opts ...Option) (*World, error) {
	if n <= 0 {
		return nil, fmt.Errorf("simmpi: world size %d: %w", n, mpi.ErrInvalidRank)
	}
	o := mpi.ResolveOptions(opts)
	w := &World{
		size:      n,
		sendDelay: o.SendDelay,
		comms:     make([]*Comm, n),
	}
	w.st.Dead = mpi.NewBitset(n)
	w.alive.Store(int64(n))
	w.table = newMboxTable(w, n)
	if !o.NoPooling {
		w.pool = mpi.SharedArena()
	}
	if o.ObsSet {
		w.reg = o.Obs
	} else {
		w.reg = obs.NewRegistry()
	}
	w.met = newWorldMetrics(w.reg, w.size)
	w.flight = o.Flight
	w.ft = mpi.NewRound(n)
	w.ftCond.L = &w.ftMu
	dense := n <= denseCountThreshold
	for i := range w.comms {
		c := &Comm{world: w, rank: i, stripe: w.table.shardFor(i)}
		if dense {
			c.sent.dense = make([]atomic.Uint64, n)
			c.recv.dense = make([]atomic.Uint64, n)
		}
		w.comms[i] = c
	}
	return w, nil
}

// Size returns the number of ranks in the world.
func (w *World) Size() int { return w.size }

// Comm returns the communicator endpoint for the given rank.
func (w *World) Comm(rank int) (*Comm, error) {
	if rank < 0 || rank >= w.size {
		return nil, fmt.Errorf("simmpi: rank %d of %d: %w", rank, w.size, mpi.ErrInvalidRank)
	}
	return w.comms[rank], nil
}

// Endpoint implements mpi.Transport; it is Comm behind the
// backend-neutral interface.
func (w *World) Endpoint(rank int) (mpi.Comm, error) { return w.Comm(rank) }

var _ mpi.Transport = (*World)(nil)

// Kill marks a rank failed (fail-stop). Its pending and future operations
// error, messages addressed to it are dropped, and receives posted
// against it by peers fail with mpi.ErrPeerDead. Killing a dead rank is a
// no-op.
//
// Cost is O(parked waiters): the dead bit is one CAS, and the wakeup
// broadcast visits only shards advertising waiters. The bit is published
// (sequentially consistent) before the waiter flags are read, and
// waiters register before their final liveness check, so a kill can
// never slip between a waiter's check and its park.
func (w *World) Kill(rank int) {
	if rank < 0 || rank >= w.size {
		return
	}
	if !w.st.Kill(rank) {
		return
	}
	w.alive.Add(-1)
	w.met.kills.Inc()
	w.flight.Emit("dead", rank, -1, 0, 0)
	w.livenessWakeups.Add(uint64(w.table.wakeAll()))
	w.ftUpdate(func(r *mpi.Round) { r.Excuse(rank) })
}

// Alive reports whether the rank is still alive.
func (w *World) Alive(rank int) bool {
	if rank < 0 || rank >= w.size {
		return false
	}
	return !w.st.Dead.Get(rank)
}

// AliveCount returns the number of live ranks in O(1).
func (w *World) AliveCount() int { return int(w.alive.Load()) }

// ForEachDead calls fn for every dead rank in ascending order, skipping
// fully-live regions 64 ranks at a time. This is the O(failures) sweep
// the recovery paths use instead of polling Alive across the world.
// Concurrent Kill/Revive make the iteration a racy view, not a snapshot;
// call it from a quiesced world (epoch gate held, injector stopped) when
// an exact set is needed.
func (w *World) ForEachDead(fn func(rank int)) { w.st.Dead.ForEachSet(fn) }

// ForEachLive calls fn for every live rank in ascending order. The same
// snapshot caveat as ForEachDead applies.
func (w *World) ForEachLive(fn func(rank int)) { w.st.Dead.ForEachClear(fn) }

// Deaths returns the number of kills so far, read from the
// simmpi_kills_total counter (zero when telemetry is disabled via
// mpi.WithObs(nil)).
func (w *World) Deaths() int { return int(w.met.kills.Value()) }

// LivenessWakeups returns the cumulative number of registered waiters
// notified by liveness broadcasts (Kill, Abort, Interrupt, Resume). A
// waiter counts from register to deregister, so one that is awake
// re-scanning when the broadcast lands is included even though no
// goroutine is unparked for it: the value is an upper bound on actual
// wakeups, exact when all waiters are quiescently parked. Regression
// tests arrange that regime and use it to pin the wakeup cost of an
// epoch transition to the number of parked waiters, independent of
// world size.
func (w *World) LivenessWakeups() uint64 { return w.livenessWakeups.Load() }

// Obs returns the registry holding this world's runtime instruments
// (nil when telemetry was disabled with mpi.WithObs(nil)).
func (w *World) Obs() *obs.Registry { return w.reg }

// Abort tears the world down: every blocked or future operation on any
// rank returns mpi.ErrAborted. Used on job failure before a restart.
func (w *World) Abort() {
	if w.st.Aborted.Swap(true) {
		return
	}
	w.met.aborts.Inc()
	w.flight.Emit("abort", -1, -1, 0, 0)
	w.livenessWakeups.Add(uint64(w.table.wakeAll()))
	w.ftUpdate(nil)
}

// Aborted reports whether the world has been aborted.
func (w *World) Aborted() bool { return w.st.Aborted.Load() }

// Interrupt pauses the current epoch: every blocked or future operation
// on any rank returns mpi.ErrInterrupted (messages already queued can
// still be matched; new deposits are dropped). Unlike Abort the world
// stays usable — the orchestrator revives dead ranks, then calls Resume
// to start a fresh epoch in which every rank restarts from the last
// checkpoint. The open Agree/Shrink round is discarded, so none of its
// arrivals leaks into the next epoch. Interrupting an interrupted or
// aborted world is a no-op.
func (w *World) Interrupt() {
	if w.st.Aborted.Load() || w.st.Interrupted.Swap(true) {
		return
	}
	w.met.interrupts.Inc()
	w.flight.Emit("interrupt", -1, -1, 0, 0)
	w.livenessWakeups.Add(uint64(w.table.wakeAll()))
	w.ftUpdate((*mpi.Round).Reset)
}

// Interrupted reports whether the world is paused for recovery.
func (w *World) Interrupted() bool { return w.st.Interrupted.Load() }

// Revive brings a dead rank back (the respawn half of rejoin support).
// The rank's mailbox is wiped: its previous incarnation's unread traffic
// belongs to the interrupted epoch. Only meaningful while the world is
// interrupted — reviving mid-epoch would desynchronise peers that
// already observed the death. Reviving a live rank is a no-op.
func (w *World) Revive(rank int) {
	if rank < 0 || rank >= w.size {
		return
	}
	if !w.st.Dead.Clear(rank) {
		return
	}
	w.alive.Add(1)
	w.met.revives.Inc()
	w.flight.Emit("revive", rank, -1, 0, 0)
	w.table.shardFor(rank).Purge(rank)
	w.ftUpdate(func(r *mpi.Round) { r.Admit(rank) })
}

// Resume ends an interrupt and starts a fresh epoch: every mailbox with
// traffic is purged (in-flight messages of the interrupted epoch must
// not leak into the recomputation) and every communicator's per-peer
// sent/received totals are zeroed so the bookmark-exchange quiescence
// check starts from a symmetric state. Callers must ensure all rank
// goroutines are parked before resuming. The purge walks only the
// shards' dirty lists — ranks untouched since the last sweep cost
// nothing.
func (w *World) Resume() {
	if !w.st.Interrupted.Load() {
		return
	}
	w.table.purgeAll()
	for _, c := range w.comms {
		c.resetCounts()
	}
	w.st.Interrupted.Store(false)
	w.flight.Emit("resume", -1, -1, 0, 0)
	w.livenessWakeups.Add(uint64(w.table.wakeAll()))
}

// RankError pairs a rank with the error its function returned.
type RankError struct {
	Rank int
	Err  error
}

func (e RankError) Error() string { return fmt.Sprintf("rank %d: %v", e.Rank, e.Err) }

func (e RankError) Unwrap() error { return e.Err }

// Run executes fn once per rank, each on its own goroutine, and waits for
// all of them. It returns the first "real" failure: errors caused by
// kills and aborts (mpi.ErrKilled, mpi.ErrPeerDead, mpi.ErrAborted) are
// expected under failure injection and reported via the second return
// value instead.
//
// A real failure aborts the world at once: its peers may be blocked on
// a message the failed rank will never send, so they unwind with
// mpi.ErrAborted, which Run reports among the failures.
func (w *World) Run(fn func(c *Comm) error) (appErr error, failureErrs []RankError) {
	errs := make([]error, w.size)
	var wg sync.WaitGroup
	wg.Add(w.size)
	for i := 0; i < w.size; i++ {
		go func(rank int) {
			defer wg.Done()
			err := fn(w.comms[rank])
			errs[rank] = err
			if err != nil && !isFailureErr(err) {
				w.Abort()
			}
		}(i)
	}
	wg.Wait()
	for rank, err := range errs {
		if err == nil {
			continue
		}
		if isFailureErr(err) {
			failureErrs = append(failureErrs, RankError{Rank: rank, Err: err})
			continue
		}
		if appErr == nil {
			appErr = RankError{Rank: rank, Err: err}
		}
	}
	return appErr, failureErrs
}

func isFailureErr(err error) bool {
	return errors.Is(err, mpi.ErrKilled) ||
		errors.Is(err, mpi.ErrPeerDead) ||
		errors.Is(err, mpi.ErrAborted) ||
		errors.Is(err, mpi.ErrInterrupted) ||
		errors.Is(err, mpi.ErrFailurePending)
}
