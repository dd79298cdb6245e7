package simmpi

import (
	"sync"

	"repro/internal/mpi"
)

// SetErrhandler implements mpi.Comm.
func (c *Comm) SetErrhandler(fn func(mpi.FailureInfo)) {
	c.fault.SetHandler(fn)
	c.stripe.Wake(c.rank)
}

// FailureAck implements mpi.Comm: it acknowledges the failures observed
// so far (wildcards proceed past them afterwards) and returns the
// currently-dead ranks in ascending order.
func (c *Comm) FailureAck() []int { return c.fault.Ack(&c.world.st) }

// Agree implements mpi.Comm: the fault-tolerant AND across survivors.
// Contributions from ranks that fail during the call may or may not be
// folded in (exactly the latitude MPI_Comm_agree allows); survivors
// always observe the identical result.
func (c *Comm) Agree(flag bool) (bool, error) {
	res, err := c.world.agreeGate.run(c.rank, flag)
	if err != nil {
		return false, err
	}
	if c.world.st.Dead.Get(c.rank) {
		return false, mpi.ErrKilled
	}
	return res.flag, nil
}

// Shrink implements mpi.Comm: survivors agree on the live membership
// and each wraps its endpoint in a densely renumbered mpi.Shrunk. The
// agreement is the gate's live-arrival barrier, so every survivor sees
// the same membership even when ranks die during the call.
func (c *Comm) Shrink() (mpi.Comm, error) {
	res, err := c.world.shrinkGate.run(c.rank, true)
	if err != nil {
		return nil, err
	}
	sc, err := mpi.FinishShrink(c, res.survivors)
	if err != nil {
		return nil, err
	}
	c.world.flight.Emit("shrink", c.rank, -1, len(res.survivors), 0)
	return sc, nil
}

// ftRound is one invocation of a fault-tolerant collective. Completion
// requires every *live* rank to have arrived — ranks that die before or
// during the round are excused by the kill hook, so the barrier makes
// progress through failures, which is the whole point.
type ftRound struct {
	arrived []bool
	counted []bool // arrived while still alive (contributes to liveIn)
	liveIn  int
	flag    bool // AND-fold of contributions

	completed bool
	survivors []int // live set at completion (ascending)
}

// ftGate serializes one kind of fault-tolerant collective (agree or
// shrink) for a world. Waiters park on the condition variable; kills,
// aborts, and interrupts broadcast so no waiter outlives the condition
// it is waiting for.
type ftGate struct {
	w    *World
	mu   sync.Mutex
	cond *sync.Cond
	cur  *ftRound
}

func newFtGate(w *World) *ftGate {
	g := &ftGate{w: w}
	g.cond = sync.NewCond(&g.mu)
	g.cur = g.newRound()
	return g
}

func (g *ftGate) newRound() *ftRound {
	return &ftRound{
		arrived: make([]bool, g.w.size),
		counted: make([]bool, g.w.size),
		flag:    true,
	}
}

// run contributes flag for rank and blocks until the round completes or
// the caller's world state makes completion irrelevant (own death,
// abort, interrupt).
func (g *ftGate) run(rank int, flag bool) (ftRound, error) {
	w := g.w
	if err := w.st.ErrIfDown(rank); err != nil {
		return ftRound{}, err
	}
	g.mu.Lock()
	r := g.cur
	if r.arrived[rank] {
		g.mu.Unlock()
		return ftRound{}, mpi.ErrInvalidRank // concurrent double arrival: protocol misuse
	}
	r.arrived[rank] = true
	if !flag {
		r.flag = false
	}
	if !w.st.Dead.Get(rank) {
		r.counted[rank] = true
		r.liveIn++
	}
	g.checkCompleteLocked(r)
	for !r.completed {
		if w.st.Aborted.Load() {
			g.mu.Unlock()
			return ftRound{}, mpi.ErrAborted
		}
		if w.st.Interrupted.Load() {
			g.mu.Unlock()
			return ftRound{}, mpi.ErrInterrupted
		}
		if w.st.Dead.Get(rank) {
			g.mu.Unlock()
			return ftRound{}, mpi.ErrKilled
		}
		g.cond.Wait()
	}
	out := *r
	g.mu.Unlock()
	return out, nil
}

// checkCompleteLocked completes the round when every live rank has
// arrived. The live snapshot taken here is the round's survivor set.
func (g *ftGate) checkCompleteLocked(r *ftRound) {
	w := g.w
	if r.completed || w.st.Aborted.Load() || w.st.Interrupted.Load() {
		return
	}
	if r.liveIn == 0 || r.liveIn != int(w.alive.Load()) {
		return
	}
	r.completed = true
	w.st.Dead.ForEachClear(func(p int) { r.survivors = append(r.survivors, p) })
	g.cur = g.newRound()
	g.cond.Broadcast()
}

// onKill excuses a dead rank from the current round (and wakes it if it
// was parked): the barrier must not wait for the dead.
func (g *ftGate) onKill(rank int) {
	g.mu.Lock()
	r := g.cur
	if r.counted[rank] {
		r.counted[rank] = false
		r.liveIn--
	}
	g.checkCompleteLocked(r)
	g.cond.Broadcast()
	g.mu.Unlock()
}

// wake unparks every waiter so it can observe an abort or interrupt.
func (g *ftGate) wake() {
	g.mu.Lock()
	g.cond.Broadcast()
	g.mu.Unlock()
}

// reset discards the current round at an epoch boundary (Resume): the
// interrupted epoch's partial arrivals must not leak into the next one.
func (g *ftGate) reset() {
	g.mu.Lock()
	g.cur = g.newRound()
	g.cond.Broadcast()
	g.mu.Unlock()
}
