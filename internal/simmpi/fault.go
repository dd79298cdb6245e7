package simmpi

import "repro/internal/mpi"

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
	out, _, err := c.world.agree(c.rank, flag, false)
	if err != nil {
		return false, err
	}
	if c.world.st.Dead.Get(c.rank) {
		return false, mpi.ErrKilled
	}
	return out, nil
}

// Shrink implements mpi.Comm: survivors agree on the live membership
// and each wraps its endpoint in a densely renumbered mpi.Shrunk. The
// agreement is the world's round, so every survivor sees the same
// membership even when ranks die during the call.
func (c *Comm) Shrink() (mpi.Comm, error) {
	_, survivors, err := c.world.agree(c.rank, true, true)
	if err != nil {
		return nil, err
	}
	sc, err := mpi.FinishShrink(c, survivors)
	if err != nil {
		return nil, err
	}
	c.world.flight.Emit("shrink", c.rank, -1, len(survivors), 0)
	return sc, nil
}

// agree arrives rank in the world's round and parks until the round
// completes or the rank's world state makes completion irrelevant (own
// death, abort, interrupt). Kill, Abort and Interrupt broadcast ftCond
// (ftUpdate) so no waiter outlives the condition it waits for.
func (w *World) agree(rank int, flag, shrink bool) (bool, []int, error) {
	w.ftMu.Lock()
	defer w.ftMu.Unlock()
	if err := w.st.ErrIfDown(rank); err != nil {
		return false, nil, err
	}
	n := w.ft.Arrive(rank, flag, shrink)
	if n == 0 {
		return false, nil, mpi.ErrInvalidRank // concurrent double arrival: protocol misuse
	}
	if ended, _ := w.ft.Ended(n); ended {
		w.ftCond.Broadcast()
	}
	for {
		ended, err := w.ft.Ended(n)
		if ended && err == nil {
			return w.ft.Flag(), w.ft.Survivors(), nil
		}
		if down := w.st.ErrIfDown(rank); down != nil {
			return false, nil, down
		}
		if ended {
			return false, nil, err
		}
		w.ftCond.Wait()
	}
}

// ftUpdate applies fn (if any) to the world's round under its lock and
// wakes its waiters, so each re-checks its round and its own state.
func (w *World) ftUpdate(fn func(r *mpi.Round)) {
	w.ftMu.Lock()
	if fn != nil {
		fn(w.ft)
	}
	w.ftCond.Broadcast()
	w.ftMu.Unlock()
}
