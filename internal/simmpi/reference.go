//go:build simmpi_ref

package simmpi

import (
	"repro/internal/mpi"
)

// refRuntime is the single-lock reference model of the runtime's
// matching and liveness semantics, kept behind the simmpi_ref build tag
// as the oracle for the sharded implementation: one global arrival-
// ordered queue per destination, matched by linear scan — the original
// pre-sharding design, small enough to audit by eye.
//
// It is driven sequentially by the property test (no locking needed),
// which replays identical operation scripts against a real World and
// this model and requires byte-identical outcomes: delivery order per
// (src, dst, tag), drop decisions, and error classes.
type refRuntime struct {
	n           int
	queues      [][]refMsg
	dead        []bool
	interrupted bool
}

type refMsg struct {
	src, tag int
	data     []byte
}

func newRefRuntime(n int) *refRuntime {
	return &refRuntime{n: n, queues: make([][]refMsg, n), dead: make([]bool, n)}
}

// send mirrors Comm.Send: sender-side liveness errors, silent drop to a
// dead or interrupted destination.
func (r *refRuntime) send(src, dst, tag int, data []byte) error {
	if r.dead[src] {
		return mpi.ErrKilled
	}
	if r.interrupted {
		return mpi.ErrInterrupted
	}
	if r.dead[dst] {
		return nil // dropped, like a packet to a crashed node
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	r.queues[dst] = append(r.queues[dst], refMsg{src: src, tag: tag, data: cp})
	return nil
}

// errIfDown mirrors the check order of the engine's receive path.
func (r *refRuntime) errIfDown(owner, src int) error {
	if r.dead[owner] {
		return mpi.ErrKilled
	}
	if r.interrupted {
		return mpi.ErrInterrupted
	}
	if src != mpi.AnySource && r.dead[src] {
		return mpi.ErrPeerDead
	}
	return nil
}

// tryRecv mirrors mpi.Stripe.TryReceive: match strictly precedes the
// liveness check, so queued messages drain even from a dead owner or an
// awaited peer that died after sending.
func (r *refRuntime) tryRecv(owner, src, tag int) (refMsg, bool, error) {
	q := r.queues[owner]
	for i, m := range q {
		if matchesSelector(m.src, m.tag, src, tag) {
			r.queues[owner] = append(q[:i], q[i+1:]...)
			return m, true, nil
		}
	}
	if err := r.errIfDown(owner, src); err != nil {
		return refMsg{}, true, err
	}
	return refMsg{}, false, nil
}

func (r *refRuntime) kill(rank int)        { r.dead[rank] = true }
func (r *refRuntime) interrupt()           { r.interrupted = true }
func (r *refRuntime) pending(rank int) int { return len(r.queues[rank]) }

// revive mirrors World.Revive: the rank rejoins with a wiped queue.
func (r *refRuntime) revive(rank int) {
	if !r.dead[rank] {
		return
	}
	r.dead[rank] = false
	r.queues[rank] = nil
}

// resume mirrors World.Resume: purge everything, end the interrupt.
func (r *refRuntime) resume() {
	for i := range r.queues {
		r.queues[i] = nil
	}
	r.interrupted = false
}

func matchesSelector(src, tag, wantSrc, wantTag int) bool {
	return (wantSrc == mpi.AnySource || src == wantSrc) &&
		(wantTag == mpi.AnyTag || tag == wantTag)
}
