// ULFM-style fault surface: the notification type delivered to
// communicator errhandlers, and the generic Shrunk communicator every
// backend's Shrink builds on. The design mirrors the User-Level Failure
// Mitigation chapter of the MPI standard — failures are *notified*
// (errhandler), *acknowledged* (FailureAck), and *repaired* (Shrink +
// Agree) — so applications continue on survivors instead of rolling the
// whole job back to a checkpoint.

package mpi

import (
	"fmt"
	"sort"
)

// FailureInfo describes one observed process failure, delivered to the
// errhandler installed with Comm.SetErrhandler. Rank is in the
// observing communicator's own rank space: a redundancy-layer
// communicator reports virtual ranks (a virtual rank fails only when
// its whole replica sphere is dead), a transport communicator reports
// physical ranks, and a Shrunk communicator reports shrunk ranks.
type FailureInfo struct {
	// Rank is the failed rank.
	Rank int
}

// Shrunk is a communicator restricted to a subset of a base
// communicator's ranks, densely renumbered in ascending base-rank
// order. It is the common implementation of Comm.Shrink: a backend
// agrees on the survivor set (its own consensus problem) and wraps the
// base endpoint with NewShrunk. All traffic flows through the base
// communicator unchanged — Shrunk only translates rank spaces and
// filters wildcard deliveries from non-members, so it composes over any
// Comm (transport, redundancy layer, or another shrink's base).
type Shrunk struct {
	base    Comm
	ranks   []int // shrunk rank -> base rank, ascending
	newRank map[int]int
	rank    int // this endpoint's shrunk rank
}

var _ Comm = (*Shrunk)(nil)

// NewShrunk wraps base restricted to the given survivor set. survivors
// are base ranks; they are defensively copied and sorted. The base
// endpoint's own rank must be a member. Acknowledging the failures the
// shrink repaired is the backend's job before wrapping (Shrink implies
// failure_ack in ULFM, but which failures a shrink may ack is a
// backend-level decision: a replicated comm must keep failures that
// arrived too late for the survivor agreement pending).
func NewShrunk(base Comm, survivors []int) (*Shrunk, error) {
	if len(survivors) == 0 {
		return nil, fmt.Errorf("mpi: shrink to empty communicator")
	}
	ranks := append([]int(nil), survivors...)
	sort.Ints(ranks)
	s := &Shrunk{base: base, ranks: ranks, newRank: make(map[int]int, len(ranks)), rank: -1}
	for nr, br := range ranks {
		if br < 0 || br >= base.Size() {
			return nil, fmt.Errorf("mpi: shrink survivor %d outside base [0,%d): %w", br, base.Size(), ErrInvalidRank)
		}
		if _, dup := s.newRank[br]; dup {
			return nil, fmt.Errorf("mpi: duplicate shrink survivor %d: %w", br, ErrInvalidRank)
		}
		s.newRank[br] = nr
		if br == base.Rank() {
			s.rank = nr
		}
	}
	if s.rank < 0 {
		return nil, fmt.Errorf("mpi: rank %d is not a shrink survivor: %w", base.Rank(), ErrInvalidRank)
	}
	return s, nil
}

// FinishShrink ends a transport's Shrink once the survivor set is
// agreed: a caller outside it died during the round (ErrKilled);
// a member acknowledges the failures (Shrink implies failure_ack at
// the transport level) and wraps c over the survivors.
func FinishShrink(c Comm, survivors []int) (*Shrunk, error) {
	member := false
	for _, r := range survivors {
		if r == c.Rank() {
			member = true
			break
		}
	}
	if !member {
		return nil, ErrKilled
	}
	c.FailureAck()
	return NewShrunk(c, survivors)
}

// Base returns the communicator the shrunk communicator was built over.
func (s *Shrunk) Base() Comm { return s.base }

// BaseRanks returns the survivor set in base-rank space, ascending; the
// slice is shared and must not be mutated.
func (s *Shrunk) BaseRanks() []int { return s.ranks }

// BaseRank translates a shrunk rank to its base rank.
func (s *Shrunk) BaseRank(rank int) (int, error) {
	if rank < 0 || rank >= len(s.ranks) {
		return 0, fmt.Errorf("mpi: shrunk rank %d of %d: %w", rank, len(s.ranks), ErrInvalidRank)
	}
	return s.ranks[rank], nil
}

// NewRank translates a base rank to its shrunk rank; ok is false for
// non-members.
func (s *Shrunk) NewRank(baseRank int) (int, bool) {
	nr, ok := s.newRank[baseRank]
	return nr, ok
}

// Rank implements Comm.
func (s *Shrunk) Rank() int { return s.rank }

// Size implements Comm.
func (s *Shrunk) Size() int { return len(s.ranks) }

// Send implements Comm.
func (s *Shrunk) Send(dst, tag int, data []byte) error {
	base, err := s.BaseRank(dst)
	if err != nil {
		return err
	}
	return s.base.Send(base, tag, data)
}

// Recv implements Comm. Wildcard receives filter the base stream:
// messages from ranks outside the survivor set (late traffic from the
// failed epoch) are released and skipped, never delivered.
func (s *Shrunk) Recv(src, tag int) (Message, error) {
	if src != AnySource {
		base, err := s.BaseRank(src)
		if err != nil {
			return Message{}, err
		}
		msg, err := s.base.Recv(base, tag)
		if err != nil {
			return Message{}, err
		}
		return msg.Reframe(src, msg.Tag, msg.Data), nil
	}
	for {
		msg, err := s.base.Recv(AnySource, tag)
		if err != nil {
			return Message{}, err
		}
		if nr, ok := s.newRank[msg.Source]; ok {
			return msg.Reframe(nr, msg.Tag, msg.Data), nil
		}
		msg.Release()
	}
}

// Probe implements Comm; wildcard probes consume and drop non-member
// messages so a stale envelope can never satisfy the probe.
func (s *Shrunk) Probe(src, tag int) (Status, error) {
	if src != AnySource {
		base, err := s.BaseRank(src)
		if err != nil {
			return Status{}, err
		}
		st, err := s.base.Probe(base, tag)
		if err != nil {
			return Status{}, err
		}
		st.Source = src
		return st, nil
	}
	for {
		st, err := s.base.Probe(AnySource, tag)
		if err != nil {
			return Status{}, err
		}
		if nr, ok := s.newRank[st.Source]; ok {
			st.Source = nr
			return st, nil
		}
		// Drain the stale message; the probe loop then re-inspects.
		msg, err := s.base.Recv(st.Source, st.Tag)
		if err != nil {
			return Status{}, err
		}
		msg.Release()
	}
}

// Isend implements Comm.
func (s *Shrunk) Isend(dst, tag int, data []byte) (Request, error) {
	base, err := s.BaseRank(dst)
	if err != nil {
		return nil, err
	}
	return s.base.Isend(base, tag, data)
}

// Irecv implements Comm.
func (s *Shrunk) Irecv(src, tag int) (Request, error) {
	baseSrc := AnySource
	if src != AnySource {
		var err error
		baseSrc, err = s.BaseRank(src)
		if err != nil {
			return nil, err
		}
	}
	req, err := s.base.Irecv(baseSrc, tag)
	if err != nil {
		return nil, err
	}
	return &shrunkRequest{s: s, inner: req, tag: tag}, nil
}

// shrunkRequest translates completed receives into the shrunk rank
// space; wildcard completions from non-members are dropped and the
// receive re-posted.
type shrunkRequest struct {
	s     *Shrunk
	inner Request
	tag   int

	done bool
	msg  Message
	st   Status
	err  error
}

var _ Request = (*shrunkRequest)(nil)

func (r *shrunkRequest) settle(msg Message, st Status, err error) (Message, Status, error) {
	if err == nil {
		if nr, ok := r.s.newRank[msg.Source]; ok {
			msg = msg.Reframe(nr, msg.Tag, msg.Data)
			st.Source = nr
		} else {
			// Stale sender: drop and re-post the wildcard receive.
			msg.Release()
			r.inner, r.err = r.s.base.Irecv(AnySource, r.tag)
			if r.err != nil {
				r.done = true
			}
			return Message{}, Status{}, r.err
		}
	}
	r.done, r.msg, r.st, r.err = true, msg, st, err
	return r.msg, r.st, r.err
}

func (r *shrunkRequest) Wait() (Message, Status, error) {
	for !r.done {
		msg, st, err := r.inner.Wait()
		r.settle(msg, st, err)
	}
	return r.msg, r.st, r.err
}

func (r *shrunkRequest) Test() (bool, Message, Status, error) {
	if r.done {
		return true, r.msg, r.st, r.err
	}
	done, msg, st, err := r.inner.Test()
	if !done {
		return false, Message{}, Status{}, nil
	}
	r.settle(msg, st, err)
	return r.done, r.msg, r.st, r.err
}

// SetErrhandler implements Comm: the handler sees shrunk ranks, and
// failures of non-member base ranks are filtered out.
func (s *Shrunk) SetErrhandler(fn func(FailureInfo)) {
	if fn == nil {
		s.base.SetErrhandler(nil)
		return
	}
	s.base.SetErrhandler(func(fi FailureInfo) {
		if nr, ok := s.newRank[fi.Rank]; ok {
			fn(FailureInfo{Rank: nr})
		}
	})
}

// FailureAck implements Comm, returning only member failures in shrunk
// rank space (the base ack still clears non-member failures).
func (s *Shrunk) FailureAck() []int {
	var out []int
	for _, br := range s.base.FailureAck() {
		if nr, ok := s.newRank[br]; ok {
			out = append(out, nr)
		}
	}
	sort.Ints(out)
	return out
}

// Shrink implements Comm by delegating to the base communicator: the
// base's survivor set is always a subset of this communicator's members
// (failures are monotone), so the base shrink *is* the shrink of this
// communicator, and stacking stays one level deep no matter how many
// times the application shrinks.
func (s *Shrunk) Shrink() (Comm, error) { return s.base.Shrink() }

// Agree implements Comm. The base's participant set (its survivors)
// equals this communicator's live members, so delegation preserves the
// agreement semantics.
func (s *Shrunk) Agree(flag bool) (bool, error) { return s.base.Agree(flag) }
