package redundancy

import (
	"errors"
	"fmt"

	"repro/internal/mpi"
)

// Isend starts a non-blocking virtual send. The underlying transport's
// sends are eager, so the fan-out completes immediately and the returned
// handle is already fulfilled (it exists so application code structured
// around request sets runs unchanged).
func (c *Comm) Isend(dst, tag int, data []byte) (mpi.Request, error) {
	err := c.Send(dst, tag, data)
	return mpi.Fulfilled(mpi.Status{Source: c.me.Virtual, Tag: tag, Len: len(data)}, err), nil
}

// Irecv starts a non-blocking virtual receive. Following the paper's §3
// design, a specific-source receive posts one physical receive per
// replica of the sender and returns a single handle identifying the whole
// set; Wait/Test complete when every set member has (or provably never
// will) deliver its copy.
//
// Wildcard (mpi.AnySource) receives return a handle whose Wait runs the
// envelope-forwarding protocol; Test on an incomplete wildcard request
// reports not-done without making progress, because the protocol's
// leader step consumes a message and cannot be polled side-effect-free.
func (c *Comm) Irecv(src, tag int) (mpi.Request, error) {
	if tag != mpi.AnyTag {
		if err := c.checkTag(tag); err != nil {
			return nil, err
		}
	}
	if src == mpi.AnySource {
		return &recvRequest{c: c, src: src, tag: tag, wildcard: true}, nil
	}
	sphere, err := c.m.Sphere(src)
	if err != nil {
		return nil, err
	}
	reqs := make([]mpi.Request, 0, len(sphere))
	for _, q := range sphere {
		r, err := c.phys.Irecv(q, tag)
		if err != nil {
			return nil, fmt.Errorf("redundancy: posting replica receive: %w", err)
		}
		reqs = append(reqs, r)
	}
	return &recvRequest{c: c, src: src, tag: tag, physReqs: reqs}, nil
}

// recvRequest identifies a set of physical receives (paper §3: "RedMPI
// maintains the set of request handles returned by all the non-blocking
// MPI calls").
type recvRequest struct {
	c        *Comm
	src, tag int
	wildcard bool
	physReqs []mpi.Request

	done bool
	msg  mpi.Message
	st   mpi.Status
	err  error
}

var _ mpi.Request = (*recvRequest)(nil)

func (r *recvRequest) finish(msg mpi.Message, err error) (mpi.Message, mpi.Status, error) {
	r.done = true
	r.msg = msg
	r.err = err
	if err == nil {
		r.st = mpi.Status{Source: msg.Source, Tag: msg.Tag, Len: len(msg.Data)}
	}
	return r.msg, r.st, r.err
}

// Wait blocks until every receive in the set completes (dead replicas are
// skipped), verifies the copies against each other, and delivers.
func (r *recvRequest) Wait() (mpi.Message, mpi.Status, error) {
	if r.done {
		return r.msg, r.st, r.err
	}
	if r.wildcard {
		return r.finish(r.c.recvWildcard(r.tag))
	}
	copies := make([]wireMsg, 0, len(r.physReqs))
	for _, pr := range r.physReqs {
		msg, _, err := pr.Wait()
		if err != nil {
			if errors.Is(err, mpi.ErrPeerDead) {
				continue
			}
			releaseCopies(copies, -1)
			return r.finish(mpi.Message{}, err)
		}
		wm, err := decodeWireFrom(msg)
		if err != nil {
			releaseCopies(copies, -1)
			return r.finish(mpi.Message{}, err)
		}
		copies = append(copies, wm)
	}
	return r.finish(r.c.deliverSpecific(r.src, copies))
}

// Test polls the whole set; it completes only when every member has.
func (r *recvRequest) Test() (bool, mpi.Message, mpi.Status, error) {
	if r.done {
		return true, r.msg, r.st, r.err
	}
	if r.wildcard {
		return false, mpi.Message{}, mpi.Status{}, nil
	}
	for _, pr := range r.physReqs {
		done, _, _, err := pr.Test()
		if !done {
			return false, mpi.Message{}, mpi.Status{}, nil
		}
		if err != nil && !errors.Is(err, mpi.ErrPeerDead) {
			msg, st, ferr := r.finish(mpi.Message{}, err)
			return true, msg, st, ferr
		}
	}
	// Every set member is resolved; assemble exactly as Wait would.
	copies := make([]wireMsg, 0, len(r.physReqs))
	for _, pr := range r.physReqs {
		msg, _, err := pr.Wait()
		if err != nil {
			continue // already-resolved dead replica
		}
		wm, err := decodeWireFrom(msg)
		if err != nil {
			releaseCopies(copies, -1)
			fmsg, st, ferr := r.finish(mpi.Message{}, err)
			return true, fmsg, st, ferr
		}
		copies = append(copies, wm)
	}
	msg, st, err := r.finish(r.c.deliverSpecific(r.src, copies))
	return true, msg, st, err
}

// deliverSpecific verifies the collected copies from a specific virtual
// source and performs delivery bookkeeping. The winning copy's transport
// buffer is reframed into the delivered message (its ownership passes to
// the application); the losing copies' buffers go back to the pool.
func (c *Comm) deliverSpecific(src int, copies []wireMsg) (mpi.Message, error) {
	if len(copies) == 0 {
		c.failVirtual(src)
		return mpi.Message{}, fmt.Errorf("recv from virtual %d: %w", src, ErrSphereDead)
	}
	data, win, err := c.verify(copies)
	if err != nil {
		releaseCopies(copies, -1)
		return mpi.Message{}, fmt.Errorf("recv from virtual %d: %w", src, err)
	}
	releaseCopies(copies, win)
	c.recv[src].Add(1)
	c.stats.deliveries.Add(1)
	return copies[win].msg.Reframe(src, copies[0].tag, data), nil
}
