package mpi

import "sync"

// Receiver is the transport endpoint a lazy receive request completes
// through: Recv blocks, TryRecv matches without blocking (done false
// when nothing matches and the receive may keep waiting).
type Receiver interface {
	Recv(src, tag int) (Message, error)
	TryRecv(src, tag int) (msg Message, done bool, err error)
}

// NewRecvRequest returns a receive request whose matching is lazy: it
// happens at Wait or Test time, preserving post-order semantics for the
// common post-then-waitall pattern.
func NewRecvRequest(r Receiver, src, tag int) Request {
	return &request{r: r, src: src, tag: tag}
}

// Fulfilled returns a request born complete with st and err: the handle
// of an eager send.
func Fulfilled(st Status, err error) Request {
	return &request{done: true, st: st, err: err}
}

// request implements Request for transports' point-to-point operations.
type request struct {
	r        Receiver
	src, tag int

	mu   sync.Mutex
	done bool
	st   Status
	msg  Message
	err  error
}

// statusOf derives a completion status from a delivered message.
func statusOf(msg Message) Status {
	return Status{Source: msg.Source, Tag: msg.Tag, Len: len(msg.Data)}
}

func (r *request) settle(msg Message, err error) {
	r.done = true
	r.err = err
	if err == nil {
		r.msg = msg
		r.st = statusOf(msg)
	}
}

// Wait blocks until the operation completes and returns the delivered
// message (zero for sends), its status, and any error. Buffer ownership
// transfers to the caller with the message (see Message.Data).
func (r *request) Wait() (Message, Status, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.done {
		r.settle(r.r.Recv(r.src, r.tag))
	}
	return r.msg, r.st, r.err
}

// Test polls for completion without blocking.
func (r *request) Test() (bool, Message, Status, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.done {
		msg, done, err := r.r.TryRecv(r.src, r.tag)
		if !done {
			return false, Message{}, Status{}, nil
		}
		r.settle(msg, err)
	}
	return true, r.msg, r.st, r.err
}
