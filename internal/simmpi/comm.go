package simmpi

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/mpi"
)

// denseCountThreshold bounds the world size at which per-peer message
// counters use dense atomic arrays. The dense layout costs O(n²) words
// across a world (two arrays of n per rank) — fine at laptop scale,
// 160 GB at 100k ranks — so larger worlds fall back to lazy sparse maps:
// a rank only pays for the peers it actually exchanges with, which for
// collective patterns is O(log n).
const denseCountThreshold = 1024

// peerCounts tracks per-peer message totals for one direction. Exactly
// one representation is active: dense (lock-free, preallocated at world
// construction) below the threshold, sparse (mutex + lazy map) above.
type peerCounts struct {
	dense []atomic.Uint64

	mu     sync.Mutex
	sparse map[int]uint64
}

func (p *peerCounts) add(peer int) {
	if p.dense != nil {
		p.dense[peer].Add(1)
		return
	}
	p.mu.Lock()
	if p.sparse == nil {
		p.sparse = make(map[int]uint64)
	}
	p.sparse[peer]++
	p.mu.Unlock()
}

// snapshot materializes the dense view the bookmark exchange consumes.
func (p *peerCounts) snapshot(n int) []uint64 {
	out := make([]uint64, n)
	if p.dense != nil {
		for i := range p.dense {
			out[i] = p.dense[i].Load()
		}
		return out
	}
	p.mu.Lock()
	for peer, v := range p.sparse {
		out[peer] = v
	}
	p.mu.Unlock()
	return out
}

func (p *peerCounts) reset() {
	if p.dense != nil {
		for i := range p.dense {
			p.dense[i].Store(0)
		}
		return
	}
	p.mu.Lock()
	p.sparse = nil
	p.mu.Unlock()
}

// Comm is the communicator endpoint for one rank of a World. It
// implements mpi.Comm and mpi.CountTracker.
type Comm struct {
	world *World
	rank  int

	// Per-peer message totals for the checkpoint bookmark exchange.
	sent peerCounts
	recv peerCounts

	// stripe is the receive-engine stripe holding this rank's box.
	stripe *mpi.Stripe
	// fault is the ULFM-style notification state (see fault.go).
	fault mpi.Notifier
}

var (
	_ mpi.Comm         = (*Comm)(nil)
	_ mpi.CountTracker = (*Comm)(nil)
	_ mpi.SharedSender = (*Comm)(nil)
	_ mpi.Receiver     = (*Comm)(nil)
)

// Rank returns this endpoint's rank.
func (c *Comm) Rank() int { return c.rank }

// Size returns the world size.
func (c *Comm) Size() int { return c.world.size }

// World returns the world this communicator belongs to.
func (c *Comm) World() *World { return c.world }

func (c *Comm) checkPeer(rank int) error {
	if rank < 0 || rank >= c.world.size {
		return fmt.Errorf("simmpi: peer %d of %d: %w", rank, c.world.size, mpi.ErrInvalidRank)
	}
	return nil
}

// sendPrologue performs the common Send-side checks and bookkeeping.
// ok reports whether the message should actually be deposited (false
// with a nil error means the destination is dead and the send is
// silently dropped, like a lost packet).
func (c *Comm) sendPrologue(dst, tag int, n int) (ok bool, err error) {
	if err := c.checkPeer(dst); err != nil {
		return false, err
	}
	w := c.world
	if err := w.st.ErrIfDown(c.rank); err != nil {
		return false, err
	}
	c.sent.add(dst)
	w.met.sends.AddAt(c.rank, 1)
	w.met.sendBytes.AddAt(c.rank, uint64(n))
	w.flight.Emit("send", c.rank, -1, tag, int64(dst))
	if d := w.sendDelay; d > 0 {
		// Emulated wire latency is charged to the sender whether or not
		// the destination is alive, like a NIC pushing into the fabric.
		time.Sleep(d)
	}
	if w.st.Dead.Get(dst) {
		w.met.drops.Inc()
		w.flight.Emit("drop", c.rank, -1, tag, int64(dst))
		return false, nil
	}
	return true, nil
}

// Send delivers data to dst. Sends are eager and buffered: the message is
// copied once at the transport boundary — into a pooled arena buffer the
// receiver owns until it releases it (see mpi.Message.Data) — and the
// call returns, so the sender may reuse data immediately. Sends from a
// killed rank fail with mpi.ErrKilled; sends to a dead rank are silently
// dropped (fail-stop peers just stop reading the network).
func (c *Comm) Send(dst, tag int, data []byte) error {
	ok, err := c.sendPrologue(dst, tag, len(data))
	if !ok {
		return err
	}
	// Copy at the boundary: the sender may reuse its buffer immediately.
	var buf []byte
	var pb *mpi.PooledBuf
	if data != nil {
		if c.world.pool != nil {
			buf, pb = c.world.pool.Acquire(len(data))
			c.world.met.bytesPooled.AddAt(c.rank, uint64(len(data)))
		} else {
			buf = make([]byte, len(data))
		}
		copy(buf, data)
	}
	c.world.table.deposit(dst, c.rank, tag, buf, pb)
	return nil
}

// AcquireBuffer implements mpi.SharedSender: it hands out a pooled
// buffer the caller encodes into once and then shares across several
// SendPooled calls.
func (c *Comm) AcquireBuffer(n int) ([]byte, *mpi.PooledBuf) {
	if c.world.pool == nil || n == 0 {
		return make([]byte, n), nil
	}
	c.world.met.bytesPooled.AddAt(c.rank, uint64(n))
	return c.world.pool.Acquire(n)
}

// SendPooled implements mpi.SharedSender: like Send, but data (a view of
// pb's pooled buffer) is shared with the destination instead of copied —
// the copy-on-write fan-out path the redundancy layer uses to send one
// encoded payload to every replica. Each successful deposit takes its
// own reference on pb; the caller's reference survives the call.
func (c *Comm) SendPooled(dst, tag int, data []byte, pb *mpi.PooledBuf) error {
	if pb == nil {
		return c.Send(dst, tag, data)
	}
	ok, err := c.sendPrologue(dst, tag, len(data))
	if !ok {
		return err
	}
	// Retain before publication: the receiver may consume and release
	// the very moment the deposit lands.
	pb.Retain()
	if c.world.table.deposit(dst, c.rank, tag, data, pb) {
		c.world.met.copiesElided.AddAt(c.rank, 1)
	}
	return nil
}

// Recv blocks until a message matching (src, tag) arrives.
func (c *Comm) Recv(src, tag int) (mpi.Message, error) {
	if src != mpi.AnySource {
		if err := c.checkPeer(src); err != nil {
			return mpi.Message{}, err
		}
	}
	msg, err := c.stripe.Receive(&c.world.st, &c.fault, c.rank, src, tag)
	if err == nil {
		c.noteRecv(msg.Source)
	}
	return msg, err
}

// TryRecv implements mpi.Receiver: a receive that does not block.
func (c *Comm) TryRecv(src, tag int) (mpi.Message, bool, error) {
	msg, done, err := c.world.table.tryReceive(c.rank, src, tag)
	if done && err == nil {
		c.noteRecv(msg.Source)
	}
	return msg, done, err
}

// noteRecv performs per-peer and world-level receive bookkeeping.
func (c *Comm) noteRecv(src int) {
	c.recv.add(src)
	c.world.met.recvs.AddAt(c.rank, 1)
}

// Probe blocks until a matching message is available without consuming it.
func (c *Comm) Probe(src, tag int) (mpi.Status, error) {
	if src != mpi.AnySource {
		if err := c.checkPeer(src); err != nil {
			return mpi.Status{}, err
		}
	}
	return c.stripe.Probe(&c.world.st, &c.fault, c.rank, src, tag)
}

// Isend starts a non-blocking send. Because sends are eager, the
// operation completes immediately; the returned request is a fulfilled
// handle carrying any error.
func (c *Comm) Isend(dst, tag int, data []byte) (mpi.Request, error) {
	err := c.Send(dst, tag, data)
	return mpi.Fulfilled(mpi.Status{Source: c.rank, Tag: tag, Len: len(data)}, err), nil
}

// Irecv starts a non-blocking receive. Completion is lazy: the matching
// happens at Wait or Test time, preserving post-order semantics for the
// common post-then-waitall pattern.
func (c *Comm) Irecv(src, tag int) (mpi.Request, error) {
	if src != mpi.AnySource {
		if err := c.checkPeer(src); err != nil {
			return nil, err
		}
	}
	return mpi.NewRecvRequest(c, src, tag), nil
}

// SentCounts implements mpi.CountTracker.
func (c *Comm) SentCounts() []uint64 { return c.sent.snapshot(c.world.size) }

// RecvCounts implements mpi.CountTracker.
func (c *Comm) RecvCounts() []uint64 { return c.recv.snapshot(c.world.size) }

// resetCounts zeroes the per-peer totals at an epoch boundary (Resume):
// the purged traffic will never be received, so carrying its counts
// forward would wedge every future bookmark exchange.
func (c *Comm) resetCounts() {
	c.sent.reset()
	c.recv.reset()
}

// PendingMessages returns the number of deposited-but-unreceived messages
// for this rank. The checkpoint coordinator uses it in tests to verify
// quiescence.
func (c *Comm) PendingMessages() int {
	return c.world.table.pending(c.rank)
}
