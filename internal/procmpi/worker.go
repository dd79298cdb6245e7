package procmpi

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/mpi"
	"repro/internal/obs"
)

// defaultHeartbeatInterval is how often a worker proves liveness; the
// coordinator's default timeout is a large multiple, so transient
// scheduling stalls never read as deaths.
const defaultHeartbeatInterval = 250 * time.Millisecond

// WorkerConfig describes one worker's connection to the coordinator.
type WorkerConfig struct {
	// Network and Addr locate the coordinator's listener ("unix" +
	// socket path, or "tcp" + host:port).
	Network string
	Addr    string
	// Rank is this worker's physical rank; Size the world size.
	Rank int
	Size int
	// PID is the worker's OS process ID, reported at rendezvous so the
	// coordinator can deliver real SIGKILLs. Zero for in-process
	// workers (conformance harness, benchmarks).
	PID int
	// HeartbeatInterval is the liveness-proof cadence; zero means the
	// default, negative disables heartbeats (tests of the timeout path).
	HeartbeatInterval time.Duration
	// Arena is the pooled-buffer arena receives borrow from; nil means a
	// fresh private arena.
	Arena *mpi.Arena
	// Flight receives the worker's send/drop forensic records.
	Flight *obs.Recorder
}

// Worker is one rank's endpoint on the socket transport: an mpi.Comm
// whose mailbox is fed by a reader goroutine draining the coordinator
// connection. It also implements mpi.CountTracker (bookmark exchange),
// mpi.SharedSender (pooled fan-out sends), and mpi.Liveness (the local
// dead-rank view, updated by coordinator broadcasts, which the
// redundancy layer consults for replica failover).
type Worker struct {
	rank   int
	size   int
	conn   net.Conn
	arena  *mpi.Arena
	flight *obs.Recorder

	wmu     sync.Mutex // serialises conn writes
	scratch []byte

	hbStop chan struct{}
	hbOnce sync.Once

	// box is the worker's receive-engine stripe, holding this rank's
	// one box; its mutex is the worker's state lock. st is the local
	// liveness view (this rank's own bit is set when it is killed) and
	// fault the ULFM notification state.
	box   mpi.Stripe
	st    mpi.State
	fault mpi.Notifier
	sent  []atomic.Uint64
	recvd []atomic.Uint64

	// Fault-tolerant round state: ftMu serialises Agree/Shrink calls
	// from this endpoint; the round's result lands via frameRoundResult
	// (matched on ftSeq) and is signalled through ftCond. The other ft
	// fields are guarded by box's lock.
	ftMu        sync.Mutex
	ftCond      *sync.Cond
	ftSeq       int32
	ftDone      bool
	ftFlag      bool
	ftSurvivors []int
}

var (
	_ mpi.Comm         = (*Worker)(nil)
	_ mpi.CountTracker = (*Worker)(nil)
	_ mpi.SharedSender = (*Worker)(nil)
	_ mpi.Liveness     = (*Worker)(nil)
	_ mpi.Receiver     = (*Worker)(nil)
)

// Dial connects to the coordinator, performs the hello/welcome
// rendezvous, and starts the reader and heartbeat goroutines. The
// returned worker reflects the world's liveness and epoch state as of
// the welcome (a revived incarnation joins knowing who is dead and
// whether the epoch is paused).
func Dial(cfg WorkerConfig) (*Worker, error) {
	if cfg.Size <= 0 || cfg.Rank < 0 || cfg.Rank >= cfg.Size {
		return nil, fmt.Errorf("procmpi: rank %d of %d: %w", cfg.Rank, cfg.Size, mpi.ErrInvalidRank)
	}
	conn, err := net.Dial(cfg.Network, cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("procmpi: dial coordinator: %w", err)
	}
	arena := cfg.Arena
	if arena == nil {
		arena = mpi.NewArena()
	}
	w := &Worker{
		rank:   cfg.Rank,
		size:   cfg.Size,
		conn:   conn,
		arena:  arena,
		flight: cfg.Flight,
		hbStop: make(chan struct{}),
		sent:   make([]atomic.Uint64, cfg.Size),
		recvd:  make([]atomic.Uint64, cfg.Size),
	}
	w.st.Dead = mpi.NewBitset(cfg.Size)
	w.box.Reserve(cfg.Rank)
	w.ftCond = sync.NewCond(&w.box)

	// Rendezvous under a deadline so a wedged coordinator cannot hang
	// the worker forever.
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	// The rendezvous barrier releases all welcomes in one sequential
	// sweep, so frames from already-welcomed parties can legally arrive
	// ahead of ours: a death broadcast (some batch member crashed during
	// the sweep) or even early data from a fast peer. Buffer everything
	// until the welcome shows up, then replay it in wire order on top of
	// the welcome's (older) snapshot.
	type early struct {
		f  mpi.Frame
		pb *mpi.PooledBuf
	}
	var pre []early
	fail := func(err error) (*Worker, error) {
		for _, e := range pre {
			e.pb.Release()
		}
		conn.Close()
		return nil, err
	}
	hello := mpi.Frame{Type: frameHello, Src: int32(cfg.Rank), Dst: -1, Tag: 0, Payload: encodeHello(cfg.PID)}
	if err := w.writeFrame(hello); err != nil {
		return fail(fmt.Errorf("procmpi: hello: %w", err))
	}
	var welcome mpi.Frame
	for {
		f, pb, err := mpi.ReadFrame(conn, arena)
		if err != nil {
			return fail(fmt.Errorf("procmpi: welcome: %w", err))
		}
		if f.Type == frameWelcome {
			welcome = f
			defer pb.Release()
			break
		}
		pre = append(pre, early{f: f, pb: pb})
	}
	size, interrupted, deadRanks, err := decodeWelcome(welcome.Payload)
	if err != nil {
		return fail(err)
	}
	if size != cfg.Size {
		return fail(fmt.Errorf("procmpi: coordinator size %d, worker expects %d", size, cfg.Size))
	}
	w.st.Interrupted.Store(interrupted)
	for _, r := range deadRanks {
		// A revived incarnation is welcomed while its rank still reads
		// dead; its own bit means killed, so it is left clear.
		if r >= 0 && r < cfg.Size && r != cfg.Rank {
			w.st.Kill(r)
		}
	}
	// Pre-welcome frames were written before our welcome but after its
	// payload was encoded, so they are strictly newer than the snapshot.
	for _, e := range pre {
		w.handleFrame(e.f, e.pb)
	}
	_ = conn.SetDeadline(time.Time{})

	go w.readLoop()
	hb := cfg.HeartbeatInterval
	if hb == 0 {
		hb = defaultHeartbeatInterval
	}
	if hb > 0 {
		go w.heartbeatLoop(hb)
	}
	return w, nil
}

// Close tears the worker down: the heartbeat stops and the connection
// closes, which the coordinator reads as this rank's death if it was
// still alive.
func (w *Worker) Close() error {
	w.hbOnce.Do(func() { close(w.hbStop) })
	return w.conn.Close()
}

// Rank implements mpi.Comm.
func (w *Worker) Rank() int { return w.rank }

// Size implements mpi.Comm.
func (w *Worker) Size() int { return w.size }

// Alive implements mpi.Liveness from the worker's local view (updated
// by coordinator dead/revive broadcasts, so it can lag the hub by one
// in-flight frame).
func (w *Worker) Alive(rank int) bool {
	if rank < 0 || rank >= w.size {
		return false
	}
	return !w.st.Dead.Get(rank)
}

func (w *Worker) checkPeer(rank int) error {
	if rank < 0 || rank >= w.size {
		return fmt.Errorf("procmpi: peer %d of %d: %w", rank, w.size, mpi.ErrInvalidRank)
	}
	return nil
}

// sendPrologue performs the Send-side state checks and bookkeeping. ok
// false with nil error means the destination is locally known dead and
// the send is silently dropped, like a lost packet (the coordinator
// drops hub-side too, covering the window where the local view lags).
func (w *Worker) sendPrologue(dst, tag int) (ok bool, err error) {
	if err := w.checkPeer(dst); err != nil {
		return false, err
	}
	if err := w.st.ErrIfDown(w.rank); err != nil {
		return false, err
	}
	w.sent[dst].Add(1)
	drop := w.st.Dead.Get(dst)
	w.flight.Emit("send", w.rank, -1, tag, int64(dst))
	if drop {
		w.flight.Emit("drop", w.rank, -1, tag, int64(dst))
		return false, nil
	}
	return true, nil
}

// Send implements mpi.Comm. The payload is copied into the socket by
// the kernel, so the caller may reuse data immediately — the eager-send
// contract holds without an intermediate buffer.
func (w *Worker) Send(dst, tag int, data []byte) error {
	ok, err := w.sendPrologue(dst, tag)
	if !ok {
		return err
	}
	f := mpi.Frame{Type: frameData, Src: int32(w.rank), Dst: int32(dst), Tag: int32(tag), Payload: data}
	if err := w.writeFrame(f); err != nil {
		return mpi.ErrAborted
	}
	return nil
}

// AcquireBuffer implements mpi.SharedSender.
func (w *Worker) AcquireBuffer(n int) ([]byte, *mpi.PooledBuf) {
	return w.arena.Acquire(n)
}

// SendPooled implements mpi.SharedSender. The socket write is the copy,
// so sharing needs no reference handoff: the caller's reference outlives
// the call and the bytes are consumed before it returns.
func (w *Worker) SendPooled(dst, tag int, data []byte, pb *mpi.PooledBuf) error {
	return w.Send(dst, tag, data)
}

// Recv implements mpi.Comm: match first — a queued message from a
// now-dead peer is still delivered (death invalidates only future
// traffic) — then fail by liveness state, else park on the mailbox.
func (w *Worker) Recv(src, tag int) (mpi.Message, error) {
	if src != mpi.AnySource {
		if err := w.checkPeer(src); err != nil {
			return mpi.Message{}, err
		}
	}
	msg, err := w.box.Receive(&w.st, &w.fault, w.rank, src, tag)
	if err == nil {
		w.recvd[msg.Source].Add(1)
	}
	return msg, err
}

// TryRecv implements mpi.Receiver: a receive that does not block.
func (w *Worker) TryRecv(src, tag int) (mpi.Message, bool, error) {
	msg, done, err := w.box.TryReceive(&w.st, &w.fault, w.rank, src, tag)
	if done && err == nil {
		w.recvd[msg.Source].Add(1)
	}
	return msg, done, err
}

// Probe implements mpi.Comm.
func (w *Worker) Probe(src, tag int) (mpi.Status, error) {
	if src != mpi.AnySource {
		if err := w.checkPeer(src); err != nil {
			return mpi.Status{}, err
		}
	}
	return w.box.Probe(&w.st, &w.fault, w.rank, src, tag)
}

// Isend implements mpi.Comm; sends are eager, so the request is born
// fulfilled.
func (w *Worker) Isend(dst, tag int, data []byte) (mpi.Request, error) {
	err := w.Send(dst, tag, data)
	return mpi.Fulfilled(mpi.Status{Source: w.rank, Tag: tag, Len: len(data)}, err), nil
}

// Irecv implements mpi.Comm; matching is lazy (at Wait/Test), like the
// simulated backend.
func (w *Worker) Irecv(src, tag int) (mpi.Request, error) {
	if src != mpi.AnySource {
		if err := w.checkPeer(src); err != nil {
			return nil, err
		}
	}
	return mpi.NewRecvRequest(w, src, tag), nil
}

// SentCounts implements mpi.CountTracker.
func (w *Worker) SentCounts() []uint64 { return snapshot(w.sent) }

// RecvCounts implements mpi.CountTracker.
func (w *Worker) RecvCounts() []uint64 { return snapshot(w.recvd) }

func snapshot(counts []atomic.Uint64) []uint64 {
	out := make([]uint64, len(counts))
	for i := range counts {
		out[i] = counts[i].Load()
	}
	return out
}

// PendingMessages returns the number of queued-but-unreceived messages.
func (w *Worker) PendingMessages() int { return w.box.Pending(w.rank) }

// Bye reports clean application completion to the coordinator.
func (w *Worker) Bye() error {
	return w.writeFrame(mpi.Frame{Type: frameBye, Src: int32(w.rank), Dst: -1, Tag: 1})
}

// Leave tells the coordinator this worker is stopping without completing
// its application, as the expected casualty of a failure elsewhere. Its
// peers learn it is gone, as on a death, but the coordinator reports a
// departure (OnBye), not another death.
func (w *Worker) Leave() error { return w.writeControl(frameBye) }

// NoteStep relays an application step notification, so step-triggered
// kill schedules work across the process boundary.
func (w *Worker) NoteStep(step int) error {
	if step < 0 {
		return nil
	}
	return w.writeFrame(mpi.Frame{Type: frameStep, Src: int32(w.rank), Dst: -1, Tag: int32(step)})
}

// ReportError relays an application error to the coordinator.
func (w *Worker) ReportError(msg string) error {
	return w.writeFrame(mpi.Frame{Type: frameAppErr, Src: int32(w.rank), Dst: -1, Tag: 0, Payload: []byte(msg)})
}

// SetErrhandler implements mpi.Comm. Installing a handler arms the
// wildcard failure gate, so parked wildcard receivers are woken to
// re-evaluate pending deaths.
func (w *Worker) SetErrhandler(fn func(mpi.FailureInfo)) {
	w.fault.SetHandler(fn)
	w.box.Wake(w.rank)
}

// FailureAck implements mpi.Comm: it acknowledges every death observed
// so far (clearing ErrFailurePending until the next one) and returns
// the acknowledged failed ranks in ascending order.
func (w *Worker) FailureAck() []int { return w.fault.Ack(&w.st) }

// Agree implements mpi.Comm: a fault-tolerant all-reduce of one flag
// (logical AND) across the live ranks, coordinated hub-side. Dead ranks
// are excused; every live rank gets the same result.
func (w *Worker) Agree(flag bool) (bool, error) {
	out, _, err := w.round(flag, false)
	return out, err
}

// Shrink implements mpi.Comm: the live ranks agree on the survivor set
// (the same hub-side round as Agree) and each wraps itself in a
// dense-renumbered communicator over that set.
func (w *Worker) Shrink() (mpi.Comm, error) {
	_, survivors, err := w.round(true, true)
	if err != nil {
		return nil, err
	}
	return mpi.FinishShrink(w, survivors)
}

// round arrives in the hub's round — wantSurvivors for a Shrink — and
// parks until its result lands or the endpoint leaves the world (abort,
// own death, epoch interrupt). Each call bumps the request sequence, so
// a late result of an abandoned round is ignored.
func (w *Worker) round(flag, wantSurvivors bool) (bool, []int, error) {
	w.ftMu.Lock()
	defer w.ftMu.Unlock()
	if err := w.st.ErrIfDown(w.rank); err != nil {
		return false, nil, err
	}
	w.box.Lock()
	w.ftSeq++
	w.ftDone = false
	seq := w.ftSeq
	w.box.Unlock()
	f := mpi.Frame{Type: frameRound, Src: int32(w.rank), Dst: -1, Tag: seq,
		Payload: []byte{flagByte(flag), flagByte(wantSurvivors)}}
	if err := w.writeFrame(f); err != nil {
		return false, nil, mpi.ErrAborted
	}
	w.box.Lock()
	defer w.box.Unlock()
	for {
		if err := w.st.ErrIfDown(w.rank); err != nil {
			return false, nil, err
		}
		if w.ftDone {
			return w.ftFlag, w.ftSurvivors, nil
		}
		w.ftCond.Wait()
	}
}

func (w *Worker) writeFrame(f mpi.Frame) error {
	w.wmu.Lock()
	var err error
	w.scratch, err = mpi.WriteFrame(w.conn, f, w.scratch)
	w.wmu.Unlock()
	if err != nil {
		w.markConnDown()
	}
	return err
}

func (w *Worker) writeControl(typ byte) error {
	return w.writeFrame(mpi.Frame{Type: typ, Src: int32(w.rank), Dst: -1, Tag: 0})
}

// markConnDown reads a lost hub connection as a torn-down world.
func (w *Worker) markConnDown() {
	if !w.st.Aborted.Swap(true) {
		w.wake()
	}
}

// wake unparks every waiter — receives and a round — so each
// re-checks the liveness state it waits on.
func (w *Worker) wake() {
	w.box.WakeAll()
	w.box.Lock()
	w.ftCond.Broadcast()
	w.box.Unlock()
}

// readLoop drains the coordinator connection until it fails; a lost
// connection reads as a torn-down world (the coordinator is the
// attempt).
func (w *Worker) readLoop() {
	for {
		f, pb, err := mpi.ReadFrame(w.conn, w.arena)
		if err != nil {
			w.markConnDown()
			return
		}
		w.handleFrame(f, pb)
	}
}

func (w *Worker) handleFrame(f mpi.Frame, pb *mpi.PooledBuf) {
	if f.Type == frameData {
		// Traffic addressed to a dead incarnation of this rank, or from a
		// peer already announced dead, belongs to a closed epoch: the
		// engine drops it.
		if src := int(f.Src); src >= 0 && src < w.size {
			w.box.Deposit(&w.st, w.rank, src, int(f.Tag), f.Payload, pb)
		} else {
			pb.Release()
		}
		return
	}
	defer pb.Release() // a control frame's payload is decoded, never kept
	switch f.Type {
	// Peers' deaths and revivals only: this rank's own bit is its
	// killed flag, which frameKilled alone sets.
	case frameDead:
		if r := int(f.Src); r >= 0 && r < w.size && r != w.rank && w.st.Kill(r) {
			w.box.WakeAll()
		}
	case frameRevive:
		if r := int(f.Src); r >= 0 && r < w.size && r != w.rank {
			w.st.Dead.Clear(r)
		}
	case frameInterrupt:
		w.st.Interrupted.Store(true)
		w.wake()
		_ = w.writeControl(frameInterruptAck)
	case frameResume:
		w.box.Purge(w.rank)
		for i := range w.sent {
			w.sent[i].Store(0)
			w.recvd[i].Store(0)
		}
		w.st.Interrupted.Store(false)
		w.wake()
		_ = w.writeControl(frameResumeAck)
	case frameAbort:
		w.st.Aborted.Store(true)
		w.wake()
	case frameKilled:
		w.st.Kill(w.rank)
		w.wake()
	case frameRoundResult:
		flag, survivors, err := decodeRoundResult(f.Payload)
		w.box.Lock()
		if err == nil && f.Tag == w.ftSeq && !w.ftDone {
			w.ftDone, w.ftFlag, w.ftSurvivors = true, flag, survivors
			w.ftCond.Broadcast()
		}
		w.box.Unlock()
	}
}

func (w *Worker) heartbeatLoop(interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-w.hbStop:
			return
		case <-t.C:
			if w.writeControl(frameHeartbeat) != nil {
				return
			}
		}
	}
}
