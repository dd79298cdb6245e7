package procmpi

import (
	"errors"
	"fmt"
	"net"
	"sync"
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

	mu          sync.Mutex
	cond        *sync.Cond
	queue       []mpi.Message // arrival order; FIFO per (src, tag) by in-order scan
	dead        []bool
	killed      bool
	aborted     bool
	interrupted bool
	connDown    bool
	sent        []uint64
	recvd       []uint64

	// ULFM-style fault-notification state (all under mu): the installed
	// errhandler, which deaths it has been told about, and the
	// deaths/ackedDeaths watermark pair gating wildcard operations with
	// mpi.ErrFailurePending.
	handler     func(mpi.FailureInfo)
	notified    map[int]bool
	deaths      uint64
	ackedDeaths uint64

	// Fault-tolerant collective state: ftMu serialises Agree/Shrink
	// calls from this endpoint; the round's completion lands via
	// frameAgreeResult/frameShrinkResult (matched on ftSeq) and is
	// signalled through cond.
	ftMu        sync.Mutex
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
		dead:   make([]bool, cfg.Size),
		sent:   make([]uint64, cfg.Size),
		recvd:  make([]uint64, cfg.Size),
	}
	w.cond = sync.NewCond(&w.mu)

	// Rendezvous under a deadline so a wedged coordinator cannot hang
	// the worker forever.
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	hello := mpi.Frame{Type: frameHello, Src: int32(cfg.Rank), Dst: -1, Tag: 0, Payload: encodeHello(cfg.PID)}
	if err := w.writeFrame(hello); err != nil {
		conn.Close()
		return nil, fmt.Errorf("procmpi: hello: %w", err)
	}
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
	var welcome mpi.Frame
	for {
		f, pb, err := mpi.ReadFrame(conn, arena)
		if err != nil {
			for _, e := range pre {
				if e.pb != nil {
					e.pb.Release()
				}
			}
			conn.Close()
			return nil, fmt.Errorf("procmpi: welcome: %w", err)
		}
		if f.Type == frameWelcome {
			welcome = f
			defer func() {
				if pb != nil {
					pb.Release()
				}
			}()
			break
		}
		pre = append(pre, early{f: f, pb: pb})
	}
	size, interrupted, deadRanks, err := decodeWelcome(welcome.Payload)
	if err != nil {
		for _, e := range pre {
			if e.pb != nil {
				e.pb.Release()
			}
		}
		conn.Close()
		return nil, err
	}
	if size != cfg.Size {
		for _, e := range pre {
			if e.pb != nil {
				e.pb.Release()
			}
		}
		conn.Close()
		return nil, fmt.Errorf("procmpi: coordinator size %d, worker expects %d", size, cfg.Size)
	}
	w.interrupted = interrupted
	for _, r := range deadRanks {
		if r >= 0 && r < cfg.Size {
			w.dead[r] = true
			w.deaths++
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
	w.mu.Lock()
	defer w.mu.Unlock()
	if rank == w.rank {
		return !w.killed
	}
	return !w.dead[rank]
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
	w.mu.Lock()
	switch {
	case w.aborted, w.connDown:
		w.mu.Unlock()
		return false, mpi.ErrAborted
	case w.killed:
		w.mu.Unlock()
		return false, mpi.ErrKilled
	case w.interrupted:
		w.mu.Unlock()
		return false, mpi.ErrInterrupted
	}
	w.sent[dst]++
	drop := w.dead[dst]
	w.mu.Unlock()
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
	msg, err := w.recv(src, tag)
	if err != nil {
		w.fireHandler(err)
	}
	return msg, err
}

func (w *Worker) recv(src, tag int) (mpi.Message, error) {
	if src != mpi.AnySource {
		if err := w.checkPeer(src); err != nil {
			return mpi.Message{}, err
		}
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	for {
		if i, ok := w.matchLocked(src, tag); ok {
			return w.takeLocked(i), nil
		}
		if err := w.errIfDownLocked(src); err != nil {
			return mpi.Message{}, err
		}
		w.cond.Wait()
	}
}

// Probe implements mpi.Comm.
func (w *Worker) Probe(src, tag int) (mpi.Status, error) {
	st, err := w.probe(src, tag)
	if err != nil {
		w.fireHandler(err)
	}
	return st, err
}

func (w *Worker) probe(src, tag int) (mpi.Status, error) {
	if src != mpi.AnySource {
		if err := w.checkPeer(src); err != nil {
			return mpi.Status{}, err
		}
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	for {
		if i, ok := w.matchLocked(src, tag); ok {
			m := w.queue[i]
			return mpi.Status{Source: m.Source, Tag: m.Tag, Len: len(m.Data)}, nil
		}
		if err := w.errIfDownLocked(src); err != nil {
			return mpi.Status{}, err
		}
		w.cond.Wait()
	}
}

// Isend implements mpi.Comm; sends are eager, so the request is born
// fulfilled.
func (w *Worker) Isend(dst, tag int, data []byte) (mpi.Request, error) {
	err := w.Send(dst, tag, data)
	return &request{
		done: true,
		st:   mpi.Status{Source: w.rank, Tag: tag, Len: len(data)},
		err:  err,
	}, nil
}

// Irecv implements mpi.Comm; matching is lazy (at Wait/Test), like the
// simulated backend.
func (w *Worker) Irecv(src, tag int) (mpi.Request, error) {
	if src != mpi.AnySource {
		if err := w.checkPeer(src); err != nil {
			return nil, err
		}
	}
	return &request{w: w, src: src, tag: tag, isRecv: true}, nil
}

// SentCounts implements mpi.CountTracker.
func (w *Worker) SentCounts() []uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]uint64, len(w.sent))
	copy(out, w.sent)
	return out
}

// RecvCounts implements mpi.CountTracker.
func (w *Worker) RecvCounts() []uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]uint64, len(w.recvd))
	copy(out, w.recvd)
	return out
}

// PendingMessages returns the number of queued-but-unreceived messages.
func (w *Worker) PendingMessages() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.queue)
}

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
	w.mu.Lock()
	w.handler = fn
	if fn != nil && w.notified == nil {
		w.notified = make(map[int]bool)
	}
	w.cond.Broadcast()
	w.mu.Unlock()
}

// FailureAck implements mpi.Comm: it acknowledges every death observed
// so far (clearing ErrFailurePending until the next one) and returns
// the acknowledged failed ranks in ascending order.
func (w *Worker) FailureAck() []int {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.ackedDeaths = w.deaths
	var acked []int
	for r, d := range w.dead {
		if d {
			acked = append(acked, r)
		}
	}
	return acked
}

// fireHandler invokes the errhandler for deaths it has not yet been
// told about. The fresh set is collected under the lock but the handler
// runs outside it, so a handler may call FailureAck, Agree, or Shrink.
func (w *Worker) fireHandler(err error) {
	if !isNotifiableErr(err) {
		return
	}
	w.mu.Lock()
	if w.handler == nil {
		w.mu.Unlock()
		return
	}
	fn := w.handler
	var fresh []int
	for r, d := range w.dead {
		if d && !w.notified[r] {
			w.notified[r] = true
			fresh = append(fresh, r)
		}
	}
	w.mu.Unlock()
	for _, r := range fresh {
		fn(mpi.FailureInfo{Rank: r})
	}
}

func isNotifiableErr(err error) bool {
	return errors.Is(err, mpi.ErrPeerDead) || errors.Is(err, mpi.ErrFailurePending)
}

// ftStart opens a fault-tolerant collective round: it bumps the request
// sequence (stale results from an interrupted round are ignored by the
// seq echo) after verifying the endpoint may still participate. The
// caller holds ftMu.
func (w *Worker) ftStart() (int32, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	switch {
	case w.aborted, w.connDown:
		return 0, mpi.ErrAborted
	case w.killed:
		return 0, mpi.ErrKilled
	case w.interrupted:
		return 0, mpi.ErrInterrupted
	}
	w.ftSeq++
	w.ftDone = false
	return w.ftSeq, nil
}

// ftWait parks until the round identified by seq completes or the
// endpoint leaves the world (abort, own death, epoch interrupt).
func (w *Worker) ftWait(seq int32) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	for {
		switch {
		case w.aborted, w.connDown:
			return mpi.ErrAborted
		case w.killed:
			return mpi.ErrKilled
		case w.interrupted:
			return mpi.ErrInterrupted
		}
		if w.ftDone && w.ftSeq == seq {
			return nil
		}
		w.cond.Wait()
	}
}

// Agree implements mpi.Comm: a fault-tolerant all-reduce of one flag
// (logical AND) across the live ranks, coordinated hub-side. Dead ranks
// are excused; every live rank gets the same result.
func (w *Worker) Agree(flag bool) (bool, error) {
	w.ftMu.Lock()
	defer w.ftMu.Unlock()
	seq, err := w.ftStart()
	if err != nil {
		return false, err
	}
	var p byte
	if flag {
		p = 1
	}
	f := mpi.Frame{Type: frameAgree, Src: int32(w.rank), Dst: -1, Tag: seq, Payload: []byte{p}}
	if err := w.writeFrame(f); err != nil {
		return false, mpi.ErrAborted
	}
	if err := w.ftWait(seq); err != nil {
		return false, err
	}
	w.mu.Lock()
	out := w.ftFlag
	w.mu.Unlock()
	return out, nil
}

// Shrink implements mpi.Comm: the live ranks agree on the survivor set
// (coordinated hub-side, same round machinery as Agree) and each wraps
// itself in a dense-renumbered communicator over that set.
func (w *Worker) Shrink() (mpi.Comm, error) {
	w.ftMu.Lock()
	survivors, err := w.shrinkRound()
	w.ftMu.Unlock()
	if err != nil {
		return nil, err
	}
	member := false
	for _, r := range survivors {
		if r == w.rank {
			member = true
			break
		}
	}
	if !member {
		// This rank died (or was announced dead) while the round ran; it
		// cannot continue in a communicator it is not part of.
		return nil, mpi.ErrKilled
	}
	w.FailureAck() // Shrink implies failure_ack at the transport level
	return mpi.NewShrunk(w, survivors)
}

func (w *Worker) shrinkRound() ([]int, error) {
	seq, err := w.ftStart()
	if err != nil {
		return nil, err
	}
	f := mpi.Frame{Type: frameShrink, Src: int32(w.rank), Dst: -1, Tag: seq}
	if err := w.writeFrame(f); err != nil {
		return nil, mpi.ErrAborted
	}
	if err := w.ftWait(seq); err != nil {
		return nil, err
	}
	w.mu.Lock()
	survivors := make([]int, len(w.ftSurvivors))
	copy(survivors, w.ftSurvivors)
	w.mu.Unlock()
	return survivors, nil
}

// matchLocked returns the index of the first queued message matching
// (src, tag); scanning in arrival order preserves FIFO per (src, tag).
func (w *Worker) matchLocked(src, tag int) (int, bool) {
	for i := range w.queue {
		m := &w.queue[i]
		if (src == mpi.AnySource || m.Source == src) && (tag == mpi.AnyTag || m.Tag == tag) {
			return i, true
		}
	}
	return 0, false
}

// takeLocked removes and returns queue[i], recording the delivery.
func (w *Worker) takeLocked(i int) mpi.Message {
	m := w.queue[i]
	copy(w.queue[i:], w.queue[i+1:])
	w.queue[len(w.queue)-1] = mpi.Message{}
	w.queue = w.queue[:len(w.queue)-1]
	w.recvd[m.Source]++
	return m
}

// errIfDownLocked mirrors the simulated backend's priority: abort, own
// death, epoch interrupt, then awaited-peer death.
func (w *Worker) errIfDownLocked(src int) error {
	switch {
	case w.aborted, w.connDown:
		return mpi.ErrAborted
	case w.killed:
		return mpi.ErrKilled
	case w.interrupted:
		return mpi.ErrInterrupted
	case src != mpi.AnySource && w.dead[src]:
		return mpi.ErrPeerDead
	case src == mpi.AnySource && w.handler != nil && w.ackedDeaths < w.deaths:
		// A handler-bearing endpoint must observe unacknowledged deaths
		// before blocking on a wildcard: the awaited sender may be dead.
		return mpi.ErrFailurePending
	}
	return nil
}

// tryRecvLocked-style non-blocking receive for request.Test.
func (w *Worker) tryRecv(src, tag int) (mpi.Message, bool, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if i, ok := w.matchLocked(src, tag); ok {
		return w.takeLocked(i), true, nil
	}
	if err := w.errIfDownLocked(src); err != nil {
		return mpi.Message{}, true, err
	}
	return mpi.Message{}, false, nil
}

// purgeLocked discards the interrupted epoch's queued traffic.
func (w *Worker) purgeLocked() {
	for i := range w.queue {
		w.queue[i].Release()
	}
	w.queue = w.queue[:0]
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

func (w *Worker) markConnDown() {
	w.mu.Lock()
	if !w.connDown {
		w.connDown = true
		w.cond.Broadcast()
	}
	w.mu.Unlock()
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
	release := func() {
		if pb != nil {
			pb.Release()
		}
	}
	switch f.Type {
	case frameData:
		src := int(f.Src)
		w.mu.Lock()
		// Traffic addressed to a dead incarnation of this rank, or from a
		// peer already announced dead, belongs to a closed epoch: drop it.
		if w.killed || w.aborted || src < 0 || src >= w.size || w.dead[src] {
			w.mu.Unlock()
			release()
			return
		}
		w.queue = append(w.queue, mpi.NewMessage(src, int(f.Tag), f.Payload, pb))
		w.cond.Broadcast()
		w.mu.Unlock()
	case frameDead:
		w.mu.Lock()
		if r := int(f.Src); r >= 0 && r < w.size && !w.dead[r] {
			w.dead[r] = true
			w.deaths++
		}
		w.cond.Broadcast()
		w.mu.Unlock()
		release()
	case frameRevive:
		w.mu.Lock()
		if r := int(f.Src); r >= 0 && r < w.size {
			w.dead[r] = false
		}
		w.cond.Broadcast()
		w.mu.Unlock()
		release()
	case frameInterrupt:
		w.mu.Lock()
		w.interrupted = true
		w.cond.Broadcast()
		w.mu.Unlock()
		release()
		_ = w.writeControl(frameInterruptAck)
	case frameResume:
		w.mu.Lock()
		w.purgeLocked()
		for i := range w.sent {
			w.sent[i], w.recvd[i] = 0, 0
		}
		w.interrupted = false
		w.cond.Broadcast()
		w.mu.Unlock()
		release()
		_ = w.writeControl(frameResumeAck)
	case frameAbort:
		w.mu.Lock()
		w.aborted = true
		w.cond.Broadcast()
		w.mu.Unlock()
		release()
	case frameKilled:
		w.mu.Lock()
		w.killed = true
		w.cond.Broadcast()
		w.mu.Unlock()
		release()
	case frameAgreeResult:
		w.mu.Lock()
		if f.Tag == w.ftSeq && !w.ftDone {
			w.ftDone = true
			w.ftFlag = len(f.Payload) > 0 && f.Payload[0] != 0
			w.cond.Broadcast()
		}
		w.mu.Unlock()
		release()
	case frameShrinkResult:
		survivors, err := decodeSurvivors(f.Payload)
		w.mu.Lock()
		if err == nil && f.Tag == w.ftSeq && !w.ftDone {
			w.ftDone = true
			w.ftSurvivors = survivors
			w.cond.Broadcast()
		}
		w.mu.Unlock()
		release()
	default:
		release()
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

// request implements mpi.Request for worker operations.
type request struct {
	w      *Worker
	src    int
	tag    int
	isRecv bool

	mu   sync.Mutex
	done bool
	st   mpi.Status
	msg  mpi.Message
	err  error
}

var _ mpi.Request = (*request)(nil)

func statusOf(msg mpi.Message) mpi.Status {
	return mpi.Status{Source: msg.Source, Tag: msg.Tag, Len: len(msg.Data)}
}

func (r *request) Wait() (mpi.Message, mpi.Status, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.done {
		return r.msg, r.st, r.err
	}
	msg, err := r.w.Recv(r.src, r.tag)
	r.done = true
	r.err = err
	if err == nil {
		r.msg = msg
		r.st = statusOf(msg)
	}
	return r.msg, r.st, r.err
}

func (r *request) Test() (bool, mpi.Message, mpi.Status, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.done {
		return true, r.msg, r.st, r.err
	}
	msg, ok, err := r.w.tryRecv(r.src, r.tag)
	if !ok {
		return false, mpi.Message{}, mpi.Status{}, nil
	}
	r.done = true
	r.err = err
	if err == nil {
		r.msg = msg
		r.st = statusOf(msg)
	} else {
		r.w.fireHandler(err)
	}
	return true, r.msg, r.st, r.err
}
