package procmpi

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/mpi"
	"repro/internal/obs"
)

// defaultHeartbeatTimeout is how long a worker may stay silent before
// the coordinator declares it dead. Twelve heartbeat intervals at the
// default cadence: far above scheduling jitter, far below a test's
// patience.
const defaultHeartbeatTimeout = 3 * time.Second

// epoch phases of the coordinator's routing plane.
const (
	phaseRun = iota
	// phaseInterrupted: the epoch is paused; all data frames are dropped.
	phaseInterrupted
	// phaseResuming: resume frames are going out; data is forwarded only
	// from workers that have already acked (their traffic is new-epoch)
	// and only once the resume broadcast has fully landed (resumeReady),
	// so no destination can see new-epoch data before its own resume.
	phaseResuming
)

// CoordinatorConfig configures the rank-zero routing hub.
type CoordinatorConfig struct {
	// Size is the number of physical ranks expected to rendezvous.
	Size int
	// HeartbeatTimeout declares a silent worker dead; zero means the
	// default, negative disables heartbeat monitoring (socket EOF still
	// detects deaths).
	HeartbeatTimeout time.Duration
	// Obs registers the transport counters (proc_frames_tx_total, ...);
	// nil disables them.
	Obs *obs.Registry
	// Flight receives liveness and epoch transitions — the same "dead",
	// "revive", "interrupt", "resume", "abort" records the simulated
	// backend emits, so redreport and the timeline read identically.
	Flight *obs.Recorder
	// OnDeath is called (outside coordinator locks) whenever a rank dies
	// — by Kill, socket EOF, or heartbeat timeout — so kills delivered
	// from outside the job (a script SIGKILLing a worker) are seen like
	// injected ones. Kill calls it synchronously.
	OnDeath func(rank int)
	// OnBye is called when a worker leaves cleanly: completed is true
	// for Worker.Bye, false for Worker.Leave.
	OnBye func(rank int, completed bool)
	// OnStep is called for relayed application step notifications.
	OnStep func(rank, step int)
	// OnAppErr is called for relayed application errors.
	OnAppErr func(rank int, msg string)
}

// wconn is one worker's registered connection.
type wconn struct {
	rank int
	gen  int // incarnation; a reconnect bumps it
	c    net.Conn

	wmu     sync.Mutex // serialises writes to this worker
	scratch []byte

	lastBeat int64 // atomic: UnixNano of the last heartbeat or frame
}

// coordMetrics bundles the hub's counters.
type coordMetrics struct {
	framesTx   *obs.Counter
	framesRx   *obs.Counter
	bytesTx    *obs.Counter
	bytesRx    *obs.Counter
	drops      *obs.Counter
	kills      *obs.Counter
	reconnects *obs.Counter
	hbMisses   *obs.Counter
}

func newCoordMetrics(reg *obs.Registry) coordMetrics {
	if reg == nil {
		return coordMetrics{}
	}
	return coordMetrics{
		framesTx:   reg.Counter("proc_frames_tx_total"),
		framesRx:   reg.Counter("proc_frames_rx_total"),
		bytesTx:    reg.Counter("proc_bytes_tx_total"),
		bytesRx:    reg.Counter("proc_bytes_rx_total"),
		drops:      reg.Counter("proc_drops_total"),
		kills:      reg.Counter("proc_kills_total"),
		reconnects: reg.Counter("proc_reconnects_total"),
		hbMisses:   reg.Counter("proc_heartbeat_misses_total"),
	}
}

// Coordinator is the rank-zero hub: it accepts worker connections,
// routes data frames between them, observes liveness (EOF, heartbeat
// timeout), and drives the shared epoch protocol. It implements the
// control half of mpi.Transport; a harness or job runner supplies
// Endpoint from its side of the world.
type Coordinator struct {
	cfg    CoordinatorConfig
	ln     net.Listener
	arena  *mpi.Arena
	flight *obs.Recorder
	met    coordMetrics

	mu           sync.Mutex
	cond         *sync.Cond
	conns        []*wconn
	pids         []int
	gens         []int
	dead         []bool
	byes         []bool
	aliveN       int
	aborted      bool
	closed       bool
	phase        int
	resumeReady  bool
	acked        []bool
	rendezvoused bool     // initial all-ranks rendezvous completed
	pending      []*wconn // conns awaiting the rendezvous welcome

	// round is the fault-tolerant round behind Agree and Shrink, under
	// mu: death and connection loss excuse a rank. seqs holds each
	// arrival's request sequence, which its result echoes so a stale
	// one is ignored; results are the completed round's replies, queued
	// under mu and written by sendResults.
	round   *mpi.Round
	seqs    []int32
	results []result
}

// result is one queued round-result frame and the worker it goes to.
type result struct {
	wc *wconn
	f  mpi.Frame
}

// NewCoordinator starts a hub on ln (the caller picks unix vs tcp by
// what it listens on) and begins accepting worker connections.
func NewCoordinator(ln net.Listener, cfg CoordinatorConfig) (*Coordinator, error) {
	if cfg.Size <= 0 {
		return nil, fmt.Errorf("procmpi: coordinator size %d", cfg.Size)
	}
	c := &Coordinator{
		cfg:    cfg,
		ln:     ln,
		arena:  mpi.NewArena(),
		flight: cfg.Flight,
		met:    newCoordMetrics(cfg.Obs),
		conns:  make([]*wconn, cfg.Size),
		pids:   make([]int, cfg.Size),
		gens:   make([]int, cfg.Size),
		dead:   make([]bool, cfg.Size),
		byes:   make([]bool, cfg.Size),
		acked:  make([]bool, cfg.Size),
		aliveN: cfg.Size,
		round:  mpi.NewRound(cfg.Size),
		seqs:   make([]int32, cfg.Size),
	}
	c.cond = sync.NewCond(&c.mu)
	go c.acceptLoop()
	hb := cfg.HeartbeatTimeout
	if hb == 0 {
		hb = defaultHeartbeatTimeout
	}
	if hb > 0 {
		go c.monitorLoop(hb)
	}
	return c, nil
}

// Addr returns the listener's address (what workers dial).
func (c *Coordinator) Addr() net.Addr { return c.ln.Addr() }

// Close shuts the hub down: no deaths are recorded for connections torn
// down by the close itself.
func (c *Coordinator) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	conns := c.liveConnsLocked()
	c.cond.Broadcast()
	c.mu.Unlock()
	c.ln.Close()
	for _, wc := range conns {
		wc.c.Close()
	}
}

// Size implements mpi.Transport.
func (c *Coordinator) Size() int { return c.cfg.Size }

// Alive implements mpi.Liveness.
func (c *Coordinator) Alive(rank int) bool {
	if rank < 0 || rank >= c.cfg.Size {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return !c.dead[rank]
}

// AliveCount implements mpi.Transport.
func (c *Coordinator) AliveCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.aliveN
}

// ForEachDead implements mpi.Transport.
func (c *Coordinator) ForEachDead(fn func(rank int)) {
	for r := 0; r < c.cfg.Size; r++ {
		c.mu.Lock()
		d := c.dead[r]
		c.mu.Unlock()
		if d {
			fn(r)
		}
	}
}

// ForEachLive implements mpi.Transport.
func (c *Coordinator) ForEachLive(fn func(rank int)) {
	for r := 0; r < c.cfg.Size; r++ {
		c.mu.Lock()
		d := c.dead[r]
		c.mu.Unlock()
		if !d {
			fn(r)
		}
	}
}

// PID returns the OS process ID a rank reported at rendezvous (ok false
// when the rank never connected or is an in-process worker).
func (c *Coordinator) PID(rank int) (int, bool) {
	if rank < 0 || rank >= c.cfg.Size {
		return 0, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pids[rank], c.pids[rank] > 0
}

// WaitConnected blocks until the initial rendezvous has completed —
// every rank has connected or died — or the deadline passes, or the hub
// aborts/closes.
func (c *Coordinator) WaitConnected(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	stop := time.AfterFunc(timeout, func() {
		c.mu.Lock()
		c.cond.Broadcast()
		c.mu.Unlock()
	})
	defer stop.Stop()
	c.mu.Lock()
	defer c.mu.Unlock()
	for !c.rendezvoused {
		n := 0
		for _, wc := range c.conns {
			if wc != nil {
				n++
			}
		}
		if c.aborted || c.closed {
			return fmt.Errorf("procmpi: coordinator down with %d/%d workers connected", n, c.cfg.Size)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("procmpi: rendezvous timeout with %d/%d workers connected", n, c.cfg.Size)
		}
		c.cond.Wait()
	}
	return nil
}

// Kill implements mpi.Transport: fail-stop a rank. The death is
// recorded synchronously; the enforcement is best-effort asynchronous —
// SIGKILL for a real process, a killed-notification for an in-process
// worker — exactly like pulling a node's power.
func (c *Coordinator) Kill(rank int) {
	if rank < 0 || rank >= c.cfg.Size {
		return
	}
	c.mu.Lock()
	if c.dead[rank] || c.aborted || c.closed {
		c.mu.Unlock()
		return
	}
	c.markDeadLocked(rank)
	wc := c.conns[rank]
	pid := c.pids[rank]
	peers := c.liveConnsLocked()
	c.mu.Unlock()

	c.met.kills.Inc()
	if pid > 0 {
		_ = syscall.Kill(pid, syscall.SIGKILL)
	} else if wc != nil {
		_ = c.writeTo(wc, mpi.Frame{Type: frameKilled, Src: int32(rank), Dst: int32(rank), Tag: 0})
	}
	c.broadcast(peers, mpi.Frame{Type: frameDead, Src: int32(rank), Dst: -1, Tag: 0})
	if c.cfg.OnDeath != nil {
		c.cfg.OnDeath(rank)
	}
	c.sendResults()
}

// markDeadLocked flips the dead bit and emits the forensic record; the
// caller broadcasts and runs callbacks after unlocking.
func (c *Coordinator) markDeadLocked(rank int) {
	c.dead[rank] = true
	c.aliveN--
	c.flight.Emit("dead", rank, -1, 0, 0)
	c.cond.Broadcast()
	c.excuseLocked(rank)
	// A rank that dies before the rendezvous no longer holds it up.
	c.rendezvousLocked()
}

// rendezvousLocked completes the initial rendezvous once every rank has
// connected or died. It is a barrier: nobody is released into the
// application before, so no early frame can be dropped at a
// not-yet-registered destination. The welcomes, which carry the dead
// set, go out from a goroutine of their own.
func (c *Coordinator) rendezvousLocked() {
	if c.rendezvoused || c.aborted || c.closed {
		return
	}
	for r, w := range c.conns {
		if w == nil && !c.dead[r] {
			return
		}
	}
	c.rendezvoused = true
	batch := c.pending
	c.pending = nil
	// The barrier wait must not count against anyone's heartbeat.
	now := time.Now().UnixNano()
	for _, w := range batch {
		atomic.StoreInt64(&w.lastBeat, now)
	}
	welcome := encodeWelcome(c.cfg.Size, c.phase != phaseRun, c.deadRanksLocked())
	c.cond.Broadcast()
	go func() {
		for _, w := range batch {
			if err := c.writeTo(w, mpi.Frame{Type: frameWelcome, Src: -1, Dst: int32(w.rank), Tag: 0, Payload: welcome}); err != nil {
				c.connLost(w)
			}
		}
	}()
}

// Abort implements mpi.Transport.
func (c *Coordinator) Abort() {
	c.mu.Lock()
	if c.aborted || c.closed {
		c.mu.Unlock()
		return
	}
	c.aborted = true
	c.flight.Emit("abort", -1, -1, 0, 0)
	peers := c.liveConnsLocked()
	c.cond.Broadcast()
	c.mu.Unlock()
	c.broadcast(peers, mpi.Frame{Type: frameAbort, Src: -1, Dst: -1, Tag: 0})
}

// Aborted implements mpi.Transport.
func (c *Coordinator) Aborted() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.aborted
}

// Interrupt implements mpi.Transport: pause the epoch and wait until
// every live worker has acknowledged (its blocked operations released),
// so the pause is as synchronous as the in-process backend's. The open
// Agree/Shrink round is discarded with the epoch.
func (c *Coordinator) Interrupt() {
	c.mu.Lock()
	if c.aborted || c.closed || c.phase != phaseRun {
		c.mu.Unlock()
		return
	}
	c.phase = phaseInterrupted
	for i := range c.acked {
		c.acked[i] = false
	}
	c.round.Reset()
	c.flight.Emit("interrupt", -1, -1, 0, 0)
	peers := c.liveConnsLocked()
	c.mu.Unlock()
	c.broadcast(peers, mpi.Frame{Type: frameInterrupt, Src: -1, Dst: -1, Tag: 0})
	c.waitAcks()
}

// Interrupted implements mpi.Transport.
func (c *Coordinator) Interrupted() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.phase != phaseRun
}

// Revive implements mpi.Transport: bring a dead rank back while the
// epoch is paused. The rank's replacement incarnation must already have
// rendezvoused (reconnect-on-revive); reviving a rank with no
// connection still flips the liveness bit — the job runner uses that
// between attempts.
func (c *Coordinator) Revive(rank int) {
	if rank < 0 || rank >= c.cfg.Size {
		return
	}
	c.mu.Lock()
	if !c.dead[rank] || c.aborted || c.closed {
		c.mu.Unlock()
		return
	}
	c.dead[rank] = false
	c.byes[rank] = false
	c.aliveN++
	if c.conns[rank] != nil {
		c.round.Admit(rank)
	}
	c.flight.Emit("revive", rank, -1, 0, 0)
	peers := c.liveConnsLocked()
	c.cond.Broadcast()
	c.mu.Unlock()
	c.broadcast(peers, mpi.Frame{Type: frameRevive, Src: int32(rank), Dst: -1, Tag: 0})
}

// Resume implements mpi.Transport: end the pause. Every live worker
// purges its mailbox and resets its bookmark counts before acking; data
// flows again per-worker as acks land (resumeReady gates re-ordering,
// see phaseResuming).
func (c *Coordinator) Resume() {
	c.mu.Lock()
	if c.phase != phaseInterrupted {
		c.mu.Unlock()
		return
	}
	c.phase = phaseResuming
	c.resumeReady = false
	for i := range c.acked {
		c.acked[i] = false
	}
	peers := c.liveConnsLocked()
	c.mu.Unlock()
	c.broadcast(peers, mpi.Frame{Type: frameResume, Src: -1, Dst: -1, Tag: 0})
	c.mu.Lock()
	c.resumeReady = true
	c.mu.Unlock()
	c.waitAcks()
	c.mu.Lock()
	c.phase = phaseRun
	c.flight.Emit("resume", -1, -1, 0, 0)
	c.mu.Unlock()
}

// arrive records one rank's arrival in the round. Only traffic of the
// running epoch counts; an interrupted round's arrivals were discarded.
func (c *Coordinator) arrive(wc *wconn, f mpi.Frame) {
	flag := len(f.Payload) > 0 && f.Payload[0] != 0
	wantSurvivors := len(f.Payload) > 1 && f.Payload[1] != 0
	c.mu.Lock()
	if c.conns[wc.rank] == wc && !c.dead[wc.rank] && !c.aborted && !c.closed && c.inEpochLocked(wc.rank) {
		c.seqs[wc.rank] = f.Tag
		if n := c.round.Arrive(wc.rank, flag, wantSurvivors); n != 0 {
			if ended, _ := c.round.Ended(n); ended {
				c.queueResultsLocked()
			}
		}
	}
	c.mu.Unlock()
	c.sendResults()
}

// excuseLocked releases the round from waiting on rank.
func (c *Coordinator) excuseLocked(rank int) {
	if c.round.Excuse(rank) {
		c.queueResultsLocked()
	}
}

// queueResultsLocked queues the just-completed round's result for each
// of its survivors; sendResults writes them once the caller has
// unlocked (the broadcast convention: a death's broadcast goes out
// before the results of a round it completed).
func (c *Coordinator) queueResultsLocked() {
	survivors := c.round.Survivors()
	if survivors != nil {
		c.flight.Emit("shrink", -1, -1, len(survivors), 0)
	}
	payload := encodeRoundResult(c.round.Flag(), survivors)
	c.round.ForEachSurvivor(func(r int) {
		c.results = append(c.results, result{c.conns[r], mpi.Frame{
			Type: frameRoundResult, Src: -1, Dst: int32(r), Tag: c.seqs[r], Payload: payload,
		}})
	})
}

// sendResults writes the queued round results.
func (c *Coordinator) sendResults() {
	c.mu.Lock()
	out := c.results
	c.results = nil
	c.mu.Unlock()
	for _, res := range out {
		if err := c.writeTo(res.wc, res.f); err != nil {
			c.connLost(res.wc)
		}
	}
}

// waitAcks blocks until every rank is dead, disconnected, or acked; a
// death during the wait satisfies it via markDeadLocked's broadcast.
func (c *Coordinator) waitAcks() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if c.aborted || c.closed {
			return
		}
		all := true
		for r := 0; r < c.cfg.Size; r++ {
			if !c.dead[r] && c.conns[r] != nil && !c.acked[r] {
				all = false
				break
			}
		}
		if all {
			return
		}
		c.cond.Wait()
	}
}

// liveConnsLocked snapshots the registered connections of live ranks.
func (c *Coordinator) liveConnsLocked() []*wconn {
	out := make([]*wconn, 0, c.aliveN)
	for r, wc := range c.conns {
		if wc != nil && !c.dead[r] {
			out = append(out, wc)
		}
	}
	return out
}

// broadcast writes a control frame to each connection in turn.
func (c *Coordinator) broadcast(peers []*wconn, f mpi.Frame) {
	for _, wc := range peers {
		_ = c.writeTo(wc, f)
	}
}

// writeTo writes one frame to a worker under its write lock.
func (c *Coordinator) writeTo(wc *wconn, f mpi.Frame) error {
	wc.wmu.Lock()
	var err error
	wc.scratch, err = mpi.WriteFrame(wc.c, f, wc.scratch)
	wc.wmu.Unlock()
	if err == nil {
		c.met.framesTx.Inc()
		c.met.bytesTx.Add(uint64(mpi.EncodedFrameLen(len(f.Payload))))
	}
	return err
}

// acceptLoop admits workers until the listener closes.
func (c *Coordinator) acceptLoop() {
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			return
		}
		go c.handshake(conn)
	}
}

// handshake reads a hello, registers the worker, and starts its reader.
func (c *Coordinator) handshake(conn net.Conn) {
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	f, pb, err := mpi.ReadFrame(conn, c.arena)
	if err != nil || f.Type != frameHello {
		if pb != nil {
			pb.Release()
		}
		conn.Close()
		return
	}
	rank := int(f.Src)
	pid, perr := decodeHello(f.Payload)
	if pb != nil {
		pb.Release()
	}
	if perr != nil || rank < 0 || rank >= c.cfg.Size {
		conn.Close()
		return
	}
	_ = conn.SetDeadline(time.Time{})

	c.mu.Lock()
	if c.aborted || c.closed {
		c.mu.Unlock()
		conn.Close()
		return
	}
	if old := c.conns[rank]; old != nil {
		if !c.dead[rank] {
			// A live rank already owns this slot; refuse the impostor.
			c.mu.Unlock()
			conn.Close()
			return
		}
		// A dead rank's replacement incarnation takes over the slot.
		old.c.Close()
	}
	c.gens[rank]++
	wc := &wconn{rank: rank, gen: c.gens[rank], c: conn}
	atomic.StoreInt64(&wc.lastBeat, time.Now().UnixNano())
	c.conns[rank] = wc
	c.pids[rank] = pid
	if !c.dead[rank] {
		c.round.Admit(rank)
	}
	if wc.gen > 1 {
		c.met.reconnects.Inc()
	}
	c.cond.Broadcast()
	// The read loop starts before the welcome so a death during
	// rendezvous is still observed via EOF. No data can arrive yet —
	// a worker blocks in Dial until its welcome lands.
	go c.readLoop(wc)

	if !c.rendezvoused {
		c.pending = append(c.pending, wc)
		c.rendezvousLocked()
		c.mu.Unlock()
		return
	}

	// Post-rendezvous joiner (a revived rank's new incarnation): welcome
	// immediately with the current liveness view.
	welcome := encodeWelcome(c.cfg.Size, c.phase != phaseRun, c.deadRanksLocked())
	c.mu.Unlock()
	if err := c.writeTo(wc, mpi.Frame{Type: frameWelcome, Src: -1, Dst: int32(rank), Tag: 0, Payload: welcome}); err != nil {
		c.connLost(wc)
	}
}

func (c *Coordinator) deadRanksLocked() []int {
	var out []int
	for r, d := range c.dead {
		if d {
			out = append(out, r)
		}
	}
	return out
}

// readLoop drains one worker connection. A single reader per connection
// guarantees every frame the worker sent before dying is forwarded
// before its death is announced — receivers never observe a death ahead
// of the victim's last message.
func (c *Coordinator) readLoop(wc *wconn) {
	for {
		f, pb, err := mpi.ReadFrame(wc.c, c.arena)
		if err != nil {
			c.connLost(wc)
			return
		}
		c.met.framesRx.Inc()
		c.met.bytesRx.Add(uint64(mpi.EncodedFrameLen(len(f.Payload))))
		atomic.StoreInt64(&wc.lastBeat, time.Now().UnixNano())
		c.handleFrame(wc, f, pb)
	}
}

func (c *Coordinator) handleFrame(wc *wconn, f mpi.Frame, pb *mpi.PooledBuf) {
	release := func() {
		if pb != nil {
			pb.Release()
		}
	}
	switch f.Type {
	case frameData:
		c.route(wc, f)
		release()
	case frameHeartbeat:
		release()
	case frameInterruptAck, frameResumeAck:
		c.mu.Lock()
		if c.conns[wc.rank] == wc {
			c.acked[wc.rank] = true
			c.cond.Broadcast()
		}
		c.mu.Unlock()
		release()
	case frameBye:
		completed := f.Tag == 1
		var peers []*wconn
		c.mu.Lock()
		c.byes[wc.rank] = true
		if !completed && !c.dead[wc.rank] && !c.aborted && !c.closed {
			// A casualty leaving: its peers must stop waiting on it, as
			// on a death, but it is no failure, so OnDeath is not called.
			c.markDeadLocked(wc.rank)
			peers = c.liveConnsLocked()
		}
		c.cond.Broadcast()
		c.mu.Unlock()
		release()
		if peers != nil {
			c.broadcast(peers, mpi.Frame{Type: frameDead, Src: int32(wc.rank), Dst: -1, Tag: 0})
		}
		if c.cfg.OnBye != nil {
			c.cfg.OnBye(wc.rank, completed)
		}
		c.sendResults()
	case frameRound:
		c.arrive(wc, f)
		release()
	case frameStep:
		release()
		if c.cfg.OnStep != nil {
			c.cfg.OnStep(wc.rank, int(f.Tag))
		}
	case frameAppErr:
		msg := string(f.Payload)
		release()
		if c.cfg.OnAppErr != nil {
			c.cfg.OnAppErr(wc.rank, msg)
		}
	default:
		release()
	}
}

// inEpochLocked reports whether src's traffic belongs to the running
// epoch: during a resume, only once src has acked and the resume
// broadcast has fully landed (see phaseResuming).
func (c *Coordinator) inEpochLocked(src int) bool {
	return c.phase == phaseRun || c.phase == phaseResuming && c.resumeReady && c.acked[src]
}

// route forwards one data frame src → dst, enforcing the liveness and
// epoch gates at the hub.
func (c *Coordinator) route(wc *wconn, f mpi.Frame) {
	src, dst := wc.rank, int(f.Dst)
	c.mu.Lock()
	drop := true
	var dwc *wconn
	switch {
	case c.aborted, c.closed:
	case int(f.Src) != src:
		// A worker may only speak as its own rank.
	case c.dead[src]:
	case !c.inEpochLocked(src):
	case dst < 0 || dst >= c.cfg.Size, c.dead[dst], c.conns[dst] == nil:
	default:
		drop = false
		dwc = c.conns[dst]
	}
	c.mu.Unlock()
	if drop {
		c.met.drops.Inc()
		c.flight.Emit("drop", src, -1, int(f.Tag), int64(dst))
		return
	}
	if err := c.writeTo(dwc, f); err != nil {
		c.connLost(dwc)
	}
}

// connLost handles a connection failure: if the rank was alive, its
// socket EOF is the death certificate (a SIGKILLed process closes its
// socket instantly). A rank that already said bye departs cleanly — its
// process exiting after completion is not a failure.
func (c *Coordinator) connLost(wc *wconn) {
	c.mu.Lock()
	if c.conns[wc.rank] != wc {
		// A replacement incarnation already owns the slot.
		c.mu.Unlock()
		wc.c.Close()
		return
	}
	c.conns[wc.rank] = nil
	c.excuseLocked(wc.rank)
	died := false
	if !c.dead[wc.rank] && !c.aborted && !c.closed && !c.byes[wc.rank] {
		c.markDeadLocked(wc.rank)
		died = true
	}
	peers := c.liveConnsLocked()
	c.mu.Unlock()
	wc.c.Close()
	if died {
		c.met.kills.Inc()
		c.broadcast(peers, mpi.Frame{Type: frameDead, Src: int32(wc.rank), Dst: -1, Tag: 0})
		if c.cfg.OnDeath != nil {
			c.cfg.OnDeath(wc.rank)
		}
	}
	c.sendResults()
}

// monitorLoop watches heartbeats: a worker silent past the timeout is
// fail-stopped even though its socket is open (SIGSTOP, livelock). The
// kernel keeps sockets of stopped processes alive, so EOF alone cannot
// catch them.
func (c *Coordinator) monitorLoop(timeout time.Duration) {
	tick := timeout / 4
	if tick < 10*time.Millisecond {
		tick = 10 * time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for range t.C {
		c.mu.Lock()
		if c.closed || c.aborted {
			c.mu.Unlock()
			return
		}
		now := time.Now().UnixNano()
		var late []int
		for r, wc := range c.conns {
			if wc == nil || c.dead[r] {
				continue
			}
			if now-atomic.LoadInt64(&wc.lastBeat) > int64(timeout) {
				late = append(late, r)
			}
		}
		c.mu.Unlock()
		for _, r := range late {
			c.met.hbMisses.Inc()
			c.flight.Emit("heartbeat_timeout", r, -1, 0, 0)
			c.Kill(r)
		}
	}
}
