package main

// Outside-in tracing. Every layer is timed at its public boundary by a
// wrapper this file defines; nothing inside internal/ is instrumented.
//
//	apps        appWrapper (App.Run) and the ctx.NoteStep/IsWriter hooks
//	redundancy  appComm, the ctx.Comm the application calls
//	simmpi      transport (Kill/Abort/Interrupt/Revive/Resume) and
//	            transportComm, the per-rank endpoints it hands out
//	checkpoint  store, the stable-tier Storage
//	core        episode timestamps taken from the wrappers above
//
// Every job runs through the wrappers; jobTrace.full switches the
// per-call timing on (the traced run) or off (the end-to-end run, which
// keeps only the episode timestamps recovery_s needs). A layer's self
// time is its call time minus the time of the child layer's calls made
// on the same physical rank: the goroutine running rank p is the only
// caller of p's endpoint on non-peer tags, so per-rank atomics carry the
// child time across the boundary.

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/apps"
	"repro/internal/checkpoint"
	"repro/internal/mpi"
	"repro/internal/redundancy"
	"repro/internal/simmpi"
)

// hist is a lock-free log-linear latency histogram: eight sub-buckets
// per power of two, so a quantile read from it is within 1/8 of the
// true value, and interpolation inside the bucket keeps the digits.
type hist struct {
	b [64 * 8]atomic.Uint64
}

func (h *hist) observe(d time.Duration) {
	ns := uint64(d)
	if ns < 8 {
		h.b[ns].Add(1)
		return
	}
	e := bits.Len64(ns) - 1
	sub := (ns >> (e - 3)) & 7
	h.b[e*8+int(sub)].Add(1)
}

// bucketBounds returns bucket i's [lo, hi) in nanoseconds.
func bucketBounds(i int) (lo, hi float64) {
	if i < 8 {
		return float64(i), float64(i + 1)
	}
	e, sub := i/8, i%8
	w := math.Ldexp(1, e-3)
	lo = math.Ldexp(1, e) + float64(sub)*w
	return lo, lo + w
}

// quantile returns the q-quantile in nanoseconds (0 when empty).
func (h *hist) quantile(q float64) float64 {
	var total uint64
	for i := range h.b {
		total += h.b[i].Load()
	}
	if total == 0 {
		return 0
	}
	target := q * float64(total)
	var cum float64
	for i := range h.b {
		n := float64(h.b[i].Load())
		if n == 0 {
			continue
		}
		if cum+n >= target {
			lo, hi := bucketBounds(i)
			return lo + (hi-lo)*(target-cum)/n
		}
		cum += n
	}
	lo, _ := bucketBounds(len(h.b) - 1)
	return lo
}

// rankCounters carries child-layer time across the redundancy/transport
// boundary for one physical rank. Only non-peer-tag traffic is counted:
// peer-store servers and pipeline workers use the same endpoint from
// other goroutines, always on tags at or above mpi.TagPeerBase.
type rankCounters struct {
	ops   atomic.Uint64 // transport calls on non-peer tags
	ns    atomic.Int64  // their duration
	inApp atomic.Bool   // the application is inside a redundancy call
}

// episode is one failure episode: from the kill that exhausts a sphere
// (or, for a failure redundancy masks, the replica kill) to the first
// application step after the repair.
type episode struct {
	masked                       bool
	sphere                       int
	killStep                     int64
	kill, detect, repair, resume time.Duration
}

// jobTrace collects one job's measurements.
type jobTrace struct {
	full    bool
	base    time.Time
	rankMap *redundancy.RankMap
	ranks   []rankCounters

	// Episode timeline. awaiting gates the per-step check so that
	// NoteStep takes the lock only while an episode waits for its step.
	mu       sync.Mutex
	open     *episode
	episodes []episode
	awaiting atomic.Bool
	maxStep  atomic.Int64

	// apps
	runNs, stallNs, steps atomic.Int64
	// redundancy
	redCalls, redNs, redSelfNs, appBytes, appWireBytes atomic.Int64
	redRecv                                            hist
	// simmpi
	sends, sendBytes, sendNs, recvNs, ctlOps, ctlNs atomic.Int64
	simRecv                                         hist
	// checkpoint (stable tier)
	stWrites, stBytes, stWriteNs, stCommits, stCommitNs, stReadNs atomic.Int64
}

func newJobTrace(full bool, rm *redundancy.RankMap) *jobTrace {
	return &jobTrace{
		full:    full,
		base:    time.Now(),
		rankMap: rm,
		ranks:   make([]rankCounters, rm.PhysicalSize()),
	}
}

func (t *jobTrace) now() time.Duration { return time.Since(t.base) }

// --- episode timeline ---

// onKill runs after a rank was killed; alive reports the liveness the
// transport sees now.
func (t *jobTrace) onKill(rank int, alive func(int) bool) {
	owner, err := t.rankMap.Owner(rank)
	if err != nil {
		return
	}
	sphere, err := t.rankMap.Sphere(owner.Virtual)
	if err != nil {
		return
	}
	exhausted := true
	for _, q := range sphere {
		if alive(q) {
			exhausted = false
		}
	}
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	switch {
	case exhausted:
		// The exhausting kill (re)opens the episode. An earlier replica
		// kill of the same sphere was not a masked failure after all:
		// its episode is dropped, even if a step already closed it.
		kept := t.episodes[:0]
		for _, e := range t.episodes {
			if !e.masked || e.sphere != owner.Virtual {
				kept = append(kept, e)
			}
		}
		t.episodes = kept
		t.open = &episode{sphere: owner.Virtual, kill: now}
	case t.open == nil:
		t.open = &episode{masked: true, sphere: owner.Virtual, kill: now, killStep: t.maxStep.Load()}
	default:
		return
	}
	t.awaiting.Store(true)
}

// onDetect marks the first sign of the failure: Interrupt/Abort on the
// transport, or the errhandler firing under shrink recovery.
func (t *jobTrace) onDetect() {
	if !t.awaiting.Load() {
		return
	}
	now := t.now()
	t.mu.Lock()
	if e := t.open; e != nil && !e.masked && e.detect == 0 {
		e.detect = now
	}
	t.mu.Unlock()
}

// onRepair marks the repair: Resume, the next attempt's world, or
// Shrink returning.
func (t *jobTrace) onRepair() {
	if !t.awaiting.Load() {
		return
	}
	now := t.now()
	t.mu.Lock()
	if e := t.open; e != nil && !e.masked && e.repair == 0 {
		if e.detect == 0 {
			e.detect = now
		}
		e.repair = now
	}
	t.mu.Unlock()
}

// onStep runs before every NoteStep the writer replicas report.
func (t *jobTrace) onStep(step int) {
	for {
		cur := t.maxStep.Load()
		if int64(step) <= cur || t.maxStep.CompareAndSwap(cur, int64(step)) {
			break
		}
	}
	if !t.awaiting.Load() {
		return
	}
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	e := t.open
	if e == nil {
		return
	}
	if (e.masked && int64(step) > e.killStep) || (!e.masked && e.repair != 0) {
		e.resume = now
		t.episodes = append(t.episodes, *e)
		t.open = nil
		t.awaiting.Store(false)
	}
}

// finishedEpisodes returns the closed episodes.
func (t *jobTrace) finishedEpisodes() []episode {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]episode(nil), t.episodes...)
}

// --- simmpi: transport and endpoints ---

// transport wraps an attempt's world: control operations are timed and
// timestamped, endpoints are wrapped.
type transport struct {
	inner mpi.Transport
	t     *jobTrace
}

var _ mpi.Transport = (*transport)(nil)

// newTransportFactory is the core.Config.Transport hook. Each call is a
// fresh attempt's world, which is the repair of a full restart.
func (t *jobTrace) newTransportFactory() func(int, ...mpi.Option) (mpi.Transport, error) {
	return func(n int, opts ...mpi.Option) (mpi.Transport, error) {
		w, err := simmpi.NewWorld(n, opts...)
		if err != nil {
			return nil, err
		}
		t.onRepair()
		return &transport{inner: w, t: t}, nil
	}
}

func (tr *transport) ctl(start time.Duration) {
	if tr.t.full {
		tr.t.ctlOps.Add(1)
		tr.t.ctlNs.Add(int64(tr.t.now() - start))
	}
}

func (tr *transport) Size() int                     { return tr.inner.Size() }
func (tr *transport) Alive(rank int) bool           { return tr.inner.Alive(rank) }
func (tr *transport) AliveCount() int               { return tr.inner.AliveCount() }
func (tr *transport) ForEachDead(fn func(rank int)) { tr.inner.ForEachDead(fn) }
func (tr *transport) ForEachLive(fn func(rank int)) { tr.inner.ForEachLive(fn) }
func (tr *transport) Aborted() bool                 { return tr.inner.Aborted() }
func (tr *transport) Interrupted() bool             { return tr.inner.Interrupted() }

func (tr *transport) Endpoint(rank int) (mpi.Comm, error) {
	c, err := tr.inner.Endpoint(rank)
	if err != nil {
		return nil, err
	}
	return newTransportComm(c, tr.t, &tr.t.ranks[rank])
}

func (tr *transport) Kill(rank int) {
	start := tr.t.now()
	tr.inner.Kill(rank)
	tr.ctl(start)
	tr.t.onKill(rank, tr.inner.Alive)
}

func (tr *transport) Abort() {
	tr.t.onDetect()
	start := tr.t.now()
	tr.inner.Abort()
	tr.ctl(start)
}

func (tr *transport) Interrupt() {
	tr.t.onDetect()
	start := tr.t.now()
	tr.inner.Interrupt()
	tr.ctl(start)
}

func (tr *transport) Revive(rank int) {
	start := tr.t.now()
	tr.inner.Revive(rank)
	tr.ctl(start)
}

func (tr *transport) Resume() {
	start := tr.t.now()
	tr.inner.Resume()
	tr.ctl(start)
	tr.t.onRepair()
}

// transportComm wraps one physical endpoint. The redundancy layer and
// the checkpoint tier probe endpoints for mpi.SharedSender (zero-copy
// replica fan-out) and mpi.CountTracker, so the wrapper forwards both;
// the constructor refuses an endpoint lacking either rather than let
// the wrapper advertise a capability the program would not have.
type transportComm struct {
	inner  mpi.Comm
	shared mpi.SharedSender
	counts mpi.CountTracker
	t      *jobTrace
	rc     *rankCounters
}

var (
	_ mpi.Comm         = (*transportComm)(nil)
	_ mpi.SharedSender = (*transportComm)(nil)
	_ mpi.CountTracker = (*transportComm)(nil)
)

func newTransportComm(c mpi.Comm, t *jobTrace, rc *rankCounters) (*transportComm, error) {
	ss, ok1 := c.(mpi.SharedSender)
	ct, ok2 := c.(mpi.CountTracker)
	if !ok1 || !ok2 {
		return nil, fmt.Errorf("jobbench: endpoint %T lacks SharedSender or CountTracker", c)
	}
	return &transportComm{inner: c, shared: ss, counts: ct, t: t, rc: rc}, nil
}

// rankTag reports whether tag is traffic of the goroutine running the
// rank (application or checkpoint protocol), not of the peer store.
func rankTag(tag int) bool { return tag < mpi.TagPeerBase }

func (c *transportComm) sent(start time.Duration, tag, n int) {
	d := c.t.now() - start
	c.t.sends.Add(1)
	c.t.sendBytes.Add(int64(n))
	c.t.sendNs.Add(int64(d))
	if rankTag(tag) {
		c.rc.ops.Add(1)
		c.rc.ns.Add(int64(d))
		if c.rc.inApp.Load() {
			c.t.appWireBytes.Add(int64(n))
		}
	}
}

// waited accounts a blocking receive-side call. Peer-tier servers park
// in receives for the whole job, so only that goroutine's traffic is waiting.
func (c *transportComm) waited(start time.Duration, tag int, sample bool) {
	if !rankTag(tag) {
		return
	}
	d := c.t.now() - start
	c.t.recvNs.Add(int64(d))
	if sample {
		c.t.simRecv.observe(d)
	}
	c.rc.ops.Add(1)
	c.rc.ns.Add(int64(d))
}

func (c *transportComm) Rank() int { return c.inner.Rank() }
func (c *transportComm) Size() int { return c.inner.Size() }

func (c *transportComm) Send(dst, tag int, data []byte) error {
	if !c.t.full {
		return c.inner.Send(dst, tag, data)
	}
	start := c.t.now()
	err := c.inner.Send(dst, tag, data)
	c.sent(start, tag, len(data))
	return err
}

func (c *transportComm) AcquireBuffer(n int) ([]byte, *mpi.PooledBuf) {
	return c.shared.AcquireBuffer(n)
}

func (c *transportComm) SendPooled(dst, tag int, data []byte, pb *mpi.PooledBuf) error {
	if !c.t.full {
		return c.shared.SendPooled(dst, tag, data, pb)
	}
	start := c.t.now()
	err := c.shared.SendPooled(dst, tag, data, pb)
	c.sent(start, tag, len(data))
	return err
}

func (c *transportComm) Recv(src, tag int) (mpi.Message, error) {
	if !c.t.full {
		return c.inner.Recv(src, tag)
	}
	start := c.t.now()
	m, err := c.inner.Recv(src, tag)
	c.waited(start, tag, true)
	return m, err
}

func (c *transportComm) Probe(src, tag int) (mpi.Status, error) {
	if !c.t.full {
		return c.inner.Probe(src, tag)
	}
	start := c.t.now()
	st, err := c.inner.Probe(src, tag)
	c.waited(start, tag, false)
	return st, err
}

func (c *transportComm) Isend(dst, tag int, data []byte) (mpi.Request, error) {
	if !c.t.full {
		return c.inner.Isend(dst, tag, data)
	}
	start := c.t.now()
	r, err := c.inner.Isend(dst, tag, data)
	c.sent(start, tag, len(data))
	return r, err
}

func (c *transportComm) Irecv(src, tag int) (mpi.Request, error) {
	r, err := c.inner.Irecv(src, tag)
	if err != nil || !c.t.full {
		return r, err
	}
	return &transportReq{inner: r, c: c, tag: tag}, nil
}

func (c *transportComm) SetErrhandler(fn func(mpi.FailureInfo)) { c.inner.SetErrhandler(fn) }
func (c *transportComm) FailureAck() []int                      { return c.inner.FailureAck() }

// Shrink returns the backend's own *mpi.Shrunk: the redundancy layer
// reads only its survivor set and keeps sending on the full endpoint.
func (c *transportComm) Shrink() (mpi.Comm, error) {
	if !c.t.full {
		return c.inner.Shrink()
	}
	start := c.t.now()
	sc, err := c.inner.Shrink()
	c.waited(start, 0, false)
	return sc, err
}

func (c *transportComm) Agree(flag bool) (bool, error) {
	if !c.t.full {
		return c.inner.Agree(flag)
	}
	start := c.t.now()
	ok, err := c.inner.Agree(flag)
	c.waited(start, 0, false)
	return ok, err
}

func (c *transportComm) SentCounts() []uint64 { return c.counts.SentCounts() }
func (c *transportComm) RecvCounts() []uint64 { return c.counts.RecvCounts() }

// transportReq times the completion of a non-blocking receive.
type transportReq struct {
	inner mpi.Request
	c     *transportComm
	tag   int
}

func (r *transportReq) Wait() (mpi.Message, mpi.Status, error) {
	start := r.c.t.now()
	m, st, err := r.inner.Wait()
	r.c.waited(start, r.tag, true)
	return m, st, err
}

func (r *transportReq) Test() (bool, mpi.Message, mpi.Status, error) {
	start := r.c.t.now()
	done, m, st, err := r.inner.Test()
	r.c.waited(start, r.tag, false)
	return done, m, st, err
}

// --- apps and redundancy: the application boundary ---

// appWrapper wraps one application instance (the core factory makes
// one per physical replica per epoch). Run rewires the context: Comm,
// NoteStep and IsWriter go through this epoch's appRun.
type appWrapper struct {
	inner apps.App
	t     *jobTrace
}

func (w *appWrapper) Name() string { return w.inner.Name() }

func (w *appWrapper) Run(ctx *apps.Context) error {
	phys, ok := ctx.Comm.(interface{ Physical() int })
	if !ok {
		return fmt.Errorf("jobbench: ctx.Comm %T has no physical rank", ctx.Comm)
	}
	rc := &w.t.ranks[phys.Physical()]
	run := &appRun{t: w.t, rc: rc}
	comm, err := newAppComm(ctx.Comm, run)
	if err != nil {
		return err
	}
	ctx.Comm = comm
	if note := ctx.NoteStep; note != nil {
		ctx.NoteStep = func(step int) {
			w.t.onStep(step)
			if w.t.full {
				run.steps++
				run.markGap()
			}
			note(step)
		}
	}
	if w.t.full {
		isWriter := ctx.IsWriter
		ctx.IsWriter = func() bool {
			run.markGap()
			return isWriter == nil || isWriter()
		}
	}
	start := w.t.now()
	err = w.inner.Run(ctx)
	if w.t.full {
		end := w.t.now()
		run.closeGap(end)
		run.flush(end - start)
	}
	return err
}

// appRun is one rank's epoch of application time. Only the goroutine
// running the rank touches it, so its fields need no synchronisation.
type appRun struct {
	t  *jobTrace
	rc *rankCounters

	// The checkpoint line: markGap opens a window when the application
	// reaches maybeCheckpoint (IsWriter/NoteStep are called there); the
	// window closes at the next redundancy call or Run's return and is
	// checkpoint stall if the rank sent protocol traffic inside it.
	mark      time.Duration
	opsAtMark uint64

	calls, commNs, selfNs, stallNs, appBytes, steps int64
}

func (r *appRun) markGap() {
	if r.mark == 0 {
		r.mark = r.t.now()
		r.opsAtMark = r.rc.ops.Load()
	}
}

func (r *appRun) closeGap(now time.Duration) {
	if r.mark != 0 && r.rc.ops.Load() != r.opsAtMark {
		r.stallNs += int64(now - r.mark)
	}
	r.mark = 0
}

// enter starts one redundancy call; the returned values feed exit.
func (r *appRun) enter() (start time.Duration, childNs int64) {
	start = r.t.now()
	r.closeGap(start)
	r.rc.inApp.Store(true)
	return start, r.rc.ns.Load()
}

func (r *appRun) exit(start time.Duration, childNs int64) time.Duration {
	d := r.t.now() - start
	r.rc.inApp.Store(false)
	r.calls++
	r.commNs += int64(d)
	r.selfNs += int64(d) - (r.rc.ns.Load() - childNs)
	return d
}

func (r *appRun) flush(run time.Duration) {
	t := r.t
	t.runNs.Add(int64(run))
	t.stallNs.Add(r.stallNs)
	t.steps.Add(r.steps)
	t.redCalls.Add(r.calls)
	t.redNs.Add(r.commNs)
	t.redSelfNs.Add(r.selfNs)
	t.appBytes.Add(r.appBytes)
}

// appComm wraps the application's communicator (the redundancy.Comm).
// It forwards the capabilities that communicator has — CountTracker and
// Physical — and rebuilds Shrink's *mpi.Shrunk over itself, so the
// application's type assertion still holds and its post-repair traffic
// stays traced.
type appComm struct {
	inner  mpi.Comm
	counts mpi.CountTracker
	phys   interface{ Physical() int }
	run    *appRun
}

var (
	_ mpi.Comm         = (*appComm)(nil)
	_ mpi.CountTracker = (*appComm)(nil)
)

func newAppComm(c mpi.Comm, run *appRun) (*appComm, error) {
	ct, ok1 := c.(mpi.CountTracker)
	ph, ok2 := c.(interface{ Physical() int })
	if !ok1 || !ok2 {
		return nil, fmt.Errorf("jobbench: communicator %T lacks CountTracker or Physical", c)
	}
	return &appComm{inner: c, counts: ct, phys: ph, run: run}, nil
}

func (c *appComm) full() bool { return c.run.t.full }

func (c *appComm) Rank() int            { return c.inner.Rank() }
func (c *appComm) Size() int            { return c.inner.Size() }
func (c *appComm) Physical() int        { return c.phys.Physical() }
func (c *appComm) SentCounts() []uint64 { return c.counts.SentCounts() }
func (c *appComm) RecvCounts() []uint64 { return c.counts.RecvCounts() }

func (c *appComm) Send(dst, tag int, data []byte) error {
	if !c.full() {
		return c.inner.Send(dst, tag, data)
	}
	s, ch := c.run.enter()
	err := c.inner.Send(dst, tag, data)
	c.run.exit(s, ch)
	c.run.appBytes += int64(len(data))
	return err
}

func (c *appComm) Recv(src, tag int) (mpi.Message, error) {
	if !c.full() {
		return c.inner.Recv(src, tag)
	}
	s, ch := c.run.enter()
	m, err := c.inner.Recv(src, tag)
	c.run.t.redRecv.observe(c.run.exit(s, ch))
	return m, err
}

func (c *appComm) Probe(src, tag int) (mpi.Status, error) {
	if !c.full() {
		return c.inner.Probe(src, tag)
	}
	s, ch := c.run.enter()
	st, err := c.inner.Probe(src, tag)
	c.run.exit(s, ch)
	return st, err
}

func (c *appComm) Isend(dst, tag int, data []byte) (mpi.Request, error) {
	if !c.full() {
		return c.inner.Isend(dst, tag, data)
	}
	s, ch := c.run.enter()
	r, err := c.inner.Isend(dst, tag, data)
	c.run.exit(s, ch)
	c.run.appBytes += int64(len(data))
	if err != nil {
		return r, err
	}
	return &appReq{inner: r, run: c.run}, nil
}

func (c *appComm) Irecv(src, tag int) (mpi.Request, error) {
	if !c.full() {
		return c.inner.Irecv(src, tag)
	}
	s, ch := c.run.enter()
	r, err := c.inner.Irecv(src, tag)
	c.run.exit(s, ch)
	if err != nil {
		return r, err
	}
	return &appReq{inner: r, run: c.run, recv: true}, nil
}

// SetErrhandler forwards a handler that also timestamps the failure
// notification (detection under shrink recovery).
func (c *appComm) SetErrhandler(fn func(mpi.FailureInfo)) {
	if fn == nil {
		c.inner.SetErrhandler(nil)
		return
	}
	t := c.run.t
	c.inner.SetErrhandler(func(fi mpi.FailureInfo) {
		t.onDetect()
		fn(fi)
	})
}

func (c *appComm) FailureAck() []int { return c.inner.FailureAck() }

func (c *appComm) Shrink() (mpi.Comm, error) {
	var s time.Duration
	var ch int64
	if c.full() {
		s, ch = c.run.enter()
	}
	sc, err := c.inner.Shrink()
	if c.full() {
		c.run.exit(s, ch)
	}
	if err != nil {
		return nil, err
	}
	c.run.t.onRepair()
	sh, ok := sc.(*mpi.Shrunk)
	if !ok {
		return nil, fmt.Errorf("jobbench: Shrink returned %T, want *mpi.Shrunk", sc)
	}
	return mpi.NewShrunk(c, sh.BaseRanks())
}

func (c *appComm) Agree(flag bool) (bool, error) {
	if !c.full() {
		return c.inner.Agree(flag)
	}
	s, ch := c.run.enter()
	ok, err := c.inner.Agree(flag)
	c.run.exit(s, ch)
	return ok, err
}

// appReq times request completion as redundancy-layer call time.
type appReq struct {
	inner mpi.Request
	run   *appRun
	recv  bool
}

func (r *appReq) Wait() (mpi.Message, mpi.Status, error) {
	s, ch := r.run.enter()
	m, st, err := r.inner.Wait()
	d := r.run.exit(s, ch)
	if r.recv {
		r.run.t.redRecv.observe(d)
	}
	return m, st, err
}

func (r *appReq) Test() (bool, mpi.Message, mpi.Status, error) {
	s, ch := r.run.enter()
	done, m, st, err := r.inner.Test()
	r.run.exit(s, ch)
	return done, m, st, err
}

// --- checkpoint: the stable tier ---

// store wraps the stable-tier Storage. Under the peer tier it is the
// PeerStore's slow tier, written from pipeline workers; under plain
// checkpointing it is called inline by the ranks.
type store struct {
	inner checkpoint.Storage
	t     *jobTrace
}

var _ checkpoint.Storage = (*store)(nil)

func (s *store) Write(gen uint64, rank int, state []byte) error {
	if !s.t.full {
		return s.inner.Write(gen, rank, state)
	}
	start := s.t.now()
	err := s.inner.Write(gen, rank, state)
	s.t.stWriteNs.Add(int64(s.t.now() - start))
	s.t.stWrites.Add(1)
	s.t.stBytes.Add(int64(len(state)))
	return err
}

func (s *store) Commit(gen uint64, n int) error {
	if !s.t.full {
		return s.inner.Commit(gen, n)
	}
	start := s.t.now()
	err := s.inner.Commit(gen, n)
	s.t.stCommitNs.Add(int64(s.t.now() - start))
	if err == nil {
		s.t.stCommits.Add(1)
	}
	return err
}

func (s *store) Read(gen uint64, rank int) ([]byte, error) {
	if !s.t.full {
		return s.inner.Read(gen, rank)
	}
	start := s.t.now()
	b, err := s.inner.Read(gen, rank)
	s.t.stReadNs.Add(int64(s.t.now() - start))
	return b, err
}

func (s *store) Latest() (uint64, int, bool, error) { return s.inner.Latest() }
func (s *store) Drop(gen uint64) error              { return s.inner.Drop(gen) }

// --- summaries ---

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
