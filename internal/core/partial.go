package core

import (
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/apps"
	"repro/internal/checkpoint"
	"repro/internal/failure"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/redundancy"
	"repro/internal/simmpi"
)

// StepKill is a deterministic, step-triggered failure: once every
// virtual rank that reports steps has reached Step (via the writer
// replicas' NoteStep hook), physical rank Rank is fail-stopped. Unlike
// time-based schedules this pins the kill to an exact point in the
// computation, so recomputed-work comparisons between recovery
// strategies are exact and race-free. Each entry fires at most once per
// Run.
type StepKill struct {
	// Step is the 1-based application step that triggers the kill.
	Step int
	// Rank is the physical rank to kill.
	Rank int
}

// stepAccounting tracks per-virtual-rank step high-water marks across an
// entire Run: a step at or below the high-water mark is recomputation —
// the paper's rework term, made observable. It also owns the fire-once
// state of the step-triggered kill schedule.
type stepAccounting struct {
	hwm []atomic.Int64
	// last[v] packs the epoch (high 32 bits) and step of v's latest
	// report. An epoch is one run of the application from a restore
	// point: a new attempt, or the release after an in-place recovery.
	last       []atomic.Int64
	epoch      atomic.Int64
	observed   *obs.Gauge // runner_steps_observed
	recomputed *obs.Gauge // runner_recomputed_steps
	flight     *obs.Recorder
	kills      []StepKill
	fired      []atomic.Bool
}

func newStepAccounting(nVirtual int, kills []StepKill, reg *obs.Registry, flight *obs.Recorder) *stepAccounting {
	a := &stepAccounting{
		hwm:        make([]atomic.Int64, nVirtual),
		last:       make([]atomic.Int64, nVirtual),
		observed:   reg.Gauge("runner_steps_observed"),
		recomputed: reg.Gauge("runner_recomputed_steps"),
		flight:     flight,
		kills:      kills,
		fired:      make([]atomic.Bool, len(kills)),
	}
	a.epoch.Store(1)
	return a
}

// newEpoch starts a new epoch; call it while no rank runs the
// application, before the ranks restart from a restore point.
func (a *stepAccounting) newEpoch() { a.epoch.Add(1) }

// note records one executed step of virtual rank v in epoch.
func (a *stepAccounting) note(v, step int, epoch int64) {
	// Within an epoch a sphere's steps only rise. A lower or equal
	// report comes from a twin that became the writer just as the old
	// writer died, after the old writer had already reported the step:
	// it is neither new work nor rework.
	mark := epoch<<32 | int64(step)
	for {
		last := a.last[v].Load()
		if last>>32 == epoch && last&math.MaxUint32 >= int64(step) {
			return
		}
		if a.last[v].CompareAndSwap(last, mark) {
			break
		}
	}
	a.observed.Add(1)
	for {
		cur := a.hwm[v].Load()
		if int64(step) <= cur {
			a.recomputed.Add(1)
			// Rework, observed directly: redreport counts these records
			// to attribute lost-and-redone steps to each recovery.
			a.flight.Emit("recompute", v, -1, step, 0)
			return
		}
		if a.hwm[v].CompareAndSwap(cur, int64(step)) {
			return
		}
	}
}

// maybeFire triggers any step kill whose step the whole job has reached:
// every virtual rank that reports steps is at or past it. Firing on the
// first rank to get there would leave how far the others got before the
// failure — and so the rework its recovery costs — to the scheduler.
// The caller's own step gates the scan, so it runs only near a kill.
func (a *stepAccounting) maybeFire(step int, inj *failure.Injector) {
	if inj == nil {
		return
	}
	line := int64(-1)
	for i := range a.kills {
		if step < a.kills[i].Step || a.fired[i].Load() {
			continue
		}
		if line < 0 {
			line = a.line()
		}
		if line >= int64(a.kills[i].Step) && a.fired[i].CompareAndSwap(false, true) {
			inj.InjectNow(a.kills[i].Rank)
		}
	}
}

// relay is the step report of a rank running in another process:
// physical rank p (a writer replica) reached step. It counts toward the
// same job-wide line as an in-process report. The report travels
// asynchronously, so a kill it fires can land up to a step late.
func (a *stepAccounting) relay(rankMap *redundancy.RankMap, inj *failure.Injector, p, step int) {
	owner, err := rankMap.Owner(p)
	if err != nil {
		return
	}
	a.note(owner.Virtual, step, a.epoch.Load())
	a.maybeFire(step, inj)
}

// line is the lowest high-water mark among the virtual ranks that report
// steps at all (a task farm's workers never do).
func (a *stepAccounting) line() int64 {
	line := int64(math.MaxInt64)
	for i := range a.hwm {
		if h := a.hwm[i].Load(); h > 0 && h < line {
			line = h
		}
	}
	return line
}

// epochResult is what one driver epoch (one application execution)
// produced.
type epochResult struct {
	app         apps.App
	stats       redundancy.Stats
	checkpoints int
	restores    int
	err         error
}

// partialGate coordinates one attempt's per-rank driver goroutines with
// its supervisor. Each driver runs the application in *epochs*; between
// epochs the supervisor may pause the world (transport interrupt),
// revive the dead ranks, and release everyone into a fresh epoch that
// restarts from the peer-replicated checkpoint — the sphere-local
// partial restart. When recovery is impossible the supervisor aborts the
// world exactly as the pre-existing full-restart path did. Under the
// shrink policy the supervisor only records each sphere death as a
// shrink episode: every rank runs one epoch with no checkpoint client,
// and the application repairs the job on the survivors itself. The gate
// is typed against mpi.Transport, so the same orchestration drives the
// simulated backend, any other transport hosting every rank in-process,
// and ranks in worker processes (remoteRanks): those have no driver
// here, and each rank's end reaches the gate through remoteEnd.
type partialGate struct {
	cfg     Config
	shrink  bool // RecoverShrink: survive sphere deaths in place, never roll back
	world   mpi.Transport
	rankMap *redundancy.RankMap
	store   checkpoint.Storage
	peer    *checkpoint.PeerStore
	pipe    *checkpoint.Pipeline
	inj     *failure.Injector
	jobReg  *obs.Registry
	factory func() apps.App
	acct    *stepAccounting
	limit   int

	partials  *obs.Counter // partial_restarts_total (nil unless enabled)
	fallbacks *obs.Counter // partial_fallbacks_total
	episodes  *obs.Counter // shrink_episodes_total (nil unless shrink)

	serverWG sync.WaitGroup

	mu           sync.Mutex
	cond         *sync.Cond
	active       int
	parked       int
	interrupting bool
	release      chan struct{}
	done         chan struct{}
	doneClosed   bool

	partialRestarts int
	shrinkEpisodes  int
	fetchAborted    bool

	// ended marks the ranks whose end has been recorded when they run in
	// worker processes (nil when they run here as drivers).
	ended []bool

	completedBy    map[int]apps.App
	appErrs        map[int]error
	redStats       redundancy.Stats
	maxCheckpoints int
	restored       bool
}

func newPartialGate(cfg Config, world mpi.Transport, rankMap *redundancy.RankMap,
	store checkpoint.Storage, peer *checkpoint.PeerStore,
	pipe *checkpoint.Pipeline, inj *failure.Injector, jobReg *obs.Registry,
	acct *stepAccounting, factory func() apps.App,
) *partialGate {
	g := &partialGate{
		cfg:         cfg,
		shrink:      cfg.RecoveryPolicy == RecoverShrink,
		world:       world,
		rankMap:     rankMap,
		store:       store,
		peer:        peer,
		pipe:        pipe,
		inj:         inj,
		jobReg:      jobReg,
		factory:     factory,
		acct:        acct,
		limit:       cfg.PartialRestartLimit,
		release:     make(chan struct{}),
		done:        make(chan struct{}),
		completedBy: make(map[int]apps.App),
		appErrs:     make(map[int]error),
	}
	g.cond = sync.NewCond(&g.mu)
	if g.limit <= 0 {
		g.limit = 3
	}
	if g.recoveryEnabled() {
		// Feature-gated registration: jobs without partial restart never
		// see these counters (keeps existing golden snapshots additive).
		g.partials = jobReg.Counter("partial_restarts_total")
		g.fallbacks = jobReg.Counter("partial_fallbacks_total")
	}
	if g.shrink {
		g.episodes = jobReg.Counter("shrink_episodes_total")
	}
	return g
}

func (g *partialGate) recoveryEnabled() bool {
	return g.cfg.PartialRestart && g.peer != nil && g.inj != nil
}

// startServers launches one peer-store server goroutine per live rank;
// each exits when its communicator errors (kill, interrupt, abort).
func (g *partialGate) startServers() {
	if g.peer == nil {
		return
	}
	// ForEachLive skips dead regions a word at a time; at start every
	// rank is live and after a recovery everyone has been revived, so
	// this is the same set the old Alive poll produced, without the
	// per-rank liveness check.
	g.world.ForEachLive(func(p int) {
		comm, err := g.world.Endpoint(p)
		if err != nil {
			return
		}
		g.serverWG.Add(1)
		go func(c mpi.Comm) {
			defer g.serverWG.Done()
			g.peer.Serve(c)
		}(comm)
	})
}

// spawnAll registers every rank as active before launching any driver,
// so the attempt cannot be declared done while spawning is in progress.
func (g *partialGate) spawnAll() {
	g.mu.Lock()
	g.active = g.world.Size()
	g.mu.Unlock()
	for p := 0; p < g.world.Size(); p++ {
		go g.driver(p)
	}
}

// expectRemote registers every rank as active for an attempt whose
// ranks run in worker processes: each then ends once, through remoteEnd.
func (g *partialGate) expectRemote() {
	g.mu.Lock()
	g.active = g.world.Size()
	g.ended = make([]bool, g.world.Size())
	g.mu.Unlock()
}

// remoteEnd records how worker-process rank p ended: completed by its
// bye, with err by an application error, or neither (a death or a
// casualty's departure). Only its first end counts.
func (g *partialGate) remoteEnd(p int, completed bool, err error) {
	g.mu.Lock()
	if g.ended[p] {
		g.mu.Unlock()
		return
	}
	g.ended[p] = true
	if completed {
		g.completedBy[p] = nil // the application lives in the worker
	}
	if err != nil {
		g.appErrs[p] = err
	}
	g.exitLocked()
	g.mu.Unlock()
	if err != nil {
		// Not a failure the job can absorb: end the attempt instead of
		// leaving the other ranks waiting on this one.
		g.abort()
	}
}

// abort tears the attempt's world down. Parked drivers wake and exit;
// worker processes need not report at all, since teardown reaps them.
func (g *partialGate) abort() {
	g.world.Abort()
	g.releaseParked()
	g.mu.Lock()
	for p, ended := range g.ended {
		if !ended {
			g.ended[p] = true
			g.exitLocked()
		}
	}
	g.mu.Unlock()
}

// spawnLocked adds one driver mid-attempt (revived rank, or a completed
// rank that must recompute after a rollback). Caller holds g.mu.
func (g *partialGate) spawnLocked(p int) {
	g.active++
	if g.doneClosed {
		// The attempt had drained completely; recovery reopens it.
		g.done = make(chan struct{})
		g.doneClosed = false
	}
	go g.driver(p)
}

// driver runs one physical rank: epochs of the application until the
// rank exits (completion, death, abort, or unrecoverable error).
func (g *partialGate) driver(p int) {
	for {
		res := g.runEpoch(p)
		rerun, release := g.epochEnd(p, res)
		if !rerun {
			return
		}
		<-release
	}
}

// runEpoch executes the application once for rank p: fresh interposition
// layer, fresh checkpoint client (restore happens inside the app), then
// the app itself. Under shrink there is no checkpoint client at all:
// nothing ever rolls back, so nothing is ever stored or restored.
func (g *partialGate) runEpoch(p int) epochResult {
	pc, err := g.world.Endpoint(p)
	if err != nil {
		return epochResult{err: err}
	}
	epoch := g.acct.epoch.Load()
	inj, acct := g.inj, g.acct
	rc, ctx, err := newRank(g.cfg, pc, g.world, g.rankMap, g.clientConfig(pc), func(v, step int) {
		acct.note(v, step, epoch)
		acct.maybeFire(step, inj)
	})
	if err != nil {
		return epochResult{err: err}
	}
	app := g.factory()
	runErr := app.Run(ctx)
	if runErr == nil && g.pipe != nil {
		// Drain before declaring the epoch complete so the final
		// generation commits — the explicit drain point of the
		// async-pipeline ordering contract. Collective: every rank that
		// finished cleanly participates; if a failure felled the others,
		// the drain's barriers surface the usual failure-class errors
		// and epochEnd treats this rank as a casualty, same as a
		// mid-checkpoint death.
		runErr = ctx.Ckpt.Drain()
	}
	res := epochResult{app: app, stats: rc.Stats(), err: runErr}
	if ctx.Ckpt != nil {
		res.checkpoints = ctx.Ckpt.Checkpoints()
		res.restores = ctx.Ckpt.Restores()
	}
	return res
}

// clientConfig is rank pc's checkpoint client configuration for one
// epoch.
func (g *partialGate) clientConfig(pc mpi.Comm) checkpoint.Config {
	ccfg := checkpoint.Config{
		Storage:  g.store,
		Pipeline: g.pipe,
		Obs:      g.jobReg,
		Flight:   g.cfg.Recorder,
	}
	if g.peer != nil {
		// Every replica stashes into its own memory shard, so survivors
		// of a partial restart restore without touching the network.
		ccfg.Storage = g.peer.View(pc)
		ccfg.WriteAllReplicas = true
	}
	return ccfg
}

// epochEnd classifies one finished epoch under the gate's lock: exit the
// driver, or park it for the next epoch. The classification and the
// supervisor's interrupt decision are serialised on g.mu, so a driver
// can never slip out after recovery has begun.
func (g *partialGate) epochEnd(p int, res epochResult) (rerun bool, release chan struct{}) {
	g.mu.Lock()
	defer g.mu.Unlock()
	addStats(&g.redStats, res.stats)
	if res.checkpoints > g.maxCheckpoints {
		g.maxCheckpoints = res.checkpoints
	}
	if res.restores > 0 {
		g.restored = true
	}
	switch {
	case g.world.Aborted(), !g.world.Alive(p):
		return g.exitLocked()
	case g.interrupting:
		return g.parkLocked()
	case res.err == nil:
		g.completedBy[p] = res.app
		return g.exitLocked()
	case errors.Is(res.err, checkpoint.ErrPeerFetchExhausted):
		// Peer recovery failed under this rank: tear the job down so the
		// orchestrator performs a full restart from stable storage.
		g.fetchAborted = true
		g.world.Abort()
		return g.exitLocked()
	case isFailureClass(res.err) && !g.shrink:
		// Under shrink the survivors repair the job themselves, so an
		// error from a live rank is the application's, failure-class or
		// not: it falls through to the default case.
		if g.recoveryEnabled() {
			// A sphere is dying around us; park until the supervisor
			// either recovers in place or aborts for a full restart.
			return g.parkLocked()
		}
		return g.exitLocked() // expected casualty, like world.Run's failureErrs
	case g.recoveryEnabled() && isCheckpointCasualty(res.err):
		return g.parkLocked()
	default:
		if _, dup := g.appErrs[p]; !dup {
			g.appErrs[p] = res.err
		}
		return g.exitLocked()
	}
}

func (g *partialGate) exitLocked() (bool, chan struct{}) {
	g.active--
	if g.active == 0 && !g.doneClosed {
		g.doneClosed = true
		close(g.done)
	}
	g.cond.Broadcast()
	return false, nil
}

func (g *partialGate) parkLocked() (bool, chan struct{}) {
	g.parked++
	g.cond.Broadcast()
	return true, g.release
}

// releaseParked starts a fresh epoch for every parked driver (used on
// the abort path; woken drivers observe the aborted world and exit).
func (g *partialGate) releaseParked() {
	g.mu.Lock()
	old := g.release
	g.release = make(chan struct{})
	g.parked = 0
	g.mu.Unlock()
	close(old)
}

// doneCh returns the current completion channel (recovery can reopen it).
func (g *partialGate) doneCh() chan struct{} {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.done
}

// supervise is the attempt's control loop, replacing the old watchdog
// goroutine: it waits for completion, job failure, or the watchdog
// timeout. On job failure it records a shrink episode (shrink policy) or
// attempts an in-place recovery, before falling back to the
// abort-and-restart path.
func (g *partialGate) supervise(timeout time.Duration) (jobFailed, timedOut bool) {
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	var failedCh <-chan int
	if g.inj != nil {
		failedCh = g.inj.JobFailed()
	}
	abort := func() {
		g.abort()
		failedCh = nil
	}
	for {
		select {
		case <-g.doneCh():
			// Give a pending failure event priority over completion: the
			// last drivers may have drained exactly as a sphere died, in
			// which case recovery must reopen the attempt. The poll waits
			// out a kill in flight, so a death the drivers exited over is
			// never mistaken for completion.
			if failedCh != nil {
				if v, ok := g.inj.PollJobFailed(); ok {
					if !g.survive(v) {
						jobFailed = true
						abort()
					}
					continue
				}
			}
			return jobFailed, timedOut
		case v := <-failedCh:
			if g.survive(v) {
				continue
			}
			jobFailed = true
			abort()
		case <-timer.C:
			timedOut = true
			abort()
		}
	}
}

// survive answers the exhaustion of sphere v without tearing the world
// down; false means the caller must abort for a full restart. Under
// shrink the death is recorded as a shrink episode and the survivors'
// own repair carries on.
func (g *partialGate) survive(v int) bool {
	if !g.shrink {
		return g.tryRecover(v)
	}
	g.shrinkEpisodes++
	g.episodes.Inc()
	g.cfg.Recorder.StartSpan("shrink", -1, v, g.shrinkEpisodes).End()
	return true
}

// tryRecover performs a sphere-local partial restart: pause the world,
// drain every live driver to its epoch boundary, revive the dead ranks,
// rearm the injector, and release everyone into a fresh epoch restoring
// from the newest peer-held generation. Returns false when the fallback
// to a full coordinated restart is required (feature off, budget spent,
// or no generation fully covered by live holders).
func (g *partialGate) tryRecover(sphere int) bool {
	if !g.recoveryEnabled() {
		return false
	}
	if g.partialRestarts >= g.limit {
		g.fallbacks.Inc()
		return false
	}
	if _, _, ok := g.peer.UsableGeneration(); !ok {
		g.fallbacks.Inc()
		return false
	}

	// The recovery span tiles into drain/revive/resume children, so a
	// timeline reader can attribute the episode's wall time to its
	// phases (the children sum to the parent, minus span bookkeeping).
	rec := g.cfg.Recorder
	episode := g.partialRestarts
	sp := rec.StartSpan("recovery", -1, sphere, episode)
	defer sp.End()

	drain := rec.StartSpan("recovery_drain", -1, sphere, episode)
	g.mu.Lock()
	g.interrupting = true
	g.mu.Unlock()
	g.world.Interrupt()
	g.mu.Lock()
	for g.parked < g.active {
		g.cond.Wait()
	}
	g.mu.Unlock()
	g.serverWG.Wait()
	drain.End()

	// Under async checkpointing the newest generation may be fully
	// stashed but not yet committed (the commit-lags-one window). Flush
	// the pipeline so every enqueued peer write has run, discard the
	// settle debt of frames addressed to the dead ranks, then promote
	// the newest complete generation — recovery then rolls back exactly
	// as far as the synchronous tier would.
	if g.pipe != nil {
		g.pipe.Flush()
	}
	g.peer.ResetPending()
	g.peer.PromoteComplete()

	// Re-check under quiesced state: more deaths may have landed while
	// draining, and they may have taken the last holder with them.
	_, _, ok := g.peer.UsableGeneration()
	if !ok {
		g.fallbacks.Inc()
		return false // caller aborts; parked drivers wake and exit
	}

	g.acct.newEpoch()

	revSpan := rec.StartSpan("recovery_revive", -1, sphere, episode)
	var revived []int
	// The world is quiesced (interrupted, injector stopped between kills),
	// so the dead-rank sweep is an exact snapshot — and it costs
	// O(failures), not a 100k-rank Alive poll.
	g.world.ForEachDead(func(p int) {
		// The rank's memory died with it: wipe its shard before the new
		// incarnation rejoins, so fetches are never routed to it until it
		// re-stashes at the next checkpoint.
		g.peer.InvalidateRank(p)
		revived = append(revived, p)
	})
	for _, p := range revived {
		g.world.Revive(p)
	}
	revSpan.End()

	resume := rec.StartSpan("recovery_resume", -1, sphere, episode)
	g.inj.Rearm()
	g.world.Resume()
	g.startServers()

	g.mu.Lock()
	g.partialRestarts++
	g.interrupting = false
	old := g.release
	g.release = make(chan struct{})
	g.parked = 0
	for _, p := range revived {
		g.spawnLocked(p)
	}
	// Ranks that finished before the rollback point must recompute too —
	// their peers are about to replay messages at them.
	for p := range g.completedBy {
		delete(g.completedBy, p)
		g.spawnLocked(p)
	}
	g.mu.Unlock()
	close(old)
	resume.End()

	g.partials.Inc()
	return true
}

// completedApps returns how many ranks finished the final epoch cleanly,
// and the apps of those that ran here.
func (g *partialGate) completedApps() (int, []apps.App) {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]apps.App, 0, len(g.completedBy))
	for p := 0; p < g.world.Size(); p++ {
		if app := g.completedBy[p]; app != nil {
			out = append(out, app)
		}
	}
	return len(g.completedBy), out
}

// firstAppError returns the lowest-rank application error, matching the
// rank-ordered selection of the old world.Run path.
func (g *partialGate) firstAppError() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	for p := 0; p < g.world.Size(); p++ {
		if err, ok := g.appErrs[p]; ok {
			return RankError{Rank: p, Err: err}
		}
	}
	return nil
}

// RankError pairs a rank with the error its driver returned (the core
// analogue of simmpi.RankError, kept for error-message compatibility).
type RankError = simmpi.RankError

// isFailureClass reports errors that are expected casualties of failure
// injection rather than application bugs.
func isFailureClass(err error) bool {
	return errors.Is(err, mpi.ErrKilled) ||
		errors.Is(err, mpi.ErrPeerDead) ||
		errors.Is(err, mpi.ErrFailurePending) ||
		errors.Is(err, mpi.ErrAborted) ||
		errors.Is(err, mpi.ErrInterrupted) ||
		errors.Is(err, redundancy.ErrSphereDead)
}
