// Package core is the combined partial-redundancy + checkpoint/restart
// runtime — the paper's primary contribution assembled into a runnable
// system. A Runner launches an application at a chosen redundancy degree
// over the simmpi substrate (or one OS process per rank), schedules coordinated checkpoints at the
// configured interval, injects Poisson node failures, detects job failure
// when a whole replica sphere dies (Fig. 7), and restarts from the last
// committed checkpoint until the application completes — or, under the
// shrink policy, lets the survivors repair the job in place.
package core

import (
	"errors"
	"fmt"
	"os"
	"time"

	"repro/internal/apps"
	"repro/internal/checkpoint"
	"repro/internal/failure"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/redundancy"
	"repro/internal/simmpi"
	"repro/internal/stats"
)

// RecoveryPolicy selects what the runner does when a whole replica
// sphere dies (job failure, Fig. 7).
type RecoveryPolicy string

const (
	// RecoverRestart is the paper's baseline: tear the world down and
	// restart from the last committed checkpoint. The zero value.
	RecoverRestart RecoveryPolicy = "restart"
	// RecoverShrink is ULFM-style shrink-and-continue: the application
	// observes the failure through the communicator's errhandler,
	// acknowledges it, agrees with the survivors, and continues on a
	// shrunk communicator — no restart, no checkpoint restore. The
	// application must be written against the fault-notification API
	// (taskfarm and stencil are); checkpointing is disabled because
	// nothing ever rolls back.
	RecoverShrink RecoveryPolicy = "shrink"
)

// Config describes one job: the application scale, redundancy degree,
// checkpoint schedule, failure environment, and emulation knobs.
type Config struct {
	// Ranks is N, the virtual (application-visible) process count.
	Ranks int
	// Degree is the redundancy degree r ≥ 1 (2 = dual, 1.5 = every other
	// rank replicated, ...).
	Degree float64
	// Mode selects the replica-comparison mode; zero means All-to-all.
	Mode redundancy.Mode

	// Storage holds checkpoints across restarts. Nil means a fresh
	// in-memory store (sufficient for one Run call).
	Storage checkpoint.Storage
	// StepInterval checkpoints every StepInterval application steps;
	// zero disables checkpointing.
	StepInterval int
	// AsyncCheckpoint moves compression and storage writes off the
	// checkpoint line onto a background worker pool: ranks snapshot
	// into pooled buffers inside the coordinated region and return to
	// compute while the write drains; the generation commits at the
	// next checkpoint (or the end-of-run drain). Effective δ — the
	// stall the application observes — shrinks to the snapshot copy
	// plus coordination. Composes with the peer tier: peer replication
	// rides the physical transport on reserved tags, invisible to the
	// bookmark quiescence counts, so background sends cannot corrupt
	// them.
	AsyncCheckpoint bool
	// AsyncWorkers sizes the background write pool; zero means
	// GOMAXPROCS. Only meaningful with AsyncCheckpoint.
	AsyncWorkers int

	// PeerDataShards (k) and PeerParityShards (m), when positive, layer
	// an in-memory peer checkpoint tier over Storage: each snapshot is
	// split into k data + m Reed-Solomon parity shards spread across
	// k+m replica spheres, so a snapshot of size S costs S·(k+m)/k
	// resident bytes and any m sphere losses remain recoverable, and
	// Storage becomes the slow tier written only every StableEvery-th
	// generation. k = 1 is full-copy replication: the own sphere plus m
	// buddy spheres each hold the whole snapshot. Both zero keeps the
	// Storage-only behaviour; otherwise both must be >= 1 and k+m may
	// not exceed the number of spheres.
	PeerDataShards   int
	PeerParityShards int
	// PeerBudgetBytes caps the peer tier's resident bytes per rank;
	// when the cap is exceeded the store evicts whole oldest
	// generations (never the one being written) and counts them in
	// peer_store_evictions_total. Zero means unlimited.
	PeerBudgetBytes int64
	// StableEvery writes only every StableEvery-th checkpoint generation
	// to Storage when the peer tier is enabled (the cadence differential
	// is where partial restart wins). Zero or one means every generation.
	StableEvery int
	// PartialRestart enables sphere-local recovery: when a sphere dies
	// but the peer tier still holds a usable generation, the dead ranks
	// are revived in place and the job resumes from the peer generation
	// instead of tearing the world down for a full coordinated restart.
	// Requires a peer tier and StepInterval > 0.
	PartialRestart bool
	// PartialRestartLimit bounds in-place recoveries per attempt before
	// falling back to full restarts; zero means 3.
	PartialRestartLimit int

	// RecoveryPolicy selects the response to a sphere death: restart
	// from checkpoint (the default) or ULFM-style shrink-and-continue.
	// The shrink policy is incompatible with checkpointing, the peer
	// tier, partial restart, and a restart budget — survivors never roll
	// back, so none of that machinery may be configured.
	RecoveryPolicy RecoveryPolicy

	// NodeMTBF enables Poisson failure injection with the given per-node
	// MTBF (scaled down to test scale); zero disables injection.
	NodeMTBF time.Duration
	// FailureSchedule, when non-nil, injects exactly these kills per
	// attempt instead of random ones.
	FailureSchedule []failure.Kill
	// ScheduleOnce applies FailureSchedule to the first attempt only, so
	// a deterministic kill list can force exactly one restart cycle
	// (golden metrics jobs, worked EXPERIMENTS examples).
	ScheduleOnce bool
	// StepKills injects failures pinned to application steps rather than
	// wall-clock offsets; each entry fires at most once per Run, when
	// the slowest step-reporting virtual rank reaches the step. This is
	// the deterministic chaos schedule the recovery tests rely on.
	StepKills []StepKill
	// Seed drives the failure draws (each attempt splits a fresh child
	// stream, so attempts see independent failure patterns).
	Seed int64
	// MaxRestarts bounds restart attempts; the run fails with
	// ErrRestartsExhausted beyond it. Zero means no restarts allowed.
	MaxRestarts int
	// AttemptTimeout aborts a wedged attempt; zero means 2 minutes.
	AttemptTimeout time.Duration

	// SendDelay emulates per-physical-message wire latency.
	SendDelay time.Duration
	// ComputeDelay emulates per-step computation time.
	ComputeDelay time.Duration

	// CorruptRanks lists physical ranks whose replicas inject silent
	// data corruption into every message payload they send (exercises
	// the mismatch/vote counters; see mpi.WithCorruptRanks).
	CorruptRanks []int

	// Obs, when non-nil, is the job-level telemetry registry; the run
	// creates a private one otherwise, so Result.Metrics is always
	// populated. Communication counters (simmpi_*, redundancy_*) cover
	// the completed attempt — aborted attempts tear down mid-flight, so
	// their in-transit counts are not meaningful totals — while
	// checkpoint_*, failure_*, and runner_* counters are cumulative
	// across attempts.
	Obs *obs.Registry
	// Recorder, when non-nil, is the job's one event stream: the bounded
	// flight recorder threaded through every layer — the transport
	// (sends, drops, liveness), the failure injector (kills, sphere
	// exhaustion), the checkpoint tier (commits, bookmark retries,
	// restores, drain and peer-fetch spans), and the runner's own
	// attempt, recovery and outcome records. Nil (the default) disables
	// it entirely.
	Recorder *obs.Recorder
	// RankView, when non-nil, is called once per attempt with the fresh
	// world's liveness view — the hook the introspection server's
	// /ranks endpoint uses to track the current attempt.
	RankView func(obs.RankView)

	// Transport, when non-nil, builds each attempt's message-passing
	// backend (every physical rank must be addressable in-process, so
	// the per-rank driver goroutines can run against it). Nil means the
	// simulated backend, simmpi.NewWorld, unless Spawn is set.
	Transport func(physical int, opts ...mpi.Option) (mpi.Transport, error)

	// Spawn, when non-nil, runs every physical rank in its own OS
	// process over the procmpi transport, through the same attempt loop.
	// Each attempt opens a hub and calls Spawn once per rank with the
	// attempt index and the hub's network and address; the process it
	// starts must run that rank with RunRank under this same Config
	// (redmpirun re-execs itself). Kills are real SIGKILLs, and deaths
	// from outside the job count like injected ones.
	Spawn func(attempt, rank int, network, addr string) (*os.Process, error)
	// Listen, with Spawn, is the TCP address the hub listens on; empty
	// means a unix socket in a fresh temp dir.
	Listen string
}

// PeerTier reports whether a peer checkpoint tier is configured.
func (cfg Config) PeerTier() bool {
	return cfg.PeerDataShards > 0 || cfg.PeerParityShards > 0
}

// Validate checks the configuration.
func (cfg Config) Validate() error {
	if cfg.Spawn != nil {
		if err := cfg.validateProc(); err != nil {
			return err
		}
	}
	switch {
	case cfg.Ranks <= 0:
		return fmt.Errorf("core: Ranks = %d", cfg.Ranks)
	case cfg.Degree < 1:
		return fmt.Errorf("core: Degree = %v", cfg.Degree)
	case cfg.StepInterval < 0:
		return fmt.Errorf("core: StepInterval = %d", cfg.StepInterval)
	case cfg.MaxRestarts < 0:
		return fmt.Errorf("core: MaxRestarts = %d", cfg.MaxRestarts)
	case cfg.PeerDataShards < 0:
		return fmt.Errorf("core: PeerDataShards = %d", cfg.PeerDataShards)
	case cfg.PeerParityShards < 0:
		return fmt.Errorf("core: PeerParityShards = %d", cfg.PeerParityShards)
	case cfg.PeerBudgetBytes < 0:
		return fmt.Errorf("core: PeerBudgetBytes = %d", cfg.PeerBudgetBytes)
	case cfg.PeerTier() && (cfg.PeerDataShards == 0 || cfg.PeerParityShards == 0):
		return fmt.Errorf("core: peer tier %d+%d needs PeerDataShards >= 1 and PeerParityShards >= 1",
			cfg.PeerDataShards, cfg.PeerParityShards)
	case cfg.PeerBudgetBytes > 0 && !cfg.PeerTier():
		return fmt.Errorf("core: PeerBudgetBytes requires a peer tier (PeerDataShards+PeerParityShards)")
	case cfg.StableEvery < 0:
		return fmt.Errorf("core: StableEvery = %d", cfg.StableEvery)
	case cfg.StableEvery > 1 && !cfg.PeerTier():
		return fmt.Errorf("core: StableEvery = %d requires a peer tier (PeerDataShards+PeerParityShards)",
			cfg.StableEvery)
	case cfg.PartialRestart && !cfg.PeerTier():
		return fmt.Errorf("core: PartialRestart requires a peer tier (PeerDataShards+PeerParityShards)")
	case cfg.PartialRestart && cfg.StepInterval == 0:
		return fmt.Errorf("core: PartialRestart requires StepInterval > 0")
	case cfg.AsyncWorkers < 0:
		return fmt.Errorf("core: AsyncWorkers = %d", cfg.AsyncWorkers)
	case cfg.RecoveryPolicy != "" && cfg.RecoveryPolicy != RecoverRestart &&
		cfg.RecoveryPolicy != RecoverShrink:
		return fmt.Errorf("core: unknown RecoveryPolicy %q", cfg.RecoveryPolicy)
	case cfg.RecoveryPolicy == RecoverShrink && cfg.PartialRestart:
		return fmt.Errorf("core: shrink recovery is incompatible with PartialRestart")
	case cfg.RecoveryPolicy == RecoverShrink && cfg.PeerTier():
		return fmt.Errorf("core: shrink recovery is incompatible with a peer tier")
	case cfg.RecoveryPolicy == RecoverShrink && cfg.StepInterval > 0:
		return fmt.Errorf("core: shrink recovery never restores, so StepInterval " +
			"(checkpointing) must be 0")
	case cfg.RecoveryPolicy == RecoverShrink && cfg.MaxRestarts > 0:
		return fmt.Errorf("core: shrink recovery never restarts, so MaxRestarts must be 0")
	}
	for _, k := range cfg.StepKills {
		if k.Step <= 0 || k.Rank < 0 {
			return fmt.Errorf("core: bad StepKill {Step: %d, Rank: %d}", k.Step, k.Rank)
		}
	}
	return nil
}

// validateProc rejects what a job in worker processes cannot carry: the
// peer checkpoint tier and the async pipeline live in one address space,
// send-latency emulation is a simulation instrument, and checkpoints are
// shared between processes only through the file system.
func (cfg Config) validateProc() error {
	switch {
	case cfg.Transport != nil:
		return fmt.Errorf("core: Transport and Spawn are exclusive")
	case cfg.PeerTier():
		return fmt.Errorf("-peer-shards is not supported with -transport proc (the peer tier shares memory between ranks)")
	case cfg.PeerBudgetBytes > 0:
		return fmt.Errorf("-peer-budget-bytes is not supported with -transport proc (no peer tier to budget)")
	case cfg.PartialRestart:
		return fmt.Errorf("-partial-restart is not supported with -transport proc")
	case cfg.AsyncCheckpoint:
		return fmt.Errorf("-async-checkpoint is not supported with -transport proc")
	case cfg.SendDelay > 0:
		return fmt.Errorf("-send-latency is not supported with -transport proc (real sockets have real latency)")
	case cfg.StepInterval > 0 && !fileBacked(cfg.Storage):
		return fmt.Errorf("-interval with -transport proc requires -ckpt-dir (worker processes share checkpoints through the filesystem)")
	}
	return nil
}

// fileBacked reports whether s keeps its images in files, which worker
// processes can share.
func fileBacked(s checkpoint.Storage) bool {
	if c, ok := s.(*checkpoint.CompressedStorage); ok {
		s = c.Inner
	}
	_, ok := s.(*checkpoint.FileStorage)
	return ok
}

// ErrRestartsExhausted reports that the job kept failing past the restart
// budget.
var ErrRestartsExhausted = errors.New("core: restart budget exhausted")

// ErrAttemptTimeout reports that an attempt made no progress within the
// timeout and was aborted.
var ErrAttemptTimeout = errors.New("core: attempt timed out")

// Attempt records one job attempt.
type Attempt struct {
	// Index is the attempt number, starting at 0.
	Index int
	// Failures is how many physical ranks died: the injector's kills
	// plus, over worker processes, deaths from outside the job.
	Failures int
	// JobFailed reports whether a whole sphere died.
	JobFailed bool
	// TimedOut reports whether the watchdog aborted the attempt.
	TimedOut bool
	// Elapsed is the attempt's wallclock duration.
	Elapsed time.Duration
	// Checkpoints completed during this attempt.
	Checkpoints int
	// Restored reports whether the attempt started from a checkpoint.
	Restored bool
	// PartialRestarts counts the sphere-local in-place recoveries this
	// attempt performed instead of tearing the world down.
	PartialRestarts int
	// ShrinkEpisodes counts the sphere deaths the attempt survived by
	// shrinking instead of restarting (RecoverShrink only).
	ShrinkEpisodes int
	// Kills lists the physical ranks that died this attempt, in the
	// order the injector accounted them.
	Kills []failure.Kill
}

// Result summarises a completed (or abandoned) Run.
type Result struct {
	// Completed reports whether the application finished.
	Completed bool
	// Restarts is the number of restarts performed (attempts - 1).
	Restarts int
	// TotalFailures across all attempts.
	TotalFailures int
	// TotalCheckpoints across all attempts.
	TotalCheckpoints int
	// Elapsed is the total wallclock including restarts.
	Elapsed time.Duration
	// Attempts holds per-attempt details.
	Attempts []Attempt
	// PhysicalRanks is N_total, the node count the job occupied.
	PhysicalRanks int
	// Redundancy aggregates the interposition layer's counters over the
	// final attempt.
	Redundancy redundancy.Stats
	// PartialRestarts is the total number of sphere-local in-place
	// recoveries across all attempts.
	PartialRestarts int
	// ShrinkEpisodes is the number of sphere deaths survived by
	// shrink-and-continue (RecoverShrink only).
	ShrinkEpisodes int
	// RecomputedSteps counts application steps executed at or below a
	// virtual rank's previous high-water mark — the paper's rework term,
	// observed directly. Covers both full and partial restarts.
	RecomputedSteps int64
	// CompletedApps holds, for the successful attempt, one application
	// instance per replica goroutine that finished cleanly (for result
	// inspection, e.g. the CG checksum).
	CompletedApps []apps.App
	// Metrics is the job-level telemetry snapshot (see Config.Obs for
	// which counters are per-final-attempt vs cumulative).
	Metrics obs.Snapshot
}

// runnerMetrics bundles the runner's own job-level instruments.
type runnerMetrics struct {
	attempts    *obs.Counter
	restarts    *obs.Counter
	jobFailures *obs.Counter
	timeouts    *obs.Counter
	completions *obs.Counter
	recomputeMS *obs.Counter
	attemptMS   *obs.Histogram
}

func newRunnerMetrics(reg *obs.Registry) runnerMetrics {
	return runnerMetrics{
		attempts:    reg.Counter("runner_attempts_total"),
		restarts:    reg.Counter("runner_restarts_total"),
		jobFailures: reg.Counter("runner_job_failures_total"),
		timeouts:    reg.Counter("runner_timeouts_total"),
		completions: reg.Counter("runner_completions_total"),
		recomputeMS: reg.Counter("runner_recompute_ms_total"),
		attemptMS:   reg.Histogram("runner_attempt_ms", obs.MillisBuckets),
	}
}

// foldRedundancy projects the final attempt's interposition counters into
// the job registry.
func foldRedundancy(reg *obs.Registry, s redundancy.Stats) {
	reg.Counter("redundancy_virtual_sends_total").Add(s.VirtualSends)
	reg.Counter("redundancy_physical_sends_total").Add(s.PhysicalSends)
	reg.Counter("redundancy_deliveries_total").Add(s.Deliveries)
	reg.Counter("redundancy_votes_total").Add(s.Votes)
	reg.Counter("redundancy_mismatches_total").Add(s.Mismatches)
	reg.Counter("redundancy_corrections_total").Add(s.Corrections)
	reg.Counter("redundancy_envelopes_total").Add(s.EnvelopesSent)
	reg.Counter("redundancy_failovers_total").Add(s.Failovers)
}

// Run executes the application factory under the configured combined
// C/R + redundancy regime until completion or until the restart budget
// is exhausted. Both recovery policies share this one attempt loop;
// shrink is a policy of the attempt's supervisor (see partialGate).
// factory is invoked once per physical replica per attempt and must
// return a fresh deterministic application value.
func Run(cfg Config, factory func() apps.App) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if factory == nil {
		return Result{}, fmt.Errorf("core: nil application factory")
	}
	rankMap, err := redundancy.NewRankMap(cfg.Ranks, cfg.Degree)
	if err != nil {
		return Result{}, err
	}
	store := cfg.Storage
	if store == nil {
		store = checkpoint.NewMemStorage()
	}
	timeout := cfg.AttemptTimeout
	if timeout <= 0 {
		timeout = 2 * time.Minute
	}
	stream := stats.NewStream(cfg.Seed)

	jobReg := cfg.Obs
	if jobReg == nil {
		jobReg = obs.NewRegistry()
	}
	rm := newRunnerMetrics(jobReg)
	// One pipeline spans the whole Run: its workers survive restart
	// attempts (abandoned jobs from a killed attempt drain harmlessly —
	// their generations are never committed, and a rewrite by the next
	// attempt produces identical bytes from the deterministic app).
	var pipe *checkpoint.Pipeline
	if cfg.AsyncCheckpoint && cfg.StepInterval > 0 {
		pipe = checkpoint.NewPipeline(cfg.AsyncWorkers)
		defer pipe.Close()
	}
	// Step accounting spans the whole Run: the high-water marks survive
	// restarts so that recomputation after a full restart counts too.
	acct := newStepAccounting(rankMap.VirtualSize(), cfg.StepKills, jobReg, cfg.Recorder)

	res := Result{PhysicalRanks: rankMap.PhysicalSize()}
	start := time.Now()
	// finish closes the run: run_end's arg is 1 when the job completed.
	finish := func(attempt int, err error) (Result, error) {
		completed := int64(0)
		if res.Completed {
			completed = 1
		}
		cfg.Recorder.Emit("run_end", -1, -1, attempt, completed)
		res.Elapsed = time.Since(start)
		res.RecomputedSteps = acct.recomputed.Value()
		res.Metrics = jobReg.Snapshot()
		return res, err
	}
	for attempt := 0; attempt <= cfg.MaxRestarts; attempt++ {
		rm.attempts.Inc()
		if attempt > 0 {
			rm.restarts.Inc()
			acct.newEpoch()
		}
		attemptSpan := cfg.Recorder.StartSpan("attempt", -1, -1, attempt)
		at, apps, redStats, worldSnap, appErr := runAttempt(
			cfg, rankMap, store, pipe, stream.Split(), timeout, attempt, jobReg, acct, factory)
		attemptSpan.End()
		at.Index = attempt
		res.Attempts = append(res.Attempts, at)
		res.TotalFailures += at.Failures
		res.TotalCheckpoints += at.Checkpoints
		res.PartialRestarts += at.PartialRestarts
		res.ShrinkEpisodes += at.ShrinkEpisodes
		res.Restarts = attempt
		res.Redundancy = redStats
		rm.attemptMS.Observe(float64(at.Elapsed.Milliseconds()))
		if at.JobFailed {
			rm.jobFailures.Inc()
			cfg.Recorder.Emit("job_failed", -1, -1, attempt, 0)
		}
		if at.TimedOut {
			rm.timeouts.Inc()
			cfg.Recorder.Emit("timed_out", -1, -1, attempt, 0)
		}

		succeeded := appErr == nil && !at.JobFailed && !at.TimedOut
		if succeeded {
			// Communication counters come from the completed attempt only;
			// an aborted world tears down mid-flight and its in-transit
			// counts are not meaningful totals.
			jobReg.Merge(worldSnap)
			if cfg.Spawn == nil {
				// Worker processes keep their interposition counters.
				foldRedundancy(jobReg, redStats)
			}
		} else {
			// Work lost to the failure: it must be recomputed (the paper's
			// rework term).
			rm.recomputeMS.Add(uint64(at.Elapsed.Milliseconds()))
		}

		switch {
		case succeeded:
			res.Completed = true
			rm.completions.Inc()
			res.CompletedApps = apps
			return finish(attempt, nil)
		case at.TimedOut:
			return finish(attempt, fmt.Errorf("attempt %d: %w", attempt, ErrAttemptTimeout))
		case appErr != nil && !at.JobFailed:
			// A genuine application error, not failure-induced.
			return finish(attempt, fmt.Errorf("attempt %d: %w", attempt, appErr))
		}
		// Job failure: loop for a restart.
	}
	return finish(cfg.MaxRestarts,
		fmt.Errorf("%w after %d attempts", ErrRestartsExhausted, cfg.MaxRestarts+1))
}

// runAttempt executes one job attempt: fresh world, fresh injector,
// restore-from-checkpoint inside the application. Per-rank driver
// goroutines run the app in epochs under a partialGate, whose supervisor
// either recovers sphere deaths in place (peer tier usable) or aborts
// the world for a full restart exactly like the original watchdog. The
// returned Snapshot holds the attempt world's communication counters;
// the caller decides whether to merge them into the job registry.
func runAttempt(cfg Config, rankMap *redundancy.RankMap, store checkpoint.Storage,
	pipe *checkpoint.Pipeline, stream *stats.Stream, timeout time.Duration,
	attempt int, jobReg *obs.Registry, acct *stepAccounting, factory func() apps.App,
) (Attempt, []apps.App, redundancy.Stats, obs.Snapshot, error) {
	var at Attempt
	begin := time.Now()

	attemptReg := obs.NewRegistry()
	var (
		world  mpi.Transport
		remote *remoteRanks
		err    error
	)
	if cfg.Spawn != nil {
		if remote, err = listenRemote(cfg, rankMap.PhysicalSize(), attemptReg); err != nil {
			return at, nil, redundancy.Stats{}, obs.Snapshot{}, err
		}
		defer remote.close()
		world = remote
	} else {
		worldOpts := []mpi.Option{mpi.WithObs(attemptReg)}
		if cfg.SendDelay > 0 {
			worldOpts = append(worldOpts, mpi.WithSendDelay(cfg.SendDelay))
		}
		if cfg.Recorder != nil {
			worldOpts = append(worldOpts, mpi.WithFlight(cfg.Recorder))
		}
		newTransport := cfg.Transport
		if newTransport == nil {
			newTransport = func(n int, opts ...mpi.Option) (mpi.Transport, error) {
				return simmpi.NewWorld(n, opts...)
			}
		}
		if world, err = newTransport(rankMap.PhysicalSize(), worldOpts...); err != nil {
			return at, nil, redundancy.Stats{}, obs.Snapshot{}, err
		}
	}
	if cfg.RankView != nil {
		cfg.RankView(world)
	}

	spheres := make([][]int, rankMap.VirtualSize())
	for v := range spheres {
		sphere, serr := rankMap.Sphere(v)
		if serr != nil {
			return at, nil, redundancy.Stats{}, obs.Snapshot{}, serr
		}
		spheres[v] = sphere
	}

	// The injector is the attempt's one sphere accountant. Without a
	// schedule it is a conduit for step kills and for deaths it did not
	// cause (a worker process killed from outside the job).
	schedule := cfg.FailureSchedule
	if cfg.ScheduleOnce && attempt > 0 {
		schedule = nil
	}
	if schedule == nil && cfg.NodeMTBF <= 0 {
		schedule = []failure.Kill{}
	}
	inj, err := failure.New(world, spheres, failure.Config{
		Stream:   stream,
		NodeMTBF: cfg.NodeMTBF,
		Schedule: schedule,
		Obs:      jobReg,
		Flight:   cfg.Recorder,
	})
	if err != nil {
		return at, nil, redundancy.Stats{}, obs.Snapshot{}, err
	}

	// A fresh peer store per attempt: a full restart means the fast tier
	// died with the job, so Latest falls through to the stable tier.
	var peer *checkpoint.PeerStore
	if cfg.PeerTier() {
		stableEvery := cfg.StableEvery
		if stableEvery <= 0 {
			stableEvery = 1
		}
		peer, err = checkpoint.NewPeerStore(checkpoint.PeerStoreConfig{
			Spheres:      spheres,
			DataShards:   cfg.PeerDataShards,
			ParityShards: cfg.PeerParityShards,
			BudgetBytes:  cfg.PeerBudgetBytes,
			StableEvery:  stableEvery,
			Slow:         store,
			Live:         world,
			Obs:          jobReg,
			Flight:       cfg.Recorder,
		})
		if err != nil {
			return at, nil, redundancy.Stats{}, obs.Snapshot{}, err
		}
	}

	g := newPartialGate(cfg, world, rankMap, store, peer, pipe, inj, jobReg, acct, factory)
	var jobFailed, timedOut bool
	if remote != nil {
		rendezvous, err := remote.launch(g, attempt)
		if err != nil {
			g.abort()
			return at, nil, redundancy.Stats{}, obs.Snapshot{}, err
		}
		if rendezvous {
			inj.Start()
			jobFailed, timedOut = g.supervise(timeout)
		} else {
			g.abort()
			jobFailed = true
		}
	} else {
		g.startServers()
		inj.Start()
		g.spawnAll()
		jobFailed, timedOut = g.supervise(timeout)
	}

	// Tear down the peer servers: on a clean finish the world is still
	// up, so interrupt it to unblock their receives (no-op when aborted,
	// where the servers have already drained).
	if peer != nil {
		world.Interrupt()
		g.serverWG.Wait()
	}

	inj.Stop()
	at.Failures = inj.Failures()
	at.Kills = inj.Log()

	g.mu.Lock()
	fetchAborted := g.fetchAborted
	maxCheckpoints := g.maxCheckpoints
	restored := g.restored
	partialRestarts := g.partialRestarts
	redStats := g.redStats
	g.mu.Unlock()

	// A sphere may have died exactly as the app finished; count it only
	// if the world was actually torn down.
	at.JobFailed = (jobFailed || fetchAborted) && world.Aborted()
	at.TimedOut = timedOut
	at.Elapsed = time.Since(begin)
	at.Checkpoints = maxCheckpoints
	at.Restored = restored
	at.PartialRestarts = partialRestarts
	at.ShrinkEpisodes = g.shrinkEpisodes

	// Failure-induced checkpoint errors (a writer died mid-protocol) are
	// job failures, not application bugs. Shrink runs no checkpoint
	// protocol, so there every error is the application's.
	appErr := g.firstAppError()
	if appErr != nil && !g.shrink && at.Failures > 0 && isCheckpointCasualty(appErr) {
		at.JobFailed = true
		appErr = nil
	}
	finished, completed := g.completedApps()
	if appErr == nil && !at.JobFailed && !at.TimedOut && finished == 0 {
		// Every driver exited without finishing its app: the ranks died
		// under it, whether or not an exhaustion event said so. That is
		// never a success.
		at.JobFailed = true
	}
	return at, completed, redStats, attemptReg.Snapshot(), appErr
}

// isCheckpointCasualty reports whether the error is a checkpoint-protocol
// casualty of a concurrent failure rather than an application bug.
func isCheckpointCasualty(err error) bool {
	return errors.Is(err, checkpoint.ErrIncomplete) ||
		errors.Is(err, checkpoint.ErrNotQuiescent) ||
		errors.Is(err, redundancy.ErrSphereDead)
}

func addStats(total *redundancy.Stats, s redundancy.Stats) {
	total.VirtualSends += s.VirtualSends
	total.PhysicalSends += s.PhysicalSends
	total.Deliveries += s.Deliveries
	total.Votes += s.Votes
	total.Mismatches += s.Mismatches
	total.Corrections += s.Corrections
	total.EnvelopesSent += s.EnvelopesSent
	total.Failovers += s.Failovers
}
