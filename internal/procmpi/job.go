package procmpi

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/failure"
	"repro/internal/obs"
	"repro/internal/stats"
)

// ErrRestartsExhausted reports that a multi-process job kept failing
// past its restart budget (the proc analogue of core.ErrRestartsExhausted;
// redmpirun maps both to exit code 3).
var ErrRestartsExhausted = errors.New("procmpi: restart budget exhausted")

// JobConfig describes one multi-process job: the attempt loop that forks
// one worker process per physical rank and watches them through the
// coordinator.
type JobConfig struct {
	// Physical is the physical rank count (N · r under Eq. 8).
	Physical int
	// Spheres maps each virtual rank to its physical replica sphere
	// (redundancy.RankMap.Sphere order).
	Spheres [][]int

	// Network is "unix" (default, socket in a fresh temp dir) or "tcp".
	Network string
	// Listen is the tcp listen address (Network "tcp" only); empty means
	// 127.0.0.1:0.
	Listen string

	// Spawn launches the worker process for one physical rank, given the
	// hub's network and address; it must return the started process.
	// Required — this is where redmpirun re-execs itself.
	Spawn func(rank int, network, addr string) (*os.Process, error)
	// OnSpawn, when non-nil, observes every launched worker (attempt,
	// rank, pid) — redmpirun prints the "proc: rank N pid=P" lines CI
	// greps for its external-SIGKILL step.
	OnSpawn func(attempt, rank, pid int)

	// MaxRestarts bounds restart attempts; zero means none allowed.
	MaxRestarts int
	// AttemptTimeout aborts a wedged attempt; zero means 2 minutes.
	AttemptTimeout time.Duration
	// HeartbeatTimeout threads through to the coordinator (zero =
	// default).
	HeartbeatTimeout time.Duration

	// Shrink selects survivor recovery: the job runs exactly one attempt
	// and a sphere exhaustion is not job failure — the workers repair the
	// communicator in place through the fault-notification API and the
	// job completes when every surviving sphere reports a bye. Mutually
	// exclusive with MaxRestarts > 0.
	Shrink bool

	// Schedule injects these kills per attempt as real SIGKILLs to the
	// worker PIDs. ScheduleOnce restricts it to the first attempt.
	Schedule     []failure.Kill
	ScheduleOnce bool
	// StepKills fires real SIGKILLs pinned to application steps: each
	// entry kills its physical rank the first time any worker relays a
	// step notification at or past Step (the proc analogue of
	// core.Config.StepKills, riding the frameStep relay).
	StepKills []StepKill
	// NodeMTBF draws Poisson kills instead (with Seed); zero disables.
	NodeMTBF time.Duration
	Seed     int64

	// Obs and Flight thread through to the coordinator and the
	// injector. Flight also gets the attempt loop's records: an
	// "attempt" span per attempt, "job_failed" or "timed_out" for an
	// attempt that ends so, and "run_end" (arg 1 when the job completed),
	// the kinds core.Run emits.
	Obs    *obs.Registry
	Flight *obs.Recorder

	// OnCoordinator, when non-nil, observes each attempt's hub right
	// after it starts accepting (introspection wiring: the coordinator
	// satisfies obs.RankView).
	OnCoordinator func(*Coordinator)
}

// StepKill pins a SIGKILL to an application step (see JobConfig.StepKills).
type StepKill struct {
	// Step is the 1-based application step that triggers the kill.
	Step int
	// Rank is the physical rank to kill.
	Rank int
}

// JobAttempt records one attempt of a multi-process job.
type JobAttempt struct {
	Index          int
	Failures       int
	JobFailed      bool
	TimedOut       bool
	ShrinkEpisodes int
	Elapsed        time.Duration
	Kills          []failure.Kill
}

// JobResult summarises a multi-process job run.
type JobResult struct {
	Completed      bool
	Restarts       int
	TotalFailures  int
	ShrinkEpisodes int
	Elapsed        time.Duration
	Attempts       []JobAttempt
	PhysicalRanks  int
}

// sphereTracker is the job runner's authoritative completion and failure
// accounting, driven by coordinator callbacks. Because it hangs off
// OnDeath it counts every death the same way regardless of origin —
// injected SIGKILL, a CI script killing a PID from outside, or a worker
// crash — which is the property the proc-smoke job exists to prove.
type sphereTracker struct {
	mu        sync.Mutex
	sphereOf  []int
	remaining []int
	byed      []bool
	byedN     int
	shrink    bool
	excused   []bool
	excusedN  int
	episodes  chan int
	failed    chan int
	done      chan struct{}
	closed    bool
}

func newSphereTracker(spheres [][]int, physical int, shrink bool) *sphereTracker {
	t := &sphereTracker{
		sphereOf:  make([]int, physical),
		remaining: make([]int, len(spheres)),
		byed:      make([]bool, len(spheres)),
		shrink:    shrink,
		excused:   make([]bool, len(spheres)),
		episodes:  make(chan int, len(spheres)),
		failed:    make(chan int, 1),
		done:      make(chan struct{}),
	}
	for i := range t.sphereOf {
		t.sphereOf[i] = -1
	}
	for v, sphere := range spheres {
		t.remaining[v] = len(sphere)
		for _, p := range sphere {
			t.sphereOf[p] = v
		}
	}
	return t
}

// death records one physical rank's death. Under the restart policy,
// exhausting a sphere that has not yet completed is job failure
// (Fig. 7); under shrink it is an episode — the survivors repair the
// job in place, and the exhausted sphere is excused from completion.
func (t *sphereTracker) death(rank int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if rank < 0 || rank >= len(t.sphereOf) {
		return
	}
	v := t.sphereOf[rank]
	if v < 0 || t.byed[v] || t.excused[v] {
		return
	}
	t.remaining[v]--
	if t.remaining[v] > 0 {
		return
	}
	if !t.shrink {
		select {
		case t.failed <- v:
		default:
		}
		return
	}
	t.excused[v] = true
	t.excusedN++
	if t.excusedN == len(t.remaining) {
		// Nobody left to shrink onto.
		select {
		case t.failed <- v:
		default:
		}
		return
	}
	t.episodes <- v // buffered to len(spheres): never blocks
	t.maybeDoneLocked()
}

// bye records one physical rank's clean completion; the job is done when
// every non-excused sphere has at least one finisher.
func (t *sphereTracker) bye(rank int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if rank < 0 || rank >= len(t.sphereOf) {
		return
	}
	v := t.sphereOf[rank]
	if v < 0 || t.byed[v] || t.excused[v] {
		return
	}
	t.byed[v] = true
	t.byedN++
	t.maybeDoneLocked()
}

func (t *sphereTracker) maybeDoneLocked() {
	if t.byedN+t.excusedN == len(t.remaining) && t.byedN > 0 && !t.closed {
		t.closed = true
		close(t.done)
	}
}

// appError carries a worker-reported application error.
type appError struct {
	rank int
	msg  string
}

// RunJob runs the multi-process attempt loop: fork every worker, watch
// deaths and byes through the coordinator, and restart from shared
// storage until the application completes or the budget is spent. The
// workers own checkpoint restore — a fresh attempt's processes find the
// last committed generation in the shared checkpoint directory exactly
// as a BLCR restart would.
func RunJob(cfg JobConfig) (JobResult, error) {
	if cfg.Physical <= 0 {
		return JobResult{}, fmt.Errorf("procmpi: Physical = %d", cfg.Physical)
	}
	if cfg.Spawn == nil {
		return JobResult{}, fmt.Errorf("procmpi: nil Spawn")
	}
	if len(cfg.Spheres) == 0 {
		return JobResult{}, fmt.Errorf("procmpi: empty sphere map")
	}
	if cfg.Shrink && cfg.MaxRestarts > 0 {
		return JobResult{}, fmt.Errorf("procmpi: Shrink never restarts, so MaxRestarts must be 0")
	}
	timeout := cfg.AttemptTimeout
	if timeout <= 0 {
		timeout = 2 * time.Minute
	}
	stream := stats.NewStream(cfg.Seed)
	sk := newStepKiller(cfg.StepKills)

	res := JobResult{PhysicalRanks: cfg.Physical}
	start := time.Now()
	// finish closes the run: run_end's arg is 1 when the job completed.
	finish := func(attempt int, err error) (JobResult, error) {
		completed := int64(0)
		if res.Completed {
			completed = 1
		}
		cfg.Flight.Emit("run_end", -1, -1, attempt, completed)
		res.Elapsed = time.Since(start)
		return res, err
	}
	for attempt := 0; attempt <= cfg.MaxRestarts; attempt++ {
		span := cfg.Flight.StartSpan("attempt", -1, -1, attempt)
		at, appErr := runJobAttempt(cfg, attempt, timeout, stream.Split(), sk)
		span.End()
		at.Index = attempt
		res.Attempts = append(res.Attempts, at)
		res.TotalFailures += at.Failures
		res.ShrinkEpisodes += at.ShrinkEpisodes
		res.Restarts = attempt
		switch {
		case appErr == nil && !at.JobFailed && !at.TimedOut:
			res.Completed = true
			return finish(attempt, nil)
		case at.TimedOut:
			return finish(attempt, fmt.Errorf("procmpi: attempt %d timed out after %v", attempt, timeout))
		case appErr != nil && !at.JobFailed:
			// A genuine application error, not failure-induced: retrying
			// would fail identically.
			return finish(attempt, appErr)
		}
		// Job failure: loop for a restart.
	}
	return finish(cfg.MaxRestarts,
		fmt.Errorf("%w after %d attempts", ErrRestartsExhausted, cfg.MaxRestarts+1))
}

// stepKiller matches relayed application steps against the step-kill
// schedule and fires each entry at most once per job (mirroring core's
// once-per-Run semantics). The injector target is attached late — the
// coordinator starts relaying steps before the attempt's injector
// exists — and swapped per attempt.
type stepKiller struct {
	mu    sync.Mutex
	kills []StepKill
	fired []bool
	inj   *failure.Injector
}

func newStepKiller(kills []StepKill) *stepKiller {
	return &stepKiller{kills: kills, fired: make([]bool, len(kills))}
}

func (s *stepKiller) arm(inj *failure.Injector) {
	s.mu.Lock()
	s.inj = inj
	s.mu.Unlock()
}

// onStep is the CoordinatorConfig.OnStep hook: a step report at or past
// a schedule entry's step SIGKILLs that entry's rank.
func (s *stepKiller) onStep(_, step int) {
	s.mu.Lock()
	inj := s.inj
	var victims []int
	for i, k := range s.kills {
		if inj != nil && !s.fired[i] && step >= k.Step {
			s.fired[i] = true
			victims = append(victims, k.Rank)
		}
	}
	s.mu.Unlock()
	for _, r := range victims {
		inj.InjectNow(r)
	}
}

// runJobAttempt runs one attempt: fresh hub, fresh worker processes,
// fresh injector. Teardown is unconditional — every child is reaped
// before the next attempt starts.
func runJobAttempt(cfg JobConfig, attempt int, timeout time.Duration, stream *stats.Stream, sk *stepKiller) (at JobAttempt, appErr error) {
	begin := time.Now()

	network := cfg.Network
	if network == "" {
		network = "unix"
	}
	var (
		ln  net.Listener
		dir string
		err error
	)
	switch network {
	case "unix":
		dir, err = os.MkdirTemp("", "procmpi-job")
		if err != nil {
			return at, err
		}
		defer os.RemoveAll(dir)
		ln, err = net.Listen("unix", filepath.Join(dir, "hub.sock"))
	case "tcp":
		addr := cfg.Listen
		if addr == "" {
			addr = "127.0.0.1:0"
		}
		ln, err = net.Listen("tcp", addr)
	default:
		err = fmt.Errorf("procmpi: unsupported network %q", network)
	}
	if err != nil {
		return at, err
	}

	tracker := newSphereTracker(cfg.Spheres, cfg.Physical, cfg.Shrink)
	appErrs := make(chan appError, cfg.Physical)
	ccfg := CoordinatorConfig{
		Size:             cfg.Physical,
		HeartbeatTimeout: cfg.HeartbeatTimeout,
		Obs:              cfg.Obs,
		Flight:           cfg.Flight,
		OnDeath:          tracker.death,
		OnBye:            tracker.bye,
		OnAppErr: func(rank int, msg string) {
			select {
			case appErrs <- appError{rank: rank, msg: msg}:
			default:
			}
		},
	}
	if len(sk.kills) > 0 {
		ccfg.OnStep = sk.onStep
	}
	coord, err := NewCoordinator(ln, ccfg)
	if err != nil {
		ln.Close()
		return at, err
	}
	defer coord.Close()
	if cfg.OnCoordinator != nil {
		cfg.OnCoordinator(coord)
	}

	addr := ln.Addr().String()
	procs := make([]*os.Process, cfg.Physical)
	defer func() {
		for _, p := range procs {
			if p == nil {
				continue
			}
			_ = p.Kill()
			_, _ = p.Wait()
		}
	}()
	for r := 0; r < cfg.Physical; r++ {
		p, serr := cfg.Spawn(r, network, addr)
		if serr != nil {
			coord.Abort()
			return at, fmt.Errorf("procmpi: spawning rank %d: %w", r, serr)
		}
		procs[r] = p
		if cfg.OnSpawn != nil {
			cfg.OnSpawn(attempt, r, p.Pid)
		}
	}
	if err := coord.WaitConnected(30 * time.Second); err != nil {
		// A worker died (or wedged) before rendezvous; treat it like any
		// other failure and let the restart budget decide.
		coord.Abort()
		cfg.Flight.Emit("job_failed", -1, -1, attempt, 0)
		at.JobFailed = true
		at.Elapsed = time.Since(begin)
		return at, nil
	}

	// The injector is a schedule timer here: its kills land as real
	// SIGKILLs (the coordinator knows every worker's PID), and the
	// resulting deaths flow back through OnDeath like any external kill.
	schedule := cfg.Schedule
	if cfg.ScheduleOnce && attempt > 0 {
		schedule = nil
	}
	var inj *failure.Injector
	if schedule != nil || cfg.NodeMTBF > 0 || len(cfg.StepKills) > 0 {
		if schedule == nil && cfg.NodeMTBF <= 0 {
			// Step kills only: the injector is a pure InjectNow conduit.
			schedule = []failure.Kill{}
		}
		inj, err = failure.New(coord, cfg.Spheres, failure.Config{
			Stream:   stream,
			NodeMTBF: cfg.NodeMTBF,
			Schedule: schedule,
			Obs:      cfg.Obs,
			Flight:   cfg.Flight,
		})
		if err != nil {
			coord.Abort()
			return at, err
		}
		inj.Start()
		sk.arm(inj)
		defer func() {
			sk.arm(nil)
			inj.Stop()
			at.Failures = inj.Failures()
			at.Kills = inj.Log()
		}()
	}

	timer := time.NewTimer(timeout)
	defer timer.Stop()
	for waiting := true; waiting; {
		select {
		case <-tracker.done:
			// Every non-excused sphere has a finisher. Completion wins over
			// a pending sphere exhaustion: the dead sphere must have byed
			// first, or the tracker would not have closed done.
			waiting = false
		case v := <-tracker.episodes:
			// Shrink policy: a sphere exhaustion the survivors repair in
			// place. Record it and keep waiting for the byes.
			at.ShrinkEpisodes++
			cfg.Obs.Counter("shrink_episodes_total").Inc()
			cfg.Flight.StartSpan("shrink", -1, v, at.ShrinkEpisodes).End()
		case v := <-tracker.failed:
			cfg.Flight.Emit("job_failed", -1, v, attempt, 0)
			at.JobFailed = true
			coord.Abort()
			waiting = false
		case e := <-appErrs:
			appErr = fmt.Errorf("procmpi: rank %d: %s", e.rank, e.msg)
			coord.Abort()
			waiting = false
		case <-timer.C:
			cfg.Flight.Emit("timed_out", -1, -1, attempt, 0)
			at.TimedOut = true
			coord.Abort()
			waiting = false
		}
	}
	// An episode landing exactly as the last bye drains must still count.
	for done := false; !done; {
		select {
		case v := <-tracker.episodes:
			at.ShrinkEpisodes++
			cfg.Obs.Counter("shrink_episodes_total").Inc()
			cfg.Flight.StartSpan("shrink", -1, v, at.ShrinkEpisodes).End()
		default:
			done = true
		}
	}
	// Externally-delivered deaths are counted even without an injector.
	if inj == nil {
		deaths := 0
		coord.ForEachDead(func(int) { deaths++ })
		at.Failures = deaths
	}
	at.Elapsed = time.Since(begin)
	return at, appErr
}
