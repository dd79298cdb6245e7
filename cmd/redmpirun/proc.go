package main

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"time"

	"repro/internal/apps"
	"repro/internal/checkpoint"
	"repro/internal/failure"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/procmpi"
	"repro/internal/redundancy"
)

// procFlags carries the parsed flag values the proc transport needs —
// both for the parent job runner and for rebuilding the worker argv.
type procFlags struct {
	appName  string
	np       int
	degree   float64
	mode     string
	interval int
	restarts int
	recovery string
	seed     int64
	ckptDir  string
	grid     int
	iters    int
	compute  time.Duration
	timeout  time.Duration
	compress bool
	shards   int
	corrupt  string
	listen   string

	schedule     []failure.Kill
	scheduleOnce bool
	stepKills    string
	mtbf         time.Duration

	// Flags the proc transport rejects (checked in validate).
	peerShards     string
	peerBudget     int64
	partialRestart bool
	asyncCkpt      bool
	sendLatency    time.Duration
}

// validate rejects the feature combinations the multi-process backend
// does not carry: the peer checkpoint tier and async pipeline live in
// one address space, and send-latency emulation is a simulation
// instrument. Step-triggered kills ride the coordinator's frameStep
// relay and land as real SIGKILLs.
func (pf procFlags) validate() error {
	switch {
	case pf.peerShards != "":
		return fmt.Errorf("-peer-shards is not supported with -transport proc (the peer tier shares memory between ranks)")
	case pf.peerBudget > 0:
		return fmt.Errorf("-peer-budget-bytes is not supported with -transport proc (no peer tier to budget)")
	case pf.partialRestart:
		return fmt.Errorf("-partial-restart is not supported with -transport proc")
	case pf.asyncCkpt:
		return fmt.Errorf("-async-checkpoint is not supported with -transport proc")
	case pf.sendLatency > 0:
		return fmt.Errorf("-send-latency is not supported with -transport proc (real sockets have real latency)")
	case pf.interval > 0 && pf.ckptDir == "":
		return fmt.Errorf("-interval with -transport proc requires -ckpt-dir (worker processes share checkpoints through the filesystem)")
	}
	return nil
}

// workerArgs rebuilds the argv a worker process needs to reconstruct
// this job's configuration plus its own identity.
func (pf procFlags) workerArgs(rank int, network, addr string) []string {
	args := []string{
		"-proc-worker-rank", strconv.Itoa(rank),
		"-proc-connect", addr,
		"-proc-network", network,
		"-app", pf.appName,
		"-np", strconv.Itoa(pf.np),
		"-r", strconv.FormatFloat(pf.degree, 'g', -1, 64),
		"-mode", pf.mode,
		"-grid", strconv.Itoa(pf.grid),
		"-iters", strconv.Itoa(pf.iters),
		"-compute", pf.compute.String(),
	}
	if pf.recovery != "" {
		args = append(args, "-recovery", pf.recovery)
	}
	// Forwarded only when set: a shrink worker's flag validation rejects
	// rollback flags even at their zero values.
	if pf.interval > 0 {
		args = append(args, "-interval", strconv.Itoa(pf.interval))
	}
	if pf.ckptDir != "" {
		args = append(args, "-ckpt-dir", pf.ckptDir)
	}
	if pf.compress {
		args = append(args, "-compress")
		if pf.shards > 1 {
			args = append(args, "-compress-shards", strconv.Itoa(pf.shards))
		}
	}
	if pf.corrupt != "" {
		args = append(args, "-corrupt", pf.corrupt)
	}
	return args
}

// runProcJob is the parent side of -transport proc: fork one worker
// process per physical rank and drive the procmpi attempt loop. reg and
// rec may be nil-equivalent (fresh registry, nil recorder) — they are
// the same objects the -metrics and -flight flags dump.
func runProcJob(pf procFlags, reg *obs.Registry, rec *obs.Recorder, rankView func(obs.RankView)) error {
	if err := pf.validate(); err != nil {
		return err
	}
	rankMap, err := redundancy.NewRankMap(pf.np, pf.degree)
	if err != nil {
		return err
	}
	spheres := make([][]int, rankMap.VirtualSize())
	for v := range spheres {
		if spheres[v], err = rankMap.Sphere(v); err != nil {
			return err
		}
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}

	network, listen := "unix", ""
	if pf.listen != "" {
		network, listen = "tcp", pf.listen
	}
	var stepKills []procmpi.StepKill
	if pf.stepKills != "" {
		kills, kerr := parseStepKills(pf.stepKills)
		if kerr != nil {
			return kerr
		}
		for _, k := range kills {
			stepKills = append(stepKills, procmpi.StepKill{Step: k.Step, Rank: k.Rank})
		}
	}
	cfg := procmpi.JobConfig{
		Physical:       rankMap.PhysicalSize(),
		Spheres:        spheres,
		Network:        network,
		Listen:         listen,
		MaxRestarts:    pf.restarts,
		AttemptTimeout: pf.timeout,
		Shrink:         pf.recovery == "shrink",
		Schedule:       pf.schedule,
		ScheduleOnce:   pf.scheduleOnce,
		StepKills:      stepKills,
		NodeMTBF:       pf.mtbf,
		Seed:           pf.seed,
		Obs:            reg,
		Flight:         rec,
		Spawn: func(rank int, network, addr string) (*os.Process, error) {
			cmd := exec.Command(exe, pf.workerArgs(rank, network, addr)...)
			cmd.Stderr = os.Stderr
			if err := cmd.Start(); err != nil {
				return nil, err
			}
			return cmd.Process, nil
		},
		// CI's real-kill step greps these lines for a victim PID.
		OnSpawn: func(attempt, rank, pid int) {
			fmt.Printf("proc: attempt %d rank %d pid=%d\n", attempt, rank, pid)
		},
		OnCoordinator: func(c *procmpi.Coordinator) {
			if rankView != nil {
				rankView(c)
			}
		},
	}

	start := time.Now()
	res, runErr := procmpi.RunJob(cfg)
	fmt.Printf("completed=%v wallclock=%v attempts=%d failures=%d\n",
		res.Completed, time.Since(start).Round(time.Millisecond),
		len(res.Attempts), res.TotalFailures)
	for _, at := range res.Attempts {
		fmt.Printf("  attempt %d: elapsed=%v failures=%d jobFailed=%v timedOut=%v\n",
			at.Index, at.Elapsed.Round(time.Millisecond), at.Failures, at.JobFailed, at.TimedOut)
	}
	if cfg.Shrink {
		fmt.Printf("recovery: shrink episodes=%d restarts=0\n", res.ShrinkEpisodes)
	}
	return runErr
}

// runProcWorker is the child side of -transport proc: dial the
// coordinator, run the application under the redundancy interposition
// layer with filesystem checkpointing, and report completion with a bye
// frame. Failure-class errors exit silently — the coordinator's
// liveness accounting already tells that story.
func runProcWorker(pf procFlags, rank int, network, addr string, factory func() apps.App) error {
	rankMap, err := redundancy.NewRankMap(pf.np, pf.degree)
	if err != nil {
		return err
	}
	w, err := procmpi.Dial(procmpi.WorkerConfig{
		Network: network,
		Addr:    addr,
		Rank:    rank,
		Size:    rankMap.PhysicalSize(),
		PID:     os.Getpid(),
	})
	if err != nil {
		return fmt.Errorf("worker %d: %w", rank, err)
	}
	defer w.Close()

	opts := []mpi.Option{
		mpi.WithDegree(pf.degree),
		mpi.WithHashCompare(pf.mode == "hash"),
		mpi.WithLiveness(w),
	}
	if pf.corrupt != "" {
		ranks, cerr := parseRankList(pf.corrupt)
		if cerr != nil {
			return cerr
		}
		opts = append(opts, mpi.WithCorruptRanks(ranks))
	}
	rc, err := redundancy.Wrap(w, rankMap, opts...)
	if err != nil {
		return err
	}
	// Peer deaths are observed through the fault-notification API, not by
	// sniffing error identities: the handler fires once per failed
	// virtual rank, from inside the observing call. Under -recovery
	// shrink the application installs its own handler over this one and
	// does its own classification (it repairs instead of exiting).
	peerFailures := 0
	rc.SetErrhandler(func(mpi.FailureInfo) { peerFailures++ })

	shrink := pf.recovery == "shrink"
	var client *checkpoint.Client
	if !shrink {
		var store checkpoint.Storage
		if pf.ckptDir != "" {
			if store, err = checkpoint.NewFileStorage(pf.ckptDir); err != nil {
				return err
			}
		} else {
			store = checkpoint.NewMemStorage()
		}
		if pf.compress {
			store = &checkpoint.CompressedStorage{Inner: store, Obs: obs.NewRegistry(), Shards: pf.shards}
		}
		ccfg := checkpoint.Config{Storage: store}
		if pf.interval > 0 {
			ccfg.StepInterval = pf.interval
		}
		if client, err = checkpoint.NewClient(rc, ccfg); err != nil {
			return err
		}
	}

	ctx := &apps.Context{
		Comm:           rc,
		Ckpt:           client,
		IsWriter:       rc.IsLead,
		ComputeDelay:   pf.compute,
		NoteStep:       func(step int) { _ = w.NoteStep(step) },
		ShrinkRecovery: shrink,
	}
	app := factory()
	if runErr := app.Run(ctx); runErr != nil {
		if peerFailures > 0 || isProcTeardown(runErr) {
			// A peer failure this worker observed (through the handler) or
			// a local fail-stop/teardown: an expected casualty, not an
			// application bug. The coordinator's liveness and sphere
			// accounting already tell that story.
			return nil
		}
		_ = w.ReportError(runErr.Error())
		return fmt.Errorf("worker %d: %w", rank, runErr)
	}
	return w.Bye()
}

// isProcTeardown reports errors that are local consequences of this
// worker's own fail-stop or the job's teardown. Peer failures are NOT
// classified here by error identity — the errhandler installed in
// runProcWorker is the single observation path for those.
func isProcTeardown(err error) bool {
	return errors.Is(err, mpi.ErrKilled) ||
		errors.Is(err, mpi.ErrAborted) ||
		errors.Is(err, mpi.ErrInterrupted) ||
		errors.Is(err, checkpoint.ErrIncomplete) ||
		errors.Is(err, checkpoint.ErrNotQuiescent)
}
