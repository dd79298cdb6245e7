// The shrink-and-continue runner: the ULFM-style alternative to the
// restart loop. One attempt, no checkpoint clients, no peer tier, no
// revival — every physical rank runs the application exactly once, and
// when a replica sphere dies the *application* repairs the job on the
// survivors through the fault-notification Comm API (errhandler →
// FailureAck → Agree → Shrink). The runner's supervisor only observes:
// it records each sphere death as a shrink episode and keeps waiting
// for the survivors to finish.

package core

import (
	"time"

	"repro/internal/apps"
	"repro/internal/failure"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/redundancy"
	"repro/internal/simmpi"
	"repro/internal/stats"
)

// runShrink executes cfg under RecoverShrink. Success means every rank
// that was still alive at the end returned nil from the application;
// ranks killed by the injector are excused casualties.
func runShrink(cfg Config, factory func() apps.App) (Result, error) {
	rankMap, err := redundancy.NewRankMap(cfg.Ranks, cfg.Degree)
	if err != nil {
		return Result{}, err
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
	episodesC := jobReg.Counter("shrink_episodes_total")
	acct := newStepAccounting(rankMap.VirtualSize(), cfg.StepKills, jobReg, cfg.Recorder)

	res := Result{PhysicalRanks: rankMap.PhysicalSize()}
	start := time.Now()
	rm.attempts.Inc()
	cfg.Tracer.Emit("attempt_start", -1, -1, 0, nil)
	attemptSpan := cfg.Recorder.StartSpan("attempt", -1, -1, 0)

	attemptReg := obs.NewRegistry()
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
	world, err := newTransport(rankMap.PhysicalSize(), worldOpts...)
	if err != nil {
		return res, err
	}
	if cfg.RankView != nil {
		cfg.RankView(world)
	}

	spheres := make([][]int, rankMap.VirtualSize())
	for v := range spheres {
		sphere, serr := rankMap.Sphere(v)
		if serr != nil {
			return res, serr
		}
		spheres[v] = sphere
	}

	var inj *failure.Injector
	schedule := cfg.FailureSchedule
	if schedule != nil || cfg.NodeMTBF > 0 || len(cfg.StepKills) > 0 {
		if schedule == nil && cfg.NodeMTBF <= 0 {
			schedule = []failure.Kill{}
		}
		inj, err = failure.New(world, spheres, failure.Config{
			Stream:   stream,
			NodeMTBF: cfg.NodeMTBF,
			Schedule: schedule,
			Obs:      jobReg,
			Trace:    cfg.Tracer,
			Flight:   cfg.Recorder,
		})
		if err != nil {
			return res, err
		}
	}

	commOpts := []mpi.Option{
		mpi.WithDegree(cfg.Degree),
		mpi.WithHashCompare(cfg.Mode == redundancy.MsgPlusHash),
		mpi.WithLiveness(world),
		mpi.WithCorruptRanks(cfg.CorruptRanks),
	}

	type driverDone struct {
		phys  int
		app   apps.App
		stats redundancy.Stats
		err   error
	}
	doneCh := make(chan driverDone, world.Size())
	for p := 0; p < world.Size(); p++ {
		go func(p int) {
			app, st, derr := runShrinkDriver(cfg, world, rankMap, spheres, acct, inj, commOpts, p, factory)
			doneCh <- driverDone{phys: p, app: app, stats: st, err: derr}
		}(p)
	}
	if inj != nil {
		inj.Start()
	}

	var failedCh <-chan int
	if inj != nil {
		failedCh = inj.JobFailed()
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()

	var at Attempt
	var redStats redundancy.Stats
	completedBy := make(map[int]apps.App)
	appErrs := make(map[int]error)
	episodes := 0
	noteEpisode := func(v int) {
		episodes++
		episodesC.Inc()
		sp := cfg.Recorder.StartSpan("shrink", -1, v, episodes)
		sp.End()
		cfg.Tracer.Emit("shrink_episode", -1, v, episodes, nil)
	}
	for remaining := world.Size(); remaining > 0; {
		select {
		case d := <-doneCh:
			remaining--
			addStats(&redStats, d.stats)
			switch {
			case d.err == nil:
				completedBy[d.phys] = d.app
			case !world.Alive(d.phys) || world.Aborted():
				// Expected casualty of the kill (or of the timeout abort).
			default:
				appErrs[d.phys] = d.err
			}
		case v := <-failedCh:
			noteEpisode(v)
		case <-timer.C:
			at.TimedOut = true
			world.Abort()
		}
	}
	// A sphere exhaustion can land exactly as the last driver drains.
	if failedCh != nil {
		select {
		case v := <-failedCh:
			noteEpisode(v)
		default:
		}
	}
	if inj != nil {
		inj.Stop()
		at.Failures = inj.Failures()
		at.Kills = inj.Log()
	}
	attemptSpan.End()

	at.Elapsed = time.Since(start)
	at.ShrinkEpisodes = episodes
	res.Attempts = append(res.Attempts, at)
	res.TotalFailures = at.Failures
	res.Redundancy = redStats
	res.ShrinkEpisodes = episodes
	rm.attemptMS.Observe(float64(at.Elapsed.Milliseconds()))
	if at.TimedOut {
		rm.timeouts.Inc()
	}

	var appErr error
	for p := 0; p < world.Size(); p++ {
		if e, ok := appErrs[p]; ok {
			appErr = RankError{Rank: p, Err: e}
			break
		}
	}
	succeeded := appErr == nil && !at.TimedOut
	cfg.Tracer.Emit("attempt_end", -1, -1, 0, map[string]any{
		"job_failed":      !succeeded && !at.TimedOut,
		"timed_out":       at.TimedOut,
		"failures":        at.Failures,
		"shrink_episodes": episodes,
	})
	if succeeded {
		jobReg.Merge(attemptReg.Snapshot())
		foldRedundancy(jobReg, redStats)
		res.Completed = true
		rm.completions.Inc()
		cfg.Tracer.Emit("run_end", -1, -1, 0, map[string]any{
			"completed": true, "restarts": 0, "shrink_episodes": episodes,
		})
		for p := 0; p < world.Size(); p++ {
			if app, ok := completedBy[p]; ok {
				res.CompletedApps = append(res.CompletedApps, app)
			}
		}
	} else {
		// The lost attempt's work would have to be recomputed under a
		// restart policy; under shrink a failed attempt is simply lost.
		rm.recomputeMS.Add(uint64(at.Elapsed.Milliseconds()))
		rm.jobFailures.Inc()
		res.Attempts[0].JobFailed = !at.TimedOut
	}
	res.Elapsed = time.Since(start)
	res.RecomputedSteps = acct.recomputed.Value()
	res.Metrics = jobReg.Snapshot()
	switch {
	case succeeded:
		return res, nil
	case at.TimedOut:
		return res, ErrAttemptTimeout
	default:
		return res, appErr
	}
}

// runShrinkDriver runs one physical rank's single application execution
// against the fault-notification API: no checkpoint client, no epochs.
func runShrinkDriver(cfg Config, world mpi.Transport, rankMap *redundancy.RankMap,
	spheres [][]int, acct *stepAccounting, inj *failure.Injector,
	commOpts []mpi.Option, p int, factory func() apps.App,
) (apps.App, redundancy.Stats, error) {
	pc, err := world.Endpoint(p)
	if err != nil {
		return nil, redundancy.Stats{}, err
	}
	rc, err := redundancy.Wrap(pc, rankMap, commOpts...)
	if err != nil {
		return nil, redundancy.Stats{}, err
	}
	myPhys := pc.Rank()
	v := rc.Rank()
	sphere := spheres[v]
	ctx := &apps.Context{
		Comm: rc,
		IsWriter: func() bool {
			for _, q := range sphere {
				if world.Alive(q) {
					return q == myPhys
				}
			}
			return false
		},
		ComputeDelay: cfg.ComputeDelay,
		NoteStep: func(step int) {
			acct.note(v, step, acct.epoch.Load()) // shrinking never rolls back: one epoch
			acct.maybeFire(step, inj)
		},
		ShrinkRecovery: true,
	}
	app := factory()
	runErr := app.Run(ctx)
	return app, rc.Stats(), runErr
}
