package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"time"

	"repro/internal/apps"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/redundancy"
)

// answer is a job's result in a form compared bit for bit.
type answer [2]uint64

func floatAnswer(a, b float64) answer { return answer{math.Float64bits(a), math.Float64bits(b)} }

// workload is one fault-tolerance regime: the application, the
// configuration core.Run receives, the seeded kill schedule, and the
// path every job must take.
type workload struct {
	name   string
	ranks  int
	degree float64
	mode   redundancy.Mode
	newApp func() apps.App
	answer func(apps.App) (answer, bool)
	// closedForm, when set, is the answer the bare run must also give.
	closedForm func() answer
	// configure sets the regime's knobs on a job's configuration.
	configure func(cfg *core.Config)
	// stable puts a fresh compressed FileStorage under the job.
	stable bool
	// kills draws one job's schedule.
	kills func(r *rand.Rand, rm *redundancy.RankMap) []core.StepKill
	// usefulSteps is the steps a correct job reports, rework excluded.
	usefulSteps int64
	// The intended path.
	restarts, partials, shrinks int
}

const (
	cgGrid      = 96
	cgIters     = 400
	ckptEvery   = 10
	stencilW    = 128
	stencilH    = 384
	farmTasks   = 40000
	jobRanks    = 8
	killsPerJob = 3
	// timeoutX scales the bare run's time into the per-attempt timeout:
	// far above any job's real time, so only a hang reaches it.
	timeoutX = 20
)

func cgApp(m *apps.CSRMatrix) func() apps.App {
	return func() apps.App { return &apps.CG{Matrix: m, Iterations: cgIters} }
}

func cgAnswer(a apps.App) (answer, bool) {
	cg, ok := a.(*apps.CG)
	if !ok {
		return answer{}, false
	}
	return floatAnswer(cg.Checksum, cg.ResidualNorm), true
}

func stencilApp() apps.App {
	return &apps.Stencil{Width: stencilW, Height: stencilH, Iterations: cgIters, HotBoundary: 100}
}

func stencilAnswer(a apps.App) (answer, bool) {
	st, ok := a.(*apps.Stencil)
	if !ok {
		return answer{}, false
	}
	return floatAnswer(st.Heat, 0), true
}

func farmApp() apps.App { return &apps.TaskFarm{Tasks: farmTasks} }

func farmAnswer(a apps.App) (answer, bool) {
	tf, ok := a.(*apps.TaskFarm)
	if !ok {
		return answer{}, false
	}
	return answer{uint64(tf.Total), 0}, true
}

// farmClosedForm sums the task farm's work function, v*v mod 9973 + v,
// independently of the application.
func farmClosedForm() answer {
	var total int64
	for v := int64(0); v < farmTasks; v++ {
		total += v*v%9973 + v
	}
	return answer{uint64(total), 0}
}

// spreadSteps draws n ascending steps in [lo, hi] at least gap apart.
func spreadSteps(r *rand.Rand, n, lo, hi, gap int) []int {
	slack := hi - lo - gap*(n-1)
	steps := make([]int, n)
	for i := range steps {
		steps[i] = r.Intn(slack + 1)
	}
	sort.Ints(steps)
	for i := range steps {
		steps[i] += lo + gap*i
	}
	return steps
}

// sphereKills kills every replica of each victim sphere at its step.
func sphereKills(rm *redundancy.RankMap, victims, steps []int) []core.StepKill {
	var out []core.StepKill
	for i, v := range victims {
		sphere, err := rm.Sphere(v)
		if err != nil {
			panic(err) // victims are drawn from [0, VirtualSize)
		}
		for _, p := range sphere {
			out = append(out, core.StepKill{Step: steps[i], Rank: p})
		}
	}
	return out
}

func newWorkloads() (map[string]*workload, error) {
	m, err := apps.Laplacian2D(cgGrid)
	if err != nil {
		return nil, err
	}
	ws := []*workload{
		{
			// Redundancy alone (the paper's Table 5 regime): dual CG
			// with All-to-all compare. One replica in each of three
			// spheres dies, masked by its twin, so nothing checkpoints
			// or recovers.
			name: "cg-dual", ranks: jobRanks, degree: 2, mode: redundancy.AllToAll,
			newApp: cgApp(m), answer: cgAnswer,
			configure: func(*core.Config) {},
			kills: func(r *rand.Rand, rm *redundancy.RankMap) []core.StepKill {
				victims := r.Perm(rm.VirtualSize())[:killsPerJob]
				var out []core.StepKill
				for i, s := range spreadSteps(r, killsPerJob, 20, cgIters-20, 3*ckptEvery) {
					sphere, err := rm.Sphere(victims[i])
					if err != nil {
						panic(err) // victims are drawn from [0, VirtualSize)
					}
					out = append(out, core.StepKill{Step: s, Rank: sphere[r.Intn(len(sphere))]})
				}
				return out
			},
			usefulSteps: jobRanks * cgIters,
		},
		{
			// Checkpoint/restart alone (the paper's baseline): every kill
			// exhausts a sphere and forces a full restart from disk.
			name: "cg-cr", ranks: jobRanks, degree: 1,
			newApp: cgApp(m), answer: cgAnswer,
			configure: func(cfg *core.Config) {
				cfg.StepInterval = ckptEvery
				cfg.MaxRestarts = killsPerJob
			},
			stable: true,
			kills: func(r *rand.Rand, rm *redundancy.RankMap) []core.StepKill {
				var out []core.StepKill
				for _, s := range spreadSteps(r, killsPerJob, 20, cgIters-10, 3*ckptEvery) {
					out = append(out, core.StepKill{Step: s, Rank: r.Intn(rm.PhysicalSize())})
				}
				return out
			},
			usefulSteps: jobRanks * cgIters,
			restarts:    killsPerJob,
		},
		{
			// The combined regime: partial redundancy, async erasure-coded
			// peer checkpoints, and sphere-local recovery in place.
			name: "stencil-partial", ranks: jobRanks, degree: 1.5,
			newApp: stencilApp, answer: stencilAnswer,
			configure: func(cfg *core.Config) {
				cfg.StepInterval = ckptEvery
				cfg.AsyncCheckpoint = true
				cfg.AsyncWorkers = 2
				cfg.PeerDataShards = 4
				cfg.PeerParityShards = 2
				cfg.StableEvery = 4
				cfg.PartialRestart = true
				cfg.MaxRestarts = killsPerJob
			},
			stable: true,
			kills: func(r *rand.Rand, rm *redundancy.RankMap) []core.StepKill {
				// The first async generation commits at the second
				// checkpoint; a sphere death before that has no peer
				// generation to recover from and falls back to a full
				// restart, so kills start after it.
				victims := r.Perm(rm.VirtualSize())[:killsPerJob]
				return sphereKills(rm, victims, spreadSteps(r, killsPerJob, 2*ckptEvery+1, cgIters-20, 4*ckptEvery))
			},
			usefulSteps: jobRanks * cgIters,
			partials:    killsPerJob,
		},
		{
			// ULFM-style shrink-and-continue: worker spheres die and the
			// survivors carry on. Known to hang some jobs (see README).
			name: "farm-shrink", ranks: jobRanks, degree: 2, mode: redundancy.MsgPlusHash,
			newApp: farmApp, answer: farmAnswer, closedForm: farmClosedForm,
			configure: func(cfg *core.Config) {
				cfg.RecoveryPolicy = core.RecoverShrink
			},
			kills: func(r *rand.Rand, rm *redundancy.RankMap) []core.StepKill {
				victims := r.Perm(rm.VirtualSize() - 1)[:killsPerJob]
				for i := range victims {
					victims[i]++ // the master sphere is not survivable
				}
				return sphereKills(rm, victims, spreadSteps(r, killsPerJob, farmTasks/20, farmTasks*19/20, farmTasks/10))
			},
			usefulSteps: farmTasks,
			shrinks:     killsPerJob,
		},
	}
	out := make(map[string]*workload, len(ws))
	for _, w := range ws {
		out[w.name] = w
	}
	return out, nil
}

// reference is the bare run's outcome: r=1, no checkpoints, no failures.
type reference struct {
	answer answer
	bare   time.Duration
}

// runBare runs the application bare through core.Run.
func (w *workload) runBare() (reference, error) {
	start := time.Now()
	res, err := core.Run(core.Config{Ranks: w.ranks, Degree: 1, AttemptTimeout: time.Minute}, w.newApp)
	bare := time.Since(start)
	if err != nil {
		return reference{}, fmt.Errorf("%s: bare run: %w", w.name, err)
	}
	ans, err := w.agreedAnswer(res.CompletedApps, func(a apps.App) apps.App { return a })
	if err != nil {
		return reference{}, fmt.Errorf("%s: bare run: %w", w.name, err)
	}
	if w.closedForm != nil && ans != w.closedForm() {
		return reference{}, fmt.Errorf("%s: bare run answer %v, closed form %v", w.name, ans, w.closedForm())
	}
	return reference{answer: ans, bare: bare}, nil
}

// agreedAnswer extracts the answer every completed instance holds.
func (w *workload) agreedAnswer(done []apps.App, unwrap func(apps.App) apps.App) (answer, error) {
	if len(done) == 0 {
		return answer{}, fmt.Errorf("no completed application instance")
	}
	var first answer
	for i, a := range done {
		ans, ok := w.answer(unwrap(a))
		if !ok {
			return answer{}, fmt.Errorf("completed instance is %T", unwrap(a))
		}
		if i == 0 {
			first = ans
		} else if ans != first {
			return answer{}, fmt.Errorf("instances disagree: %v vs %v", first, ans)
		}
	}
	return first, nil
}

// jobOutcome is one job's measurements.
type jobOutcome struct {
	err      error // non-nil: the job failed (error, timeout, wrong answer or path)
	wrong    bool  // the job completed with a wrong answer
	tts      time.Duration
	episodes []episode
	layers   map[string]float64 // traced jobs only
}

// jobConfig builds one job's configuration: a private registry, the
// regime's knobs, and, for workloads with a stable tier, a fresh
// compressed FileStorage in its own temporary directory, which cleanup
// removes. With t nil the job runs without any wrapper, as the program
// would on its own.
func (w *workload) jobConfig(t *jobTrace, kills []core.StepKill, timeout time.Duration,
) (cfg core.Config, factory func() apps.App, cleanup func(), err error) {
	reg := obs.NewRegistry()
	cfg = core.Config{
		Ranks:          w.ranks,
		Degree:         w.degree,
		Mode:           w.mode,
		StepKills:      kills,
		AttemptTimeout: timeout,
		Obs:            reg,
	}
	w.configure(&cfg)
	factory, cleanup = w.newApp, func() {}
	if t != nil {
		cfg.Transport = t.newTransportFactory()
		factory = func() apps.App { return &appWrapper{inner: w.newApp(), t: t} }
	}
	if w.stable {
		dir, err := os.MkdirTemp("", "jobbench-ckpt-")
		if err != nil {
			return cfg, nil, nil, err
		}
		cleanup = func() { os.RemoveAll(dir) }
		fs, err := checkpoint.NewFileStorage(dir)
		if err != nil {
			cleanup()
			return cfg, nil, nil, err
		}
		cs := checkpoint.NewCompressedStorage(fs)
		cs.Obs = reg
		cfg.Storage = cs
		if t != nil {
			cfg.Storage = &store{inner: cs, t: t}
		}
	}
	return cfg, factory, cleanup, nil
}

// runJob runs one job of the workload with the given kill schedule.
// A job that has not returned an outcome well past its attempts'
// timeouts is abandoned and failed; its goroutines stay parked.
func (w *workload) runJob(ref reference, kills []core.StepKill, traced bool) jobOutcome {
	rm, err := redundancy.NewRankMap(w.ranks, w.degree)
	if err != nil {
		return jobOutcome{err: err}
	}
	t := newJobTrace(traced, rm)
	timeout := timeoutX * ref.bare
	if timeout < 2*time.Second {
		timeout = 2 * time.Second
	}
	cfg, factory, cleanup, err := w.jobConfig(t, kills, timeout)
	if err != nil {
		return jobOutcome{err: err}
	}
	defer cleanup()

	type ran struct {
		res core.Result
		err error
	}
	done := make(chan ran, 1)
	start := time.Now()
	go func() {
		res, err := core.Run(cfg, factory)
		done <- ran{res, err}
	}()
	var r ran
	select {
	case r = <-done:
	case <-time.After(time.Duration(cfg.MaxRestarts+2) * timeout):
		return jobOutcome{err: fmt.Errorf("core.Run did not return after %v", time.Since(start))}
	}
	tts := time.Since(start)
	if r.err != nil {
		return jobOutcome{err: fmt.Errorf("%w (kills %v)", r.err, kills)}
	}
	out := jobOutcome{tts: tts, episodes: t.finishedEpisodes()}
	ans, err := w.agreedAnswer(r.res.CompletedApps, func(a apps.App) apps.App { return a.(*appWrapper).inner })
	if err == nil && ans != ref.answer {
		err = fmt.Errorf("answer %v, reference %v", ans, ref.answer)
	}
	if err != nil {
		out.err, out.wrong = fmt.Errorf("%w (kills %v)", err, kills), true
		return out
	}
	if err := w.checkPath(r.res, out.episodes, replicatedKills(rm, kills)); err != nil {
		out.err = fmt.Errorf("%w (kills %v)", err, kills)
		return out
	}
	if traced {
		out.layers = layerMetrics(t, r.res, out.episodes)
	}
	return out
}

// replicatedKills counts the kills that hit a sphere with more than one
// replica.
func replicatedKills(rm *redundancy.RankMap, kills []core.StepKill) int64 {
	var n int64
	for _, k := range kills {
		if owner, err := rm.Owner(k.Rank); err == nil {
			if sphere, err := rm.Sphere(owner.Virtual); err == nil && len(sphere) > 1 {
				n++
			}
		}
	}
	return n
}

// checkPath verifies the job took its intended recovery path. Each kill
// of a replicated rank may lose the report of the step in flight: the
// twin can pass its writer check just before the writer dies, so
// nobody reports that step.
func (w *workload) checkPath(res core.Result, eps []episode, replicated int64) error {
	observed := res.Metrics.Gauge("runner_steps_observed")
	useful := observed - res.RecomputedSteps
	switch {
	case useful > w.usefulSteps || useful < w.usefulSteps-replicated:
		return fmt.Errorf("path: %d useful steps (%d observed, %d recomputed), want %d",
			useful, observed, res.RecomputedSteps, w.usefulSteps)
	case res.Restarts != w.restarts:
		return fmt.Errorf("path: %d restarts, want %d", res.Restarts, w.restarts)
	case res.PartialRestarts != w.partials:
		return fmt.Errorf("path: %d partial restarts, want %d", res.PartialRestarts, w.partials)
	case res.ShrinkEpisodes != w.shrinks:
		return fmt.Errorf("path: %d shrink episodes, want %d", res.ShrinkEpisodes, w.shrinks)
	}
	want := w.restarts + w.partials + w.shrinks
	if want == 0 {
		want = killsPerJob // masked replica deaths
	}
	if len(eps) != want {
		return fmt.Errorf("path: %d recovery episodes timed, want %d", len(eps), want)
	}
	return nil
}

// layerMetrics turns one traced job into the per-layer metrics.
func layerMetrics(t *jobTrace, res core.Result, eps []episode) map[string]float64 {
	sec := func(ns int64) float64 { return float64(ns) / 1e9 }
	m := res.Metrics
	steps := float64(t.steps.Load())
	run, comm, stall := sec(t.runNs.Load()), sec(t.redNs.Load()), sec(t.stallNs.Load())
	var detect, repair, resume []float64
	for _, e := range eps {
		if e.masked {
			continue
		}
		detect = append(detect, (e.detect - e.kill).Seconds())
		repair = append(repair, (e.repair - e.detect).Seconds())
		resume = append(resume, (e.resume - e.repair).Seconds())
	}
	observed := float64(m.Gauge("runner_steps_observed"))
	return map[string]float64{
		"apps.run_s":  run,
		"apps.self_s": run - comm - stall,
		"apps.comm_s": comm,
		"apps.steps":  steps,

		"redundancy.calls":          float64(t.redCalls.Load()),
		"redundancy.call_s":         comm,
		"redundancy.self_s":         sec(t.redSelfNs.Load()),
		"redundancy.recv_us_p50":    t.redRecv.quantile(0.5) / 1e3,
		"redundancy.app_bytes":      float64(t.appBytes.Load()),
		"redundancy.fanout_x":       ratio(float64(t.appWireBytes.Load()), float64(t.appBytes.Load())),
		"redundancy.votes":          float64(m.Counter("redundancy_votes_total")),
		"redundancy.mismatches":     float64(m.Counter("redundancy_mismatches_total")),
		"redundancy.envelopes":      float64(m.Counter("redundancy_envelopes_total")),
		"redundancy.failovers":      float64(m.Counter("redundancy_failovers_total")),
		"simmpi.sends":              float64(t.sends.Load()),
		"simmpi.send_bytes":         float64(t.sendBytes.Load()),
		"simmpi.msgs_per_step":      ratio(float64(t.sends.Load()), steps),
		"simmpi.bytes_per_step":     ratio(float64(t.sendBytes.Load()), steps),
		"simmpi.send_s":             sec(t.sendNs.Load()),
		"simmpi.recv_wait_s":        sec(t.recvNs.Load()),
		"simmpi.recv_us_p50":        t.simRecv.quantile(0.5) / 1e3,
		"simmpi.copies_elided":      float64(m.Counter("simmpi_copies_elided_total")),
		"simmpi.ctl_ops":            float64(t.ctlOps.Load()),
		"simmpi.ctl_s":              sec(t.ctlNs.Load()),
		"checkpoint.stable_writes":  float64(t.stWrites.Load()),
		"checkpoint.stable_bytes":   float64(t.stBytes.Load()),
		"checkpoint.bytes_per_ckpt": ratio(float64(t.stBytes.Load()), float64(t.stCommits.Load())),
		"checkpoint.stable_write_s": sec(t.stWriteNs.Load()),
		"checkpoint.commit_s":       sec(t.stCommitNs.Load()),
		"checkpoint.stable_read_s":  sec(t.stReadNs.Load()),
		"checkpoint.stall_s":        stall,
		"checkpoint.overlap_s":      sec(int64(m.Counter("checkpoint_overlap_ns_total"))),
		"checkpoint.commit_ratio": ratio(float64(m.Counter("checkpoint_committed_total")),
			float64(m.Counter("checkpoint_attempted_total"))),
		"checkpoint.compress_x": ratio(float64(m.Counter("checkpoint_raw_bytes_total")),
			float64(m.Counter("checkpoint_compressed_bytes_total"))),
		"checkpoint.peer_bytes":          float64(m.Counter("peerstore_bytes_replicated_total")),
		"checkpoint.peer_resident_bytes": float64(m.Gauge("peer_store_resident_bytes")),
		"checkpoint.peer_fetch_remote":   float64(m.Counter("peer_fetch_remote_total")),
		"checkpoint.peer_fetch_retries":  float64(m.Counter("peer_fetch_retries_total")),

		"core.episodes":          float64(len(eps)),
		"core.detect_s":          median(detect),
		"core.repair_s":          median(repair),
		"core.resume_s":          median(resume),
		"core.recomputed_steps":  float64(res.RecomputedSteps),
		"core.useful_step_ratio": ratio(observed-float64(res.RecomputedSteps), observed),
		"core.attempts":          float64(len(res.Attempts)),
		"core.partial_restarts":  float64(res.PartialRestarts),
		"core.shrink_episodes":   float64(res.ShrinkEpisodes),
	}
}
