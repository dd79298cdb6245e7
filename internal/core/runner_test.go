package core

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/checkpoint"
	"repro/internal/failure"
	"repro/internal/mpi"
	"repro/internal/redundancy"
	"repro/internal/simmpi"
)

// cgFactory builds a small deterministic CG job.
func cgFactory(t *testing.T, grid, iters int) func() apps.App {
	t.Helper()
	m, err := apps.Laplacian2D(grid)
	if err != nil {
		t.Fatal(err)
	}
	return func() apps.App {
		return &apps.CG{Matrix: m, Iterations: iters}
	}
}

func cgChecksum(t *testing.T, res Result) float64 {
	t.Helper()
	if len(res.CompletedApps) == 0 {
		t.Fatal("no completed apps")
	}
	app, ok := res.CompletedApps[0].(*apps.CG)
	if !ok {
		t.Fatalf("unexpected app type %T", res.CompletedApps[0])
	}
	return app.Checksum
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Ranks: 0, Degree: 1},
		{Ranks: 2, Degree: 0.5},
		{Ranks: 2, Degree: 1, StepInterval: -1},
		{Ranks: 2, Degree: 1, MaxRestarts: -1},
	}
	for i, cfg := range bad {
		if _, err := Run(cfg, func() apps.App { return &apps.TaskFarm{Tasks: 1} }); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	if _, err := Run(Config{Ranks: 2, Degree: 1}, nil); err == nil {
		t.Error("nil factory accepted")
	}
}

func TestFailureFreeRunAllDegrees(t *testing.T) {
	factory := cgFactory(t, 6, 30)
	var base float64
	for _, degree := range []float64{1, 1.5, 2, 2.5, 3} {
		res, err := Run(Config{
			Ranks:          4,
			Degree:         degree,
			AttemptTimeout: time.Minute,
		}, factory)
		if err != nil {
			t.Fatalf("degree %v: %v", degree, err)
		}
		if !res.Completed || res.Restarts != 0 || res.TotalFailures != 0 {
			t.Fatalf("degree %v: %+v", degree, res)
		}
		sum := cgChecksum(t, res)
		if degree == 1 {
			base = sum
		} else if sum != base {
			t.Fatalf("degree %v checksum %v != 1x %v", degree, sum, base)
		}
		// N_total per Eq. 8.
		part := mustPartition(t, 4, degree)
		if res.PhysicalRanks != part {
			t.Fatalf("degree %v physical ranks %d, want %d", degree, res.PhysicalRanks, part)
		}
	}
}

func mustPartition(t *testing.T, n int, degree float64) int {
	t.Helper()
	m, err := redundancy.NewRankMap(n, degree)
	if err != nil {
		t.Fatal(err)
	}
	return m.PhysicalSize()
}

func TestReplicaDeathToleratedWithoutRestart(t *testing.T) {
	// Kill one replica of virtual rank 1 early: with 2x redundancy the
	// job must complete on the first attempt with zero restarts.
	m, err := redundancy.NewRankMap(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	sphere1, err := m.Sphere(1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		Ranks:  4,
		Degree: 2,
		FailureSchedule: []failure.Kill{
			{Rank: sphere1[0], After: time.Millisecond},
		},
		MaxRestarts:    3,
		AttemptTimeout: time.Minute,
	}, cgFactory(t, 6, 200))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("not completed: %+v", res)
	}
	if res.Restarts != 0 {
		t.Fatalf("restarts = %d, want 0 (replica death is not job failure)", res.Restarts)
	}
	if res.TotalFailures != 1 {
		t.Fatalf("failures = %d, want 1", res.TotalFailures)
	}
}

func TestSphereDeathTriggersRestartFromCheckpoint(t *testing.T) {
	// At 1x, any failure kills the job. Checkpoint every 20 steps, kill
	// rank 1 after the job has had time to checkpoint, and verify it
	// restarts, restores, and still produces the correct answer.
	store := checkpoint.NewMemStorage()
	res, err := Run(Config{
		Ranks:        4,
		Degree:       1,
		Storage:      store,
		StepInterval: 20,
		FailureSchedule: []failure.Kill{
			// ≈3 checkpoints land before the kill; ≈40% of the work
			// remains after it, so the run cannot finish first.
			{Rank: 1, After: 250 * time.Millisecond},
		},
		MaxRestarts:    3,
		AttemptTimeout: time.Minute,
		ComputeDelay:   3 * time.Millisecond, // stretch the run past the kill
	}, cgFactory(t, 6, 150))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("not completed: %+v", res)
	}
	if res.Restarts == 0 {
		t.Fatal("expected at least one restart")
	}
	if !res.Attempts[len(res.Attempts)-1].Restored {
		t.Fatal("final attempt did not restore from checkpoint")
	}
	// The answer survives the crash-restart cycle.
	clean, err := Run(Config{Ranks: 4, Degree: 1, AttemptTimeout: time.Minute},
		cgFactory(t, 6, 150))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := cgChecksum(t, res), cgChecksum(t, clean); got != want {
		t.Fatalf("checksum after restart %v, want %v", got, want)
	}
}

func TestRestartsExhausted(t *testing.T) {
	// Kill rank 0 instantly on every attempt with no redundancy: the run
	// must give up after MaxRestarts+1 attempts.
	res, err := Run(Config{
		Ranks:  2,
		Degree: 1,
		FailureSchedule: []failure.Kill{
			{Rank: 0, After: 0},
		},
		MaxRestarts:    2,
		AttemptTimeout: time.Minute,
		ComputeDelay:   5 * time.Millisecond,
	}, cgFactory(t, 5, 500))
	if !errors.Is(err, ErrRestartsExhausted) {
		t.Fatalf("err = %v, want ErrRestartsExhausted", err)
	}
	if len(res.Attempts) != 3 {
		t.Fatalf("attempts = %d, want 3", len(res.Attempts))
	}
	for _, at := range res.Attempts {
		if !at.JobFailed {
			t.Fatalf("attempt %d not marked failed: %+v", at.Index, at)
		}
	}
}

func TestAttemptWithNoCompletedAppFails(t *testing.T) {
	// Every rank is dead before its driver starts, and no injector exists
	// to report a sphere exhaustion: all drivers exit as casualties. Such
	// an attempt is a job failure, never a success with no app.
	res, err := Run(Config{
		Ranks:          2,
		Degree:         1,
		MaxRestarts:    1,
		AttemptTimeout: time.Minute,
		Transport: func(n int, opts ...mpi.Option) (mpi.Transport, error) {
			w, err := simmpi.NewWorld(n, opts...)
			if err != nil {
				return nil, err
			}
			for p := 0; p < n; p++ {
				w.Kill(p)
			}
			return w, nil
		},
	}, cgFactory(t, 5, 50))
	if !errors.Is(err, ErrRestartsExhausted) {
		t.Fatalf("err = %v, want ErrRestartsExhausted", err)
	}
	if res.Completed || len(res.CompletedApps) != 0 {
		t.Fatalf("completed = %v with %d apps", res.Completed, len(res.CompletedApps))
	}
	for _, at := range res.Attempts {
		if !at.JobFailed {
			t.Fatalf("attempt %d not marked failed: %+v", at.Index, at)
		}
	}
}

func TestDualRedundancySurvivesWhatKills1x(t *testing.T) {
	// The same failure schedule (kill physical rank 1 early) aborts a 1x
	// job but leaves a 2x job untouched — the paper's core claim at
	// miniature scale. At 2x, physical rank 1 is a replica of virtual 0.
	schedule := []failure.Kill{{Rank: 1, After: 10 * time.Millisecond}}
	factory := cgFactory(t, 6, 300)

	res1x, err := Run(Config{
		Ranks:           2,
		Degree:          1,
		FailureSchedule: schedule,
		MaxRestarts:     0,
		AttemptTimeout:  time.Minute,
		ComputeDelay:    time.Millisecond,
	}, factory)
	if !errors.Is(err, ErrRestartsExhausted) {
		t.Fatalf("1x should die with no restart budget, err = %v", err)
	}
	if res1x.Completed {
		t.Fatal("1x completed despite fatal failure")
	}

	res2x, err := Run(Config{
		Ranks:           2,
		Degree:          2,
		FailureSchedule: schedule,
		MaxRestarts:     0,
		AttemptTimeout:  time.Minute,
		ComputeDelay:    time.Millisecond,
	}, factory)
	if err != nil {
		t.Fatalf("2x: %v", err)
	}
	if !res2x.Completed || res2x.Restarts != 0 {
		t.Fatalf("2x result %+v", res2x)
	}
}

func TestPoissonInjectionRuns(t *testing.T) {
	// Random injection with a generous MTBF and ample redundancy: the job
	// completes (possibly with restarts) and counts failures.
	store := checkpoint.NewMemStorage()
	res, err := Run(Config{
		Ranks:          4,
		Degree:         3,
		Storage:        store,
		StepInterval:   10,
		NodeMTBF:       5 * time.Second,
		Seed:           42,
		MaxRestarts:    10,
		AttemptTimeout: time.Minute,
		ComputeDelay:   time.Millisecond,
	}, cgFactory(t, 6, 100))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("not completed: %+v", res)
	}
}

func TestCheckpointsHappen(t *testing.T) {
	res, err := Run(Config{
		Ranks:          3,
		Degree:         2,
		StepInterval:   10,
		AttemptTimeout: time.Minute,
	}, cgFactory(t, 6, 35))
	if err != nil {
		t.Fatal(err)
	}
	// 35 iterations at interval 10 → checkpoints at 10, 20, 30.
	if res.TotalCheckpoints != 3 {
		t.Fatalf("checkpoints = %d, want 3", res.TotalCheckpoints)
	}
}

func TestRedundancyStatsAggregated(t *testing.T) {
	res, err := Run(Config{
		Ranks:          2,
		Degree:         2,
		AttemptTimeout: time.Minute,
	}, cgFactory(t, 5, 10))
	if err != nil {
		t.Fatal(err)
	}
	if res.Redundancy.PhysicalSends == 0 || res.Redundancy.Deliveries == 0 {
		t.Fatalf("stats %+v", res.Redundancy)
	}
	if res.Redundancy.Mismatches != 0 {
		t.Fatalf("clean run recorded mismatches: %+v", res.Redundancy)
	}
}

func TestTaskFarmUnderRunner(t *testing.T) {
	// Wildcard-receive workload end to end through the runner.
	res, err := Run(Config{
		Ranks:          4,
		Degree:         2,
		AttemptTimeout: time.Minute,
	}, func() apps.App { return &apps.TaskFarm{Tasks: 30} })
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("%+v", res)
	}
	var want int64
	for task := 0; task < 30; task++ {
		v := int64(task)
		want += v*v%9973 + v
	}
	for _, a := range res.CompletedApps {
		if got := a.(*apps.TaskFarm).Total; got != want {
			t.Fatalf("total %d, want %d", got, want)
		}
	}
}

func TestStencilUnderRunnerWithFailure(t *testing.T) {
	store := checkpoint.NewMemStorage()
	factory := func() apps.App {
		return &apps.Stencil{Width: 8, Height: 12, Iterations: 60, HotBoundary: 10}
	}
	clean, err := Run(Config{Ranks: 3, Degree: 1, AttemptTimeout: time.Minute}, factory)
	if err != nil {
		t.Fatal(err)
	}
	wantHeat := clean.CompletedApps[0].(*apps.Stencil).Heat

	res, err := Run(Config{
		Ranks:        3,
		Degree:       1,
		Storage:      store,
		StepInterval: 15,
		FailureSchedule: []failure.Kill{
			{Rank: 2, After: 150 * time.Millisecond},
		},
		MaxRestarts:    3,
		AttemptTimeout: time.Minute,
		ComputeDelay:   5 * time.Millisecond,
	}, factory)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || res.Restarts == 0 {
		t.Fatalf("%+v", res)
	}
	if got := res.CompletedApps[0].(*apps.Stencil).Heat; got != wantHeat {
		t.Fatalf("heat %v, want %v", got, wantHeat)
	}
}

func TestSendDelayDilatesRuntimeWithDegree(t *testing.T) {
	// Eq. 1 made physical: with per-message latency, the failure-free
	// runtime grows with the redundancy degree (Table 5's phenomenon).
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	factory := func() apps.App { return &apps.Stencil{Width: 6, Height: 8, Iterations: 30, HotBoundary: 1} }
	elapsed := map[float64]time.Duration{}
	for _, degree := range []float64{1, 3} {
		res, err := Run(Config{
			Ranks:          4,
			Degree:         degree,
			SendDelay:      200 * time.Microsecond,
			AttemptTimeout: time.Minute,
		}, factory)
		if err != nil {
			t.Fatalf("degree %v: %v", degree, err)
		}
		elapsed[degree] = res.Elapsed
	}
	if elapsed[3] <= elapsed[1] {
		t.Fatalf("runtime did not dilate with redundancy: 1x=%v 3x=%v",
			elapsed[1], elapsed[3])
	}
}

func TestAttemptTimeout(t *testing.T) {
	// An app that blocks forever must be reaped by the watchdog.
	res, err := Run(Config{
		Ranks:          2,
		Degree:         1,
		AttemptTimeout: 100 * time.Millisecond,
	}, func() apps.App { return blockingApp{} })
	if !errors.Is(err, ErrAttemptTimeout) {
		t.Fatalf("err = %v, want ErrAttemptTimeout", err)
	}
	if res.Completed {
		t.Fatal("completed?")
	}
}

// blockingApp waits for a message that never comes.
type blockingApp struct{}

func (blockingApp) Name() string { return "blocker" }

func (blockingApp) Run(ctx *apps.Context) error {
	if ctx.Comm.Rank() == 0 {
		_, err := ctx.Comm.Recv(1, 99)
		return err
	}
	_, err := ctx.Comm.Recv(0, 99)
	return err
}

func TestAppErrorIsFatal(t *testing.T) {
	boom := fmt.Errorf("genuine bug")
	_, err := Run(Config{
		Ranks:          2,
		Degree:         2,
		AttemptTimeout: time.Minute,
	}, func() apps.App { return errorApp{err: boom} })
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped app error", err)
	}
}

type errorApp struct{ err error }

func (errorApp) Name() string              { return "error" }
func (e errorApp) Run(*apps.Context) error { return e.err }

func TestNodeHoursAccounting(t *testing.T) {
	res, err := Run(Config{
		Ranks:          4,
		Degree:         2.5,
		AttemptTimeout: time.Minute,
	}, cgFactory(t, 5, 10))
	if err != nil {
		t.Fatal(err)
	}
	// 4 ranks at 2.5x → 10 physical (Eq. 8 with even split 2/2 → 2·2+2·3).
	if res.PhysicalRanks != 10 {
		t.Fatalf("physical ranks %d, want 10", res.PhysicalRanks)
	}
	if math.IsNaN(res.Elapsed.Seconds()) || res.Elapsed <= 0 {
		t.Fatalf("elapsed %v", res.Elapsed)
	}
}
