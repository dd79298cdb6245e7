package core

import (
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/obs"
)

// expectedFarmTotal mirrors the task farm's work function.
func expectedFarmTotal(tasks int) int64 {
	var total int64
	for t := 0; t < tasks; t++ {
		v := int64(t)
		total += v*v%9973 + v
	}
	return total
}

// TestShrinkTaskFarmSurvivesKill kills a worker mid-farm and requires
// the job to complete by shrinking — no restart, no restore, and the
// exact aggregate despite the requeued in-flight task.
func TestShrinkTaskFarmSurvivesKill(t *testing.T) {
	t.Parallel()
	const tasks = 40
	reg := obs.NewRegistry()
	res, err := Run(Config{
		Ranks:          6,
		Degree:         1,
		RecoveryPolicy: RecoverShrink,
		StepKills:      []StepKill{{Step: 5, Rank: 3}},
		AttemptTimeout: 30 * time.Second,
		Obs:            reg,
	}, func() apps.App { return &apps.TaskFarm{Tasks: tasks} })
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Completed {
		t.Fatal("job did not complete")
	}
	if res.Restarts != 0 {
		t.Fatalf("Restarts = %d, want 0", res.Restarts)
	}
	if res.ShrinkEpisodes == 0 {
		t.Fatal("no shrink episodes recorded for a sphere-killing failure")
	}
	if res.TotalFailures == 0 {
		t.Fatal("the step kill never fired")
	}
	want := expectedFarmTotal(tasks)
	if len(res.CompletedApps) == 0 {
		t.Fatal("no completed apps")
	}
	for _, app := range res.CompletedApps {
		tf := app.(*apps.TaskFarm)
		if tf.Total != want {
			t.Fatalf("Total = %d, want %d", tf.Total, want)
		}
	}
	snap := res.Metrics
	if got := snap.Counter("shrink_episodes_total"); got == 0 {
		t.Fatal("shrink_episodes_total = 0")
	}
	if got := snap.Counter("checkpoint_restores_total"); got != 0 {
		t.Fatalf("checkpoint_restores_total = %d, want 0", got)
	}
	if got := snap.Counter("runner_restarts_total"); got != 0 {
		t.Fatalf("runner_restarts_total = %d, want 0", got)
	}
}

// TestShrinkStencilSurvivesKill kills an interior rank mid-stencil; the
// survivors must re-decompose the grid and run the remaining iterations
// to completion with a finite heat sum.
func TestShrinkStencilSurvivesKill(t *testing.T) {
	t.Parallel()
	res, err := Run(Config{
		Ranks:          4,
		Degree:         1,
		RecoveryPolicy: RecoverShrink,
		StepKills:      []StepKill{{Step: 6, Rank: 2}},
		AttemptTimeout: 30 * time.Second,
	}, func() apps.App {
		return &apps.Stencil{Width: 14, Height: 14, Iterations: 25, HotBoundary: 1}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Completed {
		t.Fatal("job did not complete")
	}
	if res.ShrinkEpisodes == 0 {
		t.Fatal("no shrink episodes recorded")
	}
	if len(res.CompletedApps) == 0 {
		t.Fatal("no completed apps")
	}
	heat := res.CompletedApps[0].(*apps.Stencil).Heat
	if heat <= 0 {
		t.Fatalf("Heat = %v, want > 0", heat)
	}
	for _, app := range res.CompletedApps {
		if h := app.(*apps.Stencil).Heat; h != heat {
			t.Fatalf("survivors disagree on heat: %v vs %v", h, heat)
		}
	}
}

// TestShrinkRedundantFarmSurvivesSphereKill runs the farm at degree 2
// and kills both replicas of a worker's sphere: the first death is
// masked by redundancy, the second exhausts the sphere, and the job
// must shrink the virtual world and still complete exactly.
func TestShrinkRedundantFarmSurvivesSphereKill(t *testing.T) {
	t.Parallel()
	const tasks = 30
	res, err := Run(Config{
		Ranks:          3,
		Degree:         2,
		RecoveryPolicy: RecoverShrink,
		StepKills:      []StepKill{{Step: 3, Rank: 2}, {Step: 6, Rank: 3}},
		AttemptTimeout: 30 * time.Second,
	}, func() apps.App { return &apps.TaskFarm{Tasks: tasks} })
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Completed {
		t.Fatal("job did not complete")
	}
	if res.ShrinkEpisodes == 0 {
		t.Fatal("sphere exhaustion was not recorded as a shrink episode")
	}
	want := expectedFarmTotal(tasks)
	for _, app := range res.CompletedApps {
		if tf := app.(*apps.TaskFarm); tf.Total != want {
			t.Fatalf("Total = %d, want %d", tf.Total, want)
		}
	}
}

// TestShrinkStencilNoFailure pins the no-failure case: under the shrink
// policy with nothing killed, the stencil must produce the same heat as
// the restart-policy run (the policies differ only under failure).
func TestShrinkStencilNoFailure(t *testing.T) {
	t.Parallel()
	factory := func() apps.App {
		return &apps.Stencil{Width: 10, Height: 10, Iterations: 12, HotBoundary: 2}
	}
	base, err := Run(Config{Ranks: 3, Degree: 1, AttemptTimeout: 30 * time.Second}, factory)
	if err != nil {
		t.Fatalf("restart-policy run: %v", err)
	}
	shr, err := Run(Config{
		Ranks: 3, Degree: 1,
		RecoveryPolicy: RecoverShrink,
		AttemptTimeout: 30 * time.Second,
	}, factory)
	if err != nil {
		t.Fatalf("shrink-policy run: %v", err)
	}
	bh := base.CompletedApps[0].(*apps.Stencil).Heat
	sh := shr.CompletedApps[0].(*apps.Stencil).Heat
	if bh != sh {
		t.Fatalf("no-failure heat differs: restart %v, shrink %v", bh, sh)
	}
	if shr.ShrinkEpisodes != 0 {
		t.Fatalf("ShrinkEpisodes = %d without failures", shr.ShrinkEpisodes)
	}
}

// TestShrinkValidate pins the configuration rules: the shrink policy
// excludes every piece of rollback machinery.
func TestShrinkValidate(t *testing.T) {
	t.Parallel()
	bad := []Config{
		{Ranks: 4, Degree: 1, RecoveryPolicy: "rewind"},
		{Ranks: 4, Degree: 1, RecoveryPolicy: RecoverShrink, StepInterval: 3},
		{Ranks: 4, Degree: 1, RecoveryPolicy: RecoverShrink, MaxRestarts: 2},
		{Ranks: 4, Degree: 1, RecoveryPolicy: RecoverShrink, PeerDataShards: 1, PeerParityShards: 1},
		{Ranks: 4, Degree: 1, RecoveryPolicy: RecoverShrink,
			PartialRestart: true, PeerDataShards: 1, PeerParityShards: 1, StepInterval: 2},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d validated, want error", i)
		}
	}
	ok := Config{Ranks: 4, Degree: 1, RecoveryPolicy: RecoverShrink}
	if err := ok.Validate(); err != nil {
		t.Errorf("minimal shrink config rejected: %v", err)
	}
	legacy := Config{Ranks: 4, Degree: 1, RecoveryPolicy: RecoverRestart, MaxRestarts: 3}
	if err := legacy.Validate(); err != nil {
		t.Errorf("explicit restart policy rejected: %v", err)
	}
}
