package core

import (
	"errors"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/checkpoint"
	"repro/internal/failure"
	"repro/internal/redundancy"
)

// TestChaosManySeeds hammers the full stack: CG at partial redundancy
// with random Poisson kills across many seeds. Every run must either
// complete with the right answer or exhaust its restart budget cleanly —
// never deadlock, never return a wrong result, never surface a transport
// error as an application error.
func TestChaosManySeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos sweep is slow")
	}
	m, err := apps.Laplacian2D(6)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := Run(Config{Ranks: 4, Degree: 1, AttemptTimeout: time.Minute},
		func() apps.App { return &apps.CG{Matrix: m, Iterations: 60} })
	if err != nil {
		t.Fatal(err)
	}
	want := cgChecksum(t, clean)

	completed, exhausted := 0, 0
	for seed := int64(0); seed < 12; seed++ {
		for _, degree := range []float64{1, 1.5, 2} {
			res, err := Run(Config{
				Ranks:          4,
				Degree:         degree,
				StepInterval:   15,
				NodeMTBF:       800 * time.Millisecond,
				Seed:           seed,
				MaxRestarts:    6,
				AttemptTimeout: 30 * time.Second,
				ComputeDelay:   500 * time.Microsecond,
			}, func() apps.App { return &apps.CG{Matrix: m, Iterations: 60} })
			switch {
			case err == nil:
				completed++
				if !res.Completed {
					t.Fatalf("seed %d r=%v: nil error but not completed", seed, degree)
				}
				if got := cgChecksum(t, res); got != want {
					t.Fatalf("seed %d r=%v: checksum %v, want %v", seed, degree, got, want)
				}
			case errors.Is(err, ErrRestartsExhausted):
				exhausted++
			default:
				t.Fatalf("seed %d r=%v: unexpected error %v", seed, degree, err)
			}
		}
	}
	t.Logf("chaos: %d completed, %d exhausted restarts", completed, exhausted)
	if completed == 0 {
		t.Fatal("no chaos run ever completed; MTBF too harsh for the suite to mean anything")
	}
}

// TestChaosRedundancyImprovesSurvival verifies the paper's core premise
// end to end: with the same failure environment and no restart budget,
// dual redundancy completes far more often than no redundancy.
func TestChaosRedundancyImprovesSurvival(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos sweep is slow")
	}
	m, err := apps.Laplacian2D(6)
	if err != nil {
		t.Fatal(err)
	}
	survive := func(degree float64) int {
		wins := 0
		for seed := int64(100); seed < 120; seed++ {
			_, err := Run(Config{
				Ranks:          4,
				Degree:         degree,
				NodeMTBF:       1200 * time.Millisecond,
				Seed:           seed,
				MaxRestarts:    0,
				AttemptTimeout: 30 * time.Second,
				ComputeDelay:   500 * time.Microsecond,
			}, func() apps.App { return &apps.CG{Matrix: m, Iterations: 50} })
			if err == nil {
				wins++
			}
		}
		return wins
	}
	w1, w2 := survive(1), survive(2)
	t.Logf("survival out of 20: 1x=%d, 2x=%d", w1, w2)
	if w2 <= w1 {
		t.Fatalf("2x survived %d runs vs 1x's %d; redundancy not helping", w2, w1)
	}
}

// TestMsgPlusHashThroughRunner exercises the hash comparison mode across
// the full stack (failure-free, its supported regime).
func TestMsgPlusHashThroughRunner(t *testing.T) {
	m, err := apps.Laplacian2D(6)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		Ranks:          4,
		Degree:         3,
		Mode:           redundancy.MsgPlusHash,
		StepInterval:   10,
		AttemptTimeout: time.Minute,
	}, func() apps.App { return &apps.CG{Matrix: m, Iterations: 30} })
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || res.Redundancy.Mismatches != 0 {
		t.Fatalf("%+v", res)
	}
	clean, err := Run(Config{Ranks: 4, Degree: 1, AttemptTimeout: time.Minute},
		func() apps.App { return &apps.CG{Matrix: m, Iterations: 30} })
	if err != nil {
		t.Fatal(err)
	}
	if cgChecksum(t, res) != cgChecksum(t, clean) {
		t.Fatal("hash-mode checksum differs from plain run")
	}
}

// TestRunnerWithFileStorageAcrossRestart uses the file-backed store so a
// restart reads images through the full tmp+rename+COMMIT path.
func TestRunnerWithFileStorageAcrossRestart(t *testing.T) {
	store, err := checkpoint.NewFileStorage(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m, err := apps.Laplacian2D(6)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		Ranks:           3,
		Degree:          1,
		Storage:         store,
		StepInterval:    15,
		FailureSchedule: []failure.Kill{{Rank: 2, After: 200 * time.Millisecond}},
		MaxRestarts:     4,
		AttemptTimeout:  time.Minute,
		ComputeDelay:    3 * time.Millisecond,
	}, func() apps.App { return &apps.CG{Matrix: m, Iterations: 120} })
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || res.Restarts == 0 {
		t.Fatalf("%+v", res)
	}
	if !res.Attempts[len(res.Attempts)-1].Restored {
		t.Fatal("restart did not restore from file storage")
	}
}

// TestRunnerWithCompressedStorage verifies the compression middleware end
// to end under the runner.
func TestRunnerWithCompressedStorage(t *testing.T) {
	store := checkpoint.NewCompressedStorage(checkpoint.NewMemStorage())
	m, err := apps.Laplacian2D(6)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		Ranks:        3,
		Degree:       2,
		Storage:      store,
		StepInterval: 10,
		// Both replicas of virtual rank 0 die → job failure → restart.
		FailureSchedule: []failure.Kill{
			{Rank: 0, After: 150 * time.Millisecond},
			{Rank: 3, After: 160 * time.Millisecond},
		},
		MaxRestarts:    4,
		AttemptTimeout: time.Minute,
		ComputeDelay:   3 * time.Millisecond,
	}, func() apps.App { return &apps.CG{Matrix: m, Iterations: 100} })
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("%+v", res)
	}
}

// TestPartialDegreeUnderFire runs 1.5x with a kill aimed at an
// unreplicated rank: job failure and restart; and a kill aimed at a
// replicated rank: tolerated.
func TestPartialDegreeUnderFire(t *testing.T) {
	rm, err := redundancy.NewRankMap(4, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	// At 1.5x on 4 ranks, even virtual ranks are duplicated.
	dup, err := rm.Sphere(0)
	if err != nil {
		t.Fatal(err)
	}
	single, err := rm.Sphere(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(dup) != 2 || len(single) != 1 {
		t.Fatalf("unexpected spheres %v %v", dup, single)
	}
	m, err := apps.Laplacian2D(6)
	if err != nil {
		t.Fatal(err)
	}
	factory := func() apps.App { return &apps.CG{Matrix: m, Iterations: 150} }
	want := cleanChecksum(t, factory)

	// Both jobs' kills are pinned to steps, so neither races the
	// detector's speed: a replica death is masked by its twin, and each
	// death of the unreplicated rank costs exactly one restart from the
	// last checkpoint (every 20 steps).
	tolerated, err := Run(Config{
		Ranks: 4, Degree: 1.5,
		StepKills:      []StepKill{{Step: 60, Rank: dup[1]}},
		MaxRestarts:    0,
		AttemptTimeout: time.Minute,
		ComputeDelay:   time.Millisecond,
	}, factory)
	if err != nil {
		t.Fatalf("replica kill at 1.5x should be tolerated: %v", err)
	}
	if tolerated.Restarts != 0 {
		t.Fatalf("tolerated run restarted: %+v", tolerated)
	}
	if got := cgChecksum(t, tolerated); got != want {
		t.Fatalf("tolerated run's checksum = %v, want the failure-free %v", got, want)
	}

	res, err := Run(Config{
		Ranks: 4, Degree: 1.5,
		Storage:        checkpoint.NewMemStorage(),
		StepInterval:   20,
		StepKills:      []StepKill{{Step: 50, Rank: single[0]}, {Step: 110, Rank: single[0]}},
		MaxRestarts:    3,
		AttemptTimeout: time.Minute,
		ComputeDelay:   2 * time.Millisecond,
	}, factory)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("%+v", res)
	}
	if res.Restarts != 2 {
		t.Fatalf("Restarts = %d, want exactly 2: each kill of the unreplicated rank fails the job once", res.Restarts)
	}
	if got := cgChecksum(t, res); got != want {
		t.Fatalf("checksum after two restarts = %v, want the failure-free %v", got, want)
	}
}
