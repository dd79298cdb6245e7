package core

import (
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/obs"
)

func counterValue(t *testing.T, snap obs.Snapshot, name string) uint64 {
	t.Helper()
	for _, c := range snap.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// peerConfig is the shared fixture for the recovery tests: CG at dual
// redundancy with frequent peer checkpoints (every 5 steps) and sparse
// stable ones (every 4th generation: steps 5, 25, 45). Killing the
// whole sphere of virtual rank 2 (physical ranks 4 and 5) at step 38
// therefore costs 3 recomputed steps per rank with partial restart
// (rollback to the peer generation at step 35) versus 13 with a full
// restart (rollback to the stable generation at step 25).
func peerConfig(partial bool) Config {
	return Config{
		Ranks:               4,
		Degree:              2,
		StepInterval:        5,
		PeerDataShards:      1,
		PeerParityShards:    1,
		StableEvery:         4,
		PartialRestart:      partial,
		PartialRestartLimit: 2,
		StepKills:           []StepKill{{Step: 38, Rank: 4}, {Step: 38, Rank: 5}},
		MaxRestarts:         3,
		AttemptTimeout:      time.Minute,
		ComputeDelay:        200 * time.Microsecond,
	}
}

func cleanChecksum(t *testing.T, factory func() apps.App) float64 {
	t.Helper()
	clean, err := Run(Config{Ranks: 4, Degree: 1, AttemptTimeout: time.Minute}, factory)
	if err != nil {
		t.Fatal(err)
	}
	return cgChecksum(t, clean)
}

func TestPartialRestartRecoversInPlace(t *testing.T) {
	factory := cgFactory(t, 6, 60)
	want := cleanChecksum(t, factory)

	res, err := Run(peerConfig(true), factory)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("job did not complete")
	}
	if got := cgChecksum(t, res); got != want {
		t.Fatalf("checksum after partial restart = %v, want %v", got, want)
	}
	if res.Restarts != 0 {
		t.Fatalf("Restarts = %d; the sphere death should have been absorbed in place", res.Restarts)
	}
	if res.PartialRestarts != 1 {
		t.Fatalf("PartialRestarts = %d, want 1", res.PartialRestarts)
	}
	if res.TotalFailures != 2 {
		t.Fatalf("TotalFailures = %d, want 2", res.TotalFailures)
	}
	// The kill lands once every rank has finished step 38, so each of
	// the 4 virtual ranks redoes exactly steps 36-38.
	if res.RecomputedSteps != 4*(38-35) {
		t.Fatalf("RecomputedSteps = %d, want %d: every rank rolls back from step 38 to 35",
			res.RecomputedSteps, 4*(38-35))
	}
	if got := counterValue(t, res.Metrics, "partial_restarts_total"); got != 1 {
		t.Errorf("partial_restarts_total = %d, want 1", got)
	}
	if got := counterValue(t, res.Metrics, "peerstore_replicas_total"); got == 0 {
		t.Error("no buddy replication happened")
	}
	// The revived ranks lost their memory and must have fetched their
	// sphere's image from a peer over messages.
	if got := counterValue(t, res.Metrics, "peer_fetch_remote_total"); got == 0 {
		t.Error("no remote peer fetch recorded for the revived ranks")
	}
	if got := counterValue(t, res.Metrics, "simmpi_revives_total"); got != 2 {
		t.Errorf("simmpi_revives_total = %d, want 2", got)
	}
}

// TestPartialBeatsFullRestartOnRecomputedWork is the acceptance test for
// the PR: on the same deterministic kill schedule, sphere-local restart
// from the peer tier strictly recomputes less work than a full restart
// from the (sparser) stable tier, and both converge to the clean answer.
func TestPartialBeatsFullRestartOnRecomputedWork(t *testing.T) {
	factory := cgFactory(t, 6, 60)
	want := cleanChecksum(t, factory)

	partial, err := Run(peerConfig(true), factory)
	if err != nil {
		t.Fatalf("partial-restart run: %v", err)
	}
	full, err := Run(peerConfig(false), factory)
	if err != nil {
		t.Fatalf("full-restart run: %v", err)
	}

	for name, res := range map[string]Result{"partial": partial, "full": full} {
		if !res.Completed {
			t.Fatalf("%s run did not complete", name)
		}
		if got := cgChecksum(t, res); got != want {
			t.Fatalf("%s run checksum = %v, want %v", name, got, want)
		}
	}
	if full.Restarts != 1 || full.PartialRestarts != 0 {
		t.Fatalf("full run: Restarts = %d, PartialRestarts = %d; want 1, 0",
			full.Restarts, full.PartialRestarts)
	}
	if partial.Restarts != 0 || partial.PartialRestarts != 1 {
		t.Fatalf("partial run: Restarts = %d, PartialRestarts = %d; want 0, 1",
			partial.Restarts, partial.PartialRestarts)
	}
	if partial.RecomputedSteps == 0 || full.RecomputedSteps == 0 {
		t.Fatalf("both strategies recompute something: partial=%d full=%d",
			partial.RecomputedSteps, full.RecomputedSteps)
	}
	if partial.RecomputedSteps >= full.RecomputedSteps {
		t.Fatalf("partial restart recomputed %d steps, full restart %d; partial must be strictly cheaper",
			partial.RecomputedSteps, full.RecomputedSteps)
	}
	t.Logf("recomputed steps: partial=%d full=%d", partial.RecomputedSteps, full.RecomputedSteps)
}

// TestPeerExhaustionFallsBackToFullRestart kills a sphere AND the buddy
// holding its image: no usable peer generation remains, so the
// orchestrator must deterministically fall back to a full coordinated
// restart from stable storage — and still finish correctly.
func TestPeerExhaustionFallsBackToFullRestart(t *testing.T) {
	factory := cgFactory(t, 6, 60)
	want := cleanChecksum(t, factory)

	cfg := peerConfig(true)
	// Rank 6 is sphere 3's writer replica — and, with a 1+1 layout, the
	// only buddy holding sphere 2's image. Killing 4, 5, and 6 leaves no
	// live holder for virtual rank 2.
	cfg.StepKills = append(cfg.StepKills, StepKill{Step: 38, Rank: 6})
	res, err := Run(cfg, factory)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("job did not complete")
	}
	if got := cgChecksum(t, res); got != want {
		t.Fatalf("checksum = %v, want %v", got, want)
	}
	if res.PartialRestarts != 0 {
		t.Fatalf("PartialRestarts = %d; recovery must not be attempted without a usable generation", res.PartialRestarts)
	}
	if res.Restarts != 1 {
		t.Fatalf("Restarts = %d, want exactly 1 full restart", res.Restarts)
	}
	if got := counterValue(t, res.Metrics, "partial_fallbacks_total"); got == 0 {
		t.Error("fallback not recorded in partial_fallbacks_total")
	}
	if got := counterValue(t, res.Metrics, "partial_restarts_total"); got != 0 {
		t.Errorf("partial_restarts_total = %d, want 0", got)
	}
}

func TestPeerTierCleanRunIsTransparent(t *testing.T) {
	factory := cgFactory(t, 6, 60)
	want := cleanChecksum(t, factory)
	cfg := peerConfig(true)
	cfg.StepKills = nil
	res, err := Run(cfg, factory)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || res.Restarts != 0 || res.PartialRestarts != 0 {
		t.Fatalf("clean run: completed=%v restarts=%d partials=%d",
			res.Completed, res.Restarts, res.PartialRestarts)
	}
	if got := cgChecksum(t, res); got != want {
		t.Fatalf("checksum = %v, want %v", got, want)
	}
	if res.RecomputedSteps != 0 {
		t.Fatalf("RecomputedSteps = %d in a failure-free run", res.RecomputedSteps)
	}
}

func TestPartialRestartConfigValidation(t *testing.T) {
	factory := func() apps.App { return &apps.TaskFarm{Tasks: 1} }
	bad := []Config{
		{Ranks: 2, Degree: 1, StableEvery: -1},
		{Ranks: 2, Degree: 1, StableEvery: 4},                                                           // stable cadence without a peer tier
		{Ranks: 2, Degree: 1, PartialRestart: true},                                                     // partial restart without a peer tier
		{Ranks: 2, Degree: 1, PartialRestart: true, PeerDataShards: 1, PeerParityShards: 1},             // ... without checkpointing
		{Ranks: 2, Degree: 1, StepKills: []StepKill{{Step: 0, Rank: 0}}},                                // step kills are 1-based
		{Ranks: 2, Degree: 1, StepKills: []StepKill{{Step: 1, Rank: -1}}},                               // negative rank
		{Ranks: 2, Degree: 1, StepInterval: 5, PeerDataShards: 1, PeerParityShards: 1, StableEvery: -2}, // negative cadence
		{Ranks: 2, Degree: 1, PeerDataShards: -1},                                                       // negative shard counts
		{Ranks: 2, Degree: 1, PeerParityShards: -1},
		{Ranks: 2, Degree: 2, StepInterval: 5, PeerDataShards: 2},                                           // data shards without parity
		{Ranks: 2, Degree: 2, StepInterval: 5, PeerParityShards: 1},                                         // parity without data shards
		{Ranks: 2, Degree: 2, StepInterval: 5, PeerDataShards: 1, PeerParityShards: 2},                      // 1+2 shards over 2 spheres
		{Ranks: 2, Degree: 1, StepInterval: 5, PeerBudgetBytes: 1 << 20},                                    // budget without a peer tier
		{Ranks: 2, Degree: 2, StepInterval: 5, PeerDataShards: 2, PeerParityShards: 1, PeerBudgetBytes: -1}, // negative budget
	}
	for i, cfg := range bad {
		if _, err := Run(cfg, factory); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, cfg)
		}
	}
	// Full copies are the k=1 layout, not a rejected code; PartialRestart
	// and StableEvery gate on any k+m peer tier alike.
	for _, good := range []Config{
		{Ranks: 2, Degree: 2, StepInterval: 5, PeerDataShards: 1, PeerParityShards: 1},
		{Ranks: 4, Degree: 2, StepInterval: 5, StableEvery: 4, PartialRestart: true,
			PeerDataShards: 2, PeerParityShards: 1, PeerBudgetBytes: 1 << 20},
	} {
		if _, err := Run(good, factory); err != nil {
			t.Errorf("peer tier config %d+%d rejected: %v", good.PeerDataShards, good.PeerParityShards, err)
		}
	}
}
