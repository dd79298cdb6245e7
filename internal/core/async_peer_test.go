package core

import (
	"testing"
	"time"
)

// Async checkpointing composed with the peer tier: the pipeline workers
// execute the peer store's encode + shard fan-out in the background, the
// commit-lags-one protocol defers the peer commit to the next drain
// point, and recovery promotes the newest fully-stashed generation so a
// sphere death costs no more rollback than the synchronous tier.

// erasureConfig is peerConfig's erasure-coded twin: the same CG fixture
// and kill schedule, with the four replica spheres holding k=2 data +
// m=1 parity Reed-Solomon shards instead of full buddy copies.
func erasureConfig(partial bool) Config {
	cfg := peerConfig(partial)
	cfg.PeerDataShards = 2
	cfg.PeerParityShards = 1
	return cfg
}

// TestAsyncPeerPartialRestartMatchesSync is the acceptance test for the
// async+peer composition: on the deterministic kill schedule of the
// partial-restart PR (sphere of virtual rank 2 dies at step 38), the
// async full-copy tier must absorb the death in place and recompute
// exactly as many steps as the synchronous tier — the pipeline flush +
// promote at recovery reclaims the commit-lags-one window, so async
// costs no extra rollback.
func TestAsyncPeerPartialRestartMatchesSync(t *testing.T) {
	factory := cgFactory(t, 6, 60)
	want := cleanChecksum(t, factory)

	syncRes, err := Run(peerConfig(true), factory)
	if err != nil {
		t.Fatalf("sync run: %v", err)
	}
	asyncCfg := peerConfig(true)
	asyncCfg.AsyncCheckpoint = true
	asyncRes, err := Run(asyncCfg, factory)
	if err != nil {
		t.Fatalf("async run: %v", err)
	}

	for name, res := range map[string]Result{"sync": syncRes, "async": asyncRes} {
		if !res.Completed {
			t.Fatalf("%s run did not complete", name)
		}
		if got := cgChecksum(t, res); got != want {
			t.Fatalf("%s run checksum = %v, want %v", name, got, want)
		}
		if res.Restarts != 0 || res.PartialRestarts != 1 {
			t.Fatalf("%s run: Restarts = %d, PartialRestarts = %d; want 0, 1",
				name, res.Restarts, res.PartialRestarts)
		}
	}
	if asyncRes.RecomputedSteps != syncRes.RecomputedSteps {
		t.Fatalf("async recomputed %d steps, sync %d; the commit-lags-one window must not cost a generation",
			asyncRes.RecomputedSteps, syncRes.RecomputedSteps)
	}
	t.Logf("recomputed steps: sync=%d async=%d", syncRes.RecomputedSteps, asyncRes.RecomputedSteps)
}

// TestErasurePartialRestartRecoversInPlace runs the partial-restart
// recovery scenario on the erasure-coded tier, sync and async: the dead
// sphere's state is reconstructed from surviving shards instead of a
// full buddy copy, and the job converges to the clean answer either way.
func TestErasurePartialRestartRecoversInPlace(t *testing.T) {
	factory := cgFactory(t, 6, 60)
	want := cleanChecksum(t, factory)

	for _, async := range []bool{false, true} {
		name := map[bool]string{false: "sync", true: "async"}[async]
		cfg := erasureConfig(true)
		cfg.AsyncCheckpoint = async
		res, err := Run(cfg, factory)
		if err != nil {
			t.Fatalf("%s erasure run: %v", name, err)
		}
		if !res.Completed {
			t.Fatalf("%s erasure run did not complete", name)
		}
		if got := cgChecksum(t, res); got != want {
			t.Fatalf("%s erasure checksum = %v, want %v", name, got, want)
		}
		if res.Restarts != 0 || res.PartialRestarts != 1 {
			t.Fatalf("%s erasure run: Restarts = %d, PartialRestarts = %d; want 0, 1",
				name, res.Restarts, res.PartialRestarts)
		}
		if got := counterValue(t, res.Metrics, "peerstore_replicas_total"); got == 0 {
			t.Errorf("%s erasure run: no shard fan-out recorded", name)
		}
		if got := counterValue(t, res.Metrics, "peer_fetch_remote_total"); got == 0 {
			t.Errorf("%s erasure run: revived ranks never fetched shards from peers", name)
		}
	}
}

// TestAsyncCrashDuringInFlightPeerSend mirrors the async crash test on
// the peer tier: the kill lands one step after a checkpoint, while the
// background workers may still be encoding and pushing shard frames for
// the enqueued generation. The recovery path must flush the pipeline,
// discard the settle debt owed by frames addressed to the dead ranks,
// and restore a consistent generation. Run under -race this exercises
// the worker/serve/teardown handoffs of the pooled wire path.
func TestAsyncCrashDuringInFlightPeerSend(t *testing.T) {
	factory := cgFactory(t, 6, 40)
	want := cleanChecksum(t, factory)

	cfg := Config{
		Ranks:               4,
		Degree:              2,
		StepInterval:        3,
		PeerDataShards:      2,
		PeerParityShards:    1,
		StableEvery:         4,
		PartialRestart:      true,
		PartialRestartLimit: 2,
		AsyncCheckpoint:     true,
		AsyncWorkers:        2,
		// Checkpoint at step 6 enqueues background writes; the sphere of
		// virtual rank 1 dies at step 7, racing the in-flight shard sends.
		StepKills:      []StepKill{{Step: 7, Rank: 2}, {Step: 7, Rank: 3}},
		MaxRestarts:    2,
		AttemptTimeout: time.Minute,
		ComputeDelay:   200 * time.Microsecond,
	}
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
	if res.TotalFailures != 2 {
		t.Fatalf("TotalFailures = %d, want 2", res.TotalFailures)
	}
	// The death must be absorbed — in place when the promoted generation
	// survives, or by one full restart when the crash raced the very
	// first stable write; either way the answer above already matched.
	if res.PartialRestarts == 0 && res.Restarts == 0 {
		t.Fatal("the kill was absorbed by neither a partial nor a full restart")
	}
}
