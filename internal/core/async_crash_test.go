package core

import (
	"sync"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/checkpoint"
)

// slowSpyStore wraps MemStorage with a configurable write latency and a
// log of commits and restore-reads, so tests can pin down exactly which
// generation was committed when the failure hit and which one the
// restart restored from.
type slowSpyStore struct {
	inner      *checkpoint.MemStorage
	writeDelay time.Duration

	mu           sync.Mutex
	commits      []uint64
	restoreReads []uint64
}

func newSlowSpyStore(writeDelay time.Duration) *slowSpyStore {
	return &slowSpyStore{inner: checkpoint.NewMemStorage(), writeDelay: writeDelay}
}

func (s *slowSpyStore) Write(gen uint64, rank int, state []byte) error {
	time.Sleep(s.writeDelay)
	return s.inner.Write(gen, rank, state)
}

func (s *slowSpyStore) Commit(gen uint64, n int) error {
	err := s.inner.Commit(gen, n)
	if err == nil {
		s.mu.Lock()
		if len(s.commits) == 0 || s.commits[len(s.commits)-1] != gen {
			s.commits = append(s.commits, gen)
		}
		s.mu.Unlock()
	}
	return err
}

func (s *slowSpyStore) Latest() (uint64, int, bool, error) { return s.inner.Latest() }

func (s *slowSpyStore) Read(gen uint64, rank int) ([]byte, error) {
	s.mu.Lock()
	s.restoreReads = append(s.restoreReads, gen)
	s.mu.Unlock()
	return s.inner.Read(gen, rank)
}

func (s *slowSpyStore) Drop(gen uint64) error { return s.inner.Drop(gen) }

// TestAsyncCrashDuringInFlightWriteRestoresPreviousGeneration is the
// crash-consistency acceptance test for the async pipeline: a rank is
// fail-stopped while the background write for generation g is still in
// flight (the write takes 150ms, the kill lands two near-instant steps
// after the checkpoint that enqueued it). The restart must restore
// generation g−1 — the last one a drain point committed — and the job
// must still converge to the clean answer. Run under -race, this also
// exercises the snapshot-buffer and worker/metric handoffs while a
// world is being torn down around them.
func TestAsyncCrashDuringInFlightWriteRestoresPreviousGeneration(t *testing.T) {
	factory := cgFactory(t, 6, 12)
	clean, err := Run(Config{Ranks: 2, Degree: 1, AttemptTimeout: time.Minute}, factory)
	if err != nil {
		t.Fatal(err)
	}
	want := cgChecksum(t, clean)

	spy := newSlowSpyStore(150 * time.Millisecond)
	// Checkpoints at steps 3, 6, 9, 12 → generations 0..3. The kill at
	// step 8 lands while generation 1 (enqueued at step 6) is still
	// being written; only generation 0 has passed a drain point.
	res, err := Run(Config{
		Ranks:           2,
		Degree:          1,
		Storage:         spy,
		StepInterval:    3,
		AsyncCheckpoint: true,
		AsyncWorkers:    2,
		StepKills:       []StepKill{{Step: 8, Rank: 0}},
		MaxRestarts:     2,
		AttemptTimeout:  time.Minute,
	}, factory)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("job did not complete")
	}
	if res.Restarts != 1 {
		t.Fatalf("Restarts = %d, want exactly 1 (degree 1: the kill is a job failure)", res.Restarts)
	}
	if len(res.Attempts) != 2 || !res.Attempts[1].Restored {
		t.Fatalf("attempt 1 did not restore from a checkpoint: %+v", res.Attempts)
	}
	if got := cgChecksum(t, res); got != want {
		t.Fatalf("checksum after crash-restart = %v, want %v", got, want)
	}

	spy.mu.Lock()
	commits := append([]uint64(nil), spy.commits...)
	reads := append([]uint64(nil), spy.restoreReads...)
	spy.mu.Unlock()
	// The restart must have read generation 0 — generation 1 was in
	// flight, never committed, and therefore invisible.
	if len(reads) == 0 {
		t.Fatal("no restore reads recorded")
	}
	for _, g := range reads {
		if g != 0 {
			t.Fatalf("restore read generation %d, want 0 (gen 1 was uncommitted at the crash)", g)
		}
	}
	// Commit order: gen 0 (at the step-6 drain point, before the kill),
	// then gen 1, 2 and the final drain's gen 3 from the second attempt.
	if len(commits) == 0 || commits[0] != 0 {
		t.Fatalf("commit log %v: first committed generation must be 0", commits)
	}
	if commits[len(commits)-1] != 3 {
		t.Fatalf("commit log %v: final drain must commit generation 3", commits)
	}
	// The overlap actually happened: at least one drain point found the
	// previous generation's write still in flight.
	if got := counterValue(t, res.Metrics, "checkpoint_drain_waits_total"); got == 0 {
		t.Error("checkpoint_drain_waits_total = 0: no drain ever overlapped an in-flight write")
	}
	if got := counterValue(t, res.Metrics, "checkpoint_overlap_ns_total"); got == 0 {
		t.Error("checkpoint_overlap_ns_total = 0: background workers recorded no write time")
	}
}

// TestAsyncCompletesAndMatchesSyncChecksum: the pipelined path must be
// semantically invisible — same answer, same checkpoint count, and the
// metrics ledger drains to zero in flight.
func TestAsyncCompletesAndMatchesSyncChecksum(t *testing.T) {
	factory := cgFactory(t, 6, 20)
	sync_, err := Run(Config{
		Ranks: 2, Degree: 1, StepInterval: 4, AttemptTimeout: time.Minute,
	}, factory)
	if err != nil {
		t.Fatal(err)
	}
	async, err := Run(Config{
		Ranks: 2, Degree: 1, StepInterval: 4, AsyncCheckpoint: true,
		AttemptTimeout: time.Minute,
	}, factory)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := cgChecksum(t, sync_), cgChecksum(t, async); a != b {
		t.Fatalf("async checksum %v != sync checksum %v", b, a)
	}
	if sync_.TotalCheckpoints != async.TotalCheckpoints {
		t.Fatalf("checkpoints sync=%d async=%d", sync_.TotalCheckpoints, async.TotalCheckpoints)
	}
	snap := async.Metrics
	if got := snap.Gauge("checkpoint_async_inflight"); got != 0 {
		t.Errorf("checkpoint_async_inflight = %d at job end, want 0", got)
	}
	att := counterValue(t, snap, "checkpoint_attempted_total")
	com := counterValue(t, snap, "checkpoint_committed_total")
	if att == 0 || att != com {
		t.Errorf("attempted/committed = %d/%d: end-of-run drain must commit everything", att, com)
	}
}

// TestAsyncUnderRedundancyCompletes: all replicas run the collective
// drain protocol; degree 2 exercises the writer/non-writer split.
func TestAsyncUnderRedundancyCompletes(t *testing.T) {
	factory := cgFactory(t, 6, 12)
	want := cleanChecksum(t, factory)
	res, err := Run(Config{
		Ranks: 4, Degree: 2, StepInterval: 4, AsyncCheckpoint: true,
		AttemptTimeout: time.Minute,
	}, factory)
	if err != nil {
		t.Fatal(err)
	}
	if got := cgChecksum(t, res); got != want {
		t.Fatalf("checksum = %v, want %v", got, want)
	}
}

func TestAsyncConfigValidation(t *testing.T) {
	factory := func() apps.App { return &apps.TaskFarm{Tasks: 1} }
	// Async + peer tier is a supported combination since the erasure PR:
	// peer replication rides the physical transport on reserved tags, so
	// background sends never touch the bookmark counts.
	if err := (Config{
		Ranks: 2, Degree: 2, StepInterval: 5, PeerDataShards: 1, PeerParityShards: 1, AsyncCheckpoint: true,
	}).Validate(); err != nil {
		t.Fatalf("AsyncCheckpoint+full-copy peer tier rejected: %v", err)
	}
	if err := (Config{
		Ranks: 2, Degree: 2, StepInterval: 5, AsyncCheckpoint: true,
		PeerDataShards: 2, PeerParityShards: 1,
	}).Validate(); err != nil {
		t.Fatalf("AsyncCheckpoint+erasure peer tier rejected: %v", err)
	}
	if _, err := Run(Config{
		Ranks: 2, Degree: 1, StepInterval: 5, AsyncCheckpoint: true, AsyncWorkers: -1,
	}, factory); err == nil {
		t.Fatal("negative AsyncWorkers accepted")
	}
}
