package checkpoint

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/simmpi"
)

// TestAsyncCommitLagsOneGeneration pins the pipeline's core contract:
// generation g is invisible to Restore until the next checkpoint (or a
// Drain) commits it, and Drain makes the newest snapshot restorable.
func TestAsyncCommitLagsOneGeneration(t *testing.T) {
	const n = 4
	store := NewMemStorage()
	pipe := NewPipeline(2)
	defer pipe.Close()
	runWorld(t, n, func(c *simmpi.Comm) error {
		cl, err := NewClient(c, Config{Storage: store, Pipeline: pipe})
		if err != nil {
			return err
		}
		state := func(gen int) []byte {
			return []byte(fmt.Sprintf("rank %d gen %d", c.Rank(), gen))
		}
		if err := cl.Checkpoint(state(0), true); err != nil {
			return err
		}
		// Generation 0 is written (or in flight) but must not be
		// committed: no drain point has passed yet. Safe to assert
		// between collective calls — the commit can only happen inside
		// the next checkpoint, which needs this rank's participation.
		if _, _, ok, err := store.Latest(); err != nil {
			return err
		} else if ok {
			return fmt.Errorf("rank %d: generation committed before any drain point", c.Rank())
		}
		if err := cl.Checkpoint(state(1), true); err != nil {
			return err
		}
		// The second checkpoint's drain point committed generation 0.
		if gen, _, ok, err := store.Latest(); err != nil {
			return err
		} else if !ok || gen != 0 {
			return fmt.Errorf("rank %d: latest = %d/%v, want 0/true", c.Rank(), gen, ok)
		}
		if err := cl.Drain(); err != nil {
			return err
		}
		if gen, _, ok, err := store.Latest(); err != nil {
			return err
		} else if !ok || gen != 1 {
			return fmt.Errorf("rank %d after drain: latest = %d/%v, want 1/true", c.Rank(), gen, ok)
		}
		got, ok, err := cl.Restore()
		if err != nil {
			return err
		}
		if !ok || !bytes.Equal(got, state(1)) {
			return fmt.Errorf("rank %d restored %q/%v, want %q", c.Rank(), got, ok, state(1))
		}
		if cl.Checkpoints() != 2 {
			return fmt.Errorf("checkpoints = %d, want 2", cl.Checkpoints())
		}
		return nil
	})
}

// TestAsyncStateNotRetained verifies the snapshot-copy semantics: the
// caller may mutate its state buffer the moment Checkpoint returns, and
// the checkpoint still holds the bytes from the checkpoint line.
func TestAsyncStateNotRetained(t *testing.T) {
	const n = 2
	store := NewMemStorage()
	pipe := NewPipeline(1)
	defer pipe.Close()
	runWorld(t, n, func(c *simmpi.Comm) error {
		cl, err := NewClient(c, Config{Storage: store, Pipeline: pipe})
		if err != nil {
			return err
		}
		state := bytes.Repeat([]byte{byte('A' + c.Rank())}, 8192)
		want := append([]byte(nil), state...)
		if err := cl.Checkpoint(state, true); err != nil {
			return err
		}
		for i := range state {
			state[i] = 0xFF // mutate immediately; the pipeline must not see this
		}
		if err := cl.Drain(); err != nil {
			return err
		}
		got, ok, err := cl.Restore()
		if err != nil {
			return err
		}
		if !ok || !bytes.Equal(got, want) {
			return fmt.Errorf("rank %d: snapshot leaked post-checkpoint mutations", c.Rank())
		}
		return nil
	})
}

// TestAsyncMetrics checks the pipeline's observability: the in-flight
// gauge returns to zero, overlap time accumulates, and attempted ==
// committed once drained.
func TestAsyncMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	store := NewMemStorage()
	pipe := NewPipeline(2)
	defer pipe.Close()
	runWorld(t, 2, func(c *simmpi.Comm) error {
		cl, err := NewClient(c, Config{Storage: store, Pipeline: pipe, Obs: reg})
		if err != nil {
			return err
		}
		for g := 0; g < 3; g++ {
			if err := cl.Checkpoint(bytes.Repeat([]byte{byte(g)}, 4096), true); err != nil {
				return err
			}
		}
		return cl.Drain()
	})
	snap := reg.Snapshot()
	if got := snap.Gauge("checkpoint_async_inflight"); got != 0 {
		t.Errorf("inflight gauge = %d after drain, want 0", got)
	}
	if snap.Counter("checkpoint_overlap_ns_total") == 0 {
		t.Error("no overlap time recorded")
	}
	if snap.Counter("checkpoint_stall_ns_total") == 0 {
		t.Error("no stall time recorded")
	}
	att, com := snap.Counter("checkpoint_attempted_total"), snap.Counter("checkpoint_committed_total")
	if att != 3 || com != 3 {
		t.Errorf("attempted/committed = %d/%d, want 3/3", att, com)
	}
	if snap.Counter("checkpoint_bytes_written_total") != 2*3*4096 {
		t.Errorf("bytes written = %d, want %d", snap.Counter("checkpoint_bytes_written_total"), 2*3*4096)
	}
}

// failingStorage fails every Write; Commit/Read succeed vacuously.
type failingStorage struct{ MemStorage }

var errDiskFull = errors.New("disk full")

func (f *failingStorage) Write(gen uint64, rank int, state []byte) error { return errDiskFull }

// TestAsyncWriteErrorSurfacesAtDrain: a background write failure must
// poison the pending generation and surface from Drain (and from the
// next checkpoint's drain point), not vanish.
func TestAsyncWriteErrorSurfacesAtDrain(t *testing.T) {
	store := &failingStorage{}
	pipe := NewPipeline(1)
	defer pipe.Close()
	w, err := simmpi.NewWorld(1)
	if err != nil {
		t.Fatal(err)
	}
	appErr, failures := w.Run(func(c *simmpi.Comm) error {
		cl, err := NewClient(c, Config{Storage: store, Pipeline: pipe})
		if err != nil {
			return err
		}
		if err := cl.Checkpoint([]byte("doomed"), true); err != nil {
			return err // the enqueue itself must not fail
		}
		if err := cl.Drain(); err == nil {
			return fmt.Errorf("drain swallowed the background write failure")
		} else if !errors.Is(err, errDiskFull) {
			return fmt.Errorf("drain error = %v, want wrapped errDiskFull", err)
		}
		return nil
	})
	if appErr != nil || len(failures) != 0 {
		t.Fatalf("appErr=%v failures=%v", appErr, failures)
	}
}

// TestPipelineCloseDrainsAndIsIdempotent: Close waits for submitted
// jobs and tolerates a second call.
func TestPipelineCloseDrainsAndIsIdempotent(t *testing.T) {
	store := NewMemStorage()
	pipe := NewPipeline(3)
	runWorld(t, 2, func(c *simmpi.Comm) error {
		cl, err := NewClient(c, Config{Storage: store, Pipeline: pipe})
		if err != nil {
			return err
		}
		if err := cl.Checkpoint([]byte("x"), true); err != nil {
			return err
		}
		return cl.Drain()
	})
	pipe.Close()
	pipe.Close()
}

// TestSyncModeDrainIsNoOp: Drain on a synchronous client must not
// attempt any collective round (callers invoke it unconditionally).
func TestSyncModeDrainIsNoOp(t *testing.T) {
	store := NewMemStorage()
	runWorld(t, 2, func(c *simmpi.Comm) error {
		cl, err := NewClient(c, Config{Storage: store})
		if err != nil {
			return err
		}
		if err := cl.Checkpoint([]byte("y"), true); err != nil {
			return err
		}
		// Ranks call Drain at different times; if it ran barriers it
		// could deadlock against ranks that already returned.
		return cl.Drain()
	})
}

// TestSnapArenaClasses pins the snapshot arena's size-class arithmetic
// and oversized fallback.
func TestSnapArenaClasses(t *testing.T) {
	cases := []struct{ n, class int }{
		{0, 0}, {1, 0}, {snapMinClass, 0}, {snapMinClass + 1, 1},
		{1 << 20, 10}, {16 << 20, snapClasses - 1}, {16<<20 + 1, -1},
	}
	for _, tc := range cases {
		if got := snapClassFor(tc.n); got != tc.class {
			t.Errorf("snapClassFor(%d) = %d, want %d", tc.n, got, tc.class)
		}
	}
	buf, pb := snapPool.acquire(100)
	if len(buf) != 100 || pb == nil {
		t.Fatalf("acquire(100) = len %d, handle %v", len(buf), pb)
	}
	pb.Release()
	big, pb2 := snapPool.acquire(17 << 20)
	if len(big) != 17<<20 || pb2 != nil {
		t.Fatalf("oversized acquire: len %d, handle %v", len(big), pb2)
	}
}

// TestAsyncUnderConcurrentIntervals hammers the pipeline across many
// back-to-back intervals so the race detector can see snapshot buffers,
// worker metrics, and drain ordering interact.
func TestAsyncUnderConcurrentIntervals(t *testing.T) {
	const n, gens = 3, 12
	store := NewMemStorage()
	pipe := NewPipeline(4)
	defer pipe.Close()
	var mu sync.Mutex
	finalStates := make(map[int][]byte)
	runWorld(t, n, func(c *simmpi.Comm) error {
		cl, err := NewClient(c, Config{Storage: store, Pipeline: pipe})
		if err != nil {
			return err
		}
		state := make([]byte, 3000)
		for g := 0; g < gens; g++ {
			for i := range state {
				state[i] = byte(g*7 + c.Rank())
			}
			if err := cl.Checkpoint(state, true); err != nil {
				return err
			}
		}
		if err := cl.Drain(); err != nil {
			return err
		}
		mu.Lock()
		finalStates[c.Rank()] = append([]byte(nil), state...)
		mu.Unlock()
		return nil
	})
	gen, ranks, ok, err := store.Latest()
	if err != nil || !ok || gen != gens-1 || ranks != n {
		t.Fatalf("latest = %d/%d/%v/%v, want %d/%d", gen, ranks, ok, err, gens-1, n)
	}
	for r := 0; r < n; r++ {
		got, err := store.Read(gen, r)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, finalStates[r]) {
			t.Fatalf("rank %d final generation mismatch", r)
		}
	}
}

// gatedStorage holds every Write until the test lets one through, and
// counts the writes that have landed.
type gatedStorage struct {
	Storage
	gate   chan struct{}
	mu     sync.Mutex
	landed int
}

func (s *gatedStorage) Write(gen uint64, rank int, data []byte) error {
	<-s.gate
	err := s.Storage.Write(gen, rank, data)
	s.mu.Lock()
	s.landed++
	s.mu.Unlock()
	return err
}

// TestPipelineFlushWaitsForEveryWrite: Flush returns only once every
// submitted write has landed. The writes are let through one at a time,
// and before each the test checks that Flush has not returned yet.
func TestPipelineFlushWaitsForEveryWrite(t *testing.T) {
	const writes = 6
	store := &gatedStorage{Storage: NewMemStorage(), gate: make(chan struct{})}
	pipe := NewPipeline(2)
	defer pipe.Close()
	pipe.Flush() // nothing submitted: returns at once

	var cl Client
	cl.inflight.Add(writes)
	for r := 0; r < writes; r++ {
		pipe.submit(asyncJob{storage: store, rank: r, data: []byte{byte(r)}, cl: &cl})
	}
	flushed := make(chan int)
	go func() {
		pipe.Flush()
		store.mu.Lock()
		n := store.landed
		store.mu.Unlock()
		flushed <- n
	}()
	for i := 0; i < writes; i++ {
		select {
		case n := <-flushed:
			t.Fatalf("Flush returned with %d of %d writes landed", n, writes)
		default:
		}
		store.gate <- struct{}{}
	}
	if n := <-flushed; n != writes {
		t.Fatalf("Flush returned with %d of %d writes landed", n, writes)
	}
	pipe.Flush() // idle again
}
