package checkpoint

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/mpi"
	"repro/internal/redundancy"
	"repro/internal/simmpi"
)

func writeFileHelper(path string, data []byte) error {
	return os.WriteFile(path, data, 0o644)
}

// runWorld executes fn once per rank of a plain n-rank world.
func runWorld(t *testing.T, n int, fn func(c *simmpi.Comm) error) {
	t.Helper()
	w, err := simmpi.NewWorld(n)
	if err != nil {
		t.Fatal(err)
	}
	appErr, failures := w.Run(fn)
	if appErr != nil {
		t.Fatalf("app error: %v", appErr)
	}
	if len(failures) != 0 {
		t.Fatalf("failures: %v", failures)
	}
}

func TestNewClientRequiresStorage(t *testing.T) {
	w, err := simmpi.NewWorld(1)
	if err != nil {
		t.Fatal(err)
	}
	c, err := w.Comm(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewClient(c, Config{}); err == nil {
		t.Fatal("nil storage accepted")
	}
}

func TestCoordinatedCheckpointAndRestore(t *testing.T) {
	const n = 4
	store := NewMemStorage()
	runWorld(t, n, func(c *simmpi.Comm) error {
		cl, err := NewClient(c, Config{Storage: store})
		if err != nil {
			return err
		}
		state := []byte(fmt.Sprintf("state of rank %d", c.Rank()))
		if err := cl.Checkpoint(state, true); err != nil {
			return err
		}
		if cl.Checkpoints() != 1 {
			return fmt.Errorf("checkpoints = %d", cl.Checkpoints())
		}
		return nil
	})
	// A fresh world restores every rank's state.
	runWorld(t, n, func(c *simmpi.Comm) error {
		cl, err := NewClient(c, Config{Storage: store})
		if err != nil {
			return err
		}
		state, ok, err := cl.Restore()
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("rank %d found no checkpoint", c.Rank())
		}
		want := fmt.Sprintf("state of rank %d", c.Rank())
		if string(state) != want {
			return fmt.Errorf("restored %q, want %q", state, want)
		}
		if cl.Restores() != 1 {
			return fmt.Errorf("restores = %d", cl.Restores())
		}
		return nil
	})
}

func TestRestoreWithoutCheckpoint(t *testing.T) {
	store := NewMemStorage()
	runWorld(t, 2, func(c *simmpi.Comm) error {
		cl, err := NewClient(c, Config{Storage: store})
		if err != nil {
			return err
		}
		_, ok, err := cl.Restore()
		if err != nil {
			return err
		}
		if ok {
			return fmt.Errorf("restore reported a checkpoint in an empty store")
		}
		return nil
	})
}

func TestGenerationsAdvance(t *testing.T) {
	const n = 3
	store := NewMemStorage()
	runWorld(t, n, func(c *simmpi.Comm) error {
		cl, err := NewClient(c, Config{Storage: store})
		if err != nil {
			return err
		}
		for i := 0; i < 3; i++ {
			if err := cl.Checkpoint([]byte{byte(i)}, true); err != nil {
				return fmt.Errorf("checkpoint %d: %w", i, err)
			}
		}
		return nil
	})
	gen, ranks, ok, err := store.Latest()
	if err != nil || !ok {
		t.Fatalf("Latest: %v %v", ok, err)
	}
	if ranks != n {
		t.Fatalf("ranks = %d", ranks)
	}
	state, err := store.Read(gen, 0)
	if err != nil || state[0] != 2 {
		t.Fatalf("latest generation holds %v (err %v), want the 3rd checkpoint", state, err)
	}
}

func TestMaybeCheckpointStepSchedule(t *testing.T) {
	const n = 2
	store := NewMemStorage()
	var mu sync.Mutex
	fired := map[int][]int{}
	runWorld(t, n, func(c *simmpi.Comm) error {
		cl, err := NewClient(c, Config{Storage: store, StepInterval: 3})
		if err != nil {
			return err
		}
		for step := 0; step <= 10; step++ {
			snapped := false
			did, err := cl.MaybeCheckpoint(step, func() []byte {
				snapped = true
				return []byte{byte(step)}
			}, true)
			if err != nil {
				return err
			}
			if snapped != did {
				return fmt.Errorf("step %d: snapshot called %v, checkpointed %v", step, snapped, did)
			}
			if did {
				mu.Lock()
				fired[c.Rank()] = append(fired[c.Rank()], step)
				mu.Unlock()
			}
		}
		return nil
	})
	want := fmt.Sprint([]int{3, 6, 9})
	for rank, steps := range fired {
		if fmt.Sprint(steps) != want {
			t.Fatalf("rank %d checkpointed at %v, want %v", rank, steps, want)
		}
	}
	if len(fired) != n {
		t.Fatalf("only %d ranks checkpointed", len(fired))
	}
}

func TestMaybeCheckpointDisabled(t *testing.T) {
	store := NewMemStorage()
	runWorld(t, 1, func(c *simmpi.Comm) error {
		cl, err := NewClient(c, Config{Storage: store})
		if err != nil {
			return err
		}
		did, err := cl.MaybeCheckpoint(100, func() []byte {
			panic("snapshot taken with checkpointing disabled")
		}, true)
		if err != nil {
			return err
		}
		if did {
			return fmt.Errorf("StepInterval=0 should disable MaybeCheckpoint")
		}
		return nil
	})
}

func TestBookmarkDetectsInFlightMessage(t *testing.T) {
	// Rank 0 sends a message rank 1 never receives: the bookmark exchange
	// must refuse to checkpoint.
	const n = 2
	store := NewMemStorage()
	w, err := simmpi.NewWorld(n)
	if err != nil {
		t.Fatal(err)
	}
	appErr, _ := w.Run(func(c *simmpi.Comm) error {
		cl, err := NewClient(c, Config{Storage: store, BookmarkRetries: 2})
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			if err := c.Send(1, 1, []byte("orphan")); err != nil {
				return err
			}
		}
		return cl.Checkpoint(nil, true)
	})
	if !errors.Is(appErr, ErrNotQuiescent) {
		t.Fatalf("checkpoint over dirty channel: err = %v, want ErrNotQuiescent", appErr)
	}
}

func TestBookmarkPassesAfterDrain(t *testing.T) {
	const n = 2
	store := NewMemStorage()
	runWorld(t, n, func(c *simmpi.Comm) error {
		cl, err := NewClient(c, Config{Storage: store})
		if err != nil {
			return err
		}
		// Balanced exchange: everything sent is received.
		if c.Rank() == 0 {
			if err := c.Send(1, 1, []byte("m")); err != nil {
				return err
			}
		} else {
			if _, err := c.Recv(0, 1); err != nil {
				return err
			}
		}
		return cl.Checkpoint([]byte("s"), true)
	})
}

func TestSkipBookmarkOption(t *testing.T) {
	const n = 2
	store := NewMemStorage()
	runWorld(t, n, func(c *simmpi.Comm) error {
		cl, err := NewClient(c, Config{Storage: store, SkipBookmark: true})
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			// Leave an orphan in flight; SkipBookmark tolerates it.
			if err := c.Send(1, 1, []byte("orphan")); err != nil {
				return err
			}
		}
		return cl.Checkpoint(nil, true)
	})
}

func TestCheckpointUnderRedundancy(t *testing.T) {
	// All replicas run the protocol; only the lowest alive replica of
	// each rank writes. Restore then works from any replica.
	const n = 3
	const degree = 2.0
	store := NewMemStorage()
	m, err := redundancy.NewRankMap(n, degree)
	if err != nil {
		t.Fatal(err)
	}
	w, err := simmpi.NewWorld(m.PhysicalSize())
	if err != nil {
		t.Fatal(err)
	}
	appErr, failures := w.Run(func(pc *simmpi.Comm) error {
		rc, err := redundancy.Wrap(pc, m, mpi.WithLiveness(w))
		if err != nil {
			return err
		}
		cl, err := NewClient(rc, Config{Storage: store})
		if err != nil {
			return err
		}
		state := []byte(fmt.Sprintf("virtual %d", rc.Rank()))
		writer := rc.ReplicaIndex() == 0
		if err := cl.Checkpoint(state, writer); err != nil {
			return err
		}
		got, ok, err := cl.Restore()
		if err != nil || !ok {
			return fmt.Errorf("restore: %v %v", ok, err)
		}
		if string(got) != string(state) {
			return fmt.Errorf("restored %q", got)
		}
		return nil
	})
	if appErr != nil {
		t.Fatalf("app error: %v", appErr)
	}
	if len(failures) != 0 {
		t.Fatalf("failures: %v", failures)
	}
	if _, ranks, ok, _ := store.Latest(); !ok || ranks != n {
		t.Fatalf("store holds %d virtual ranks, want %d", ranks, n)
	}
}

// commitCounter is a Storage that counts Commit calls.
type commitCounter struct {
	Storage
	commits atomic.Int64
}

func (s *commitCounter) Commit(gen uint64, n int) error {
	s.commits.Add(1)
	return s.Storage.Commit(gen, n)
}

// TestOnlyRankZeroWriterCommits pins who commits under redundancy: the
// writer replica of rank 0, once per generation. A twin of rank 0 can
// leave the commit barrier before its writer has written (it never
// hears from its own sphere), so a commit from it could find the
// generation incomplete.
func TestOnlyRankZeroWriterCommits(t *testing.T) {
	const n, gens = 3, 4
	for _, async := range []bool{false, true} {
		store := &commitCounter{Storage: NewMemStorage()}
		m, err := redundancy.NewRankMap(n, 2)
		if err != nil {
			t.Fatal(err)
		}
		w, err := simmpi.NewWorld(m.PhysicalSize())
		if err != nil {
			t.Fatal(err)
		}
		var pipe *Pipeline
		if async {
			pipe = NewPipeline(1)
		}
		appErr, failures := w.Run(func(pc *simmpi.Comm) error {
			rc, err := redundancy.Wrap(pc, m, mpi.WithLiveness(w))
			if err != nil {
				return err
			}
			cl, err := NewClient(rc, Config{Storage: store, Pipeline: pipe})
			if err != nil {
				return err
			}
			state := []byte(fmt.Sprintf("virtual %d", rc.Rank()))
			for g := 0; g < gens; g++ {
				if err := cl.Checkpoint(state, rc.ReplicaIndex() == 0); err != nil {
					return err
				}
			}
			return cl.Drain()
		})
		if pipe != nil {
			pipe.Close()
		}
		if appErr != nil || len(failures) != 0 {
			t.Fatalf("async=%v: app error %v, failures %v", async, appErr, failures)
		}
		if got := store.commits.Load(); got != gens {
			t.Errorf("async=%v: %d commits for %d generations", async, got, gens)
		}
	}
}

func TestCheckpointWithTrackerlessComm(t *testing.T) {
	// A communicator without CountTracker skips the bookmark exchange.
	const n = 2
	store := NewMemStorage()
	runWorld(t, n, func(c *simmpi.Comm) error {
		cl, err := NewClient(noTracker{c}, Config{Storage: store})
		if err != nil {
			return err
		}
		return cl.Checkpoint([]byte("x"), true)
	})
}

// noTracker delegates mpi.Comm explicitly (no embedding, which would
// promote SentCounts/RecvCounts and defeat the purpose) so the client
// sees a transport without message totals.
type noTracker struct {
	c *simmpi.Comm
}

var _ mpi.Comm = noTracker{}

func (n noTracker) Rank() int { return n.c.Rank() }
func (n noTracker) Size() int { return n.c.Size() }
func (n noTracker) Send(dst, tag int, data []byte) error {
	return n.c.Send(dst, tag, data)
}
func (n noTracker) Recv(src, tag int) (mpi.Message, error) { return n.c.Recv(src, tag) }
func (n noTracker) Isend(dst, tag int, data []byte) (mpi.Request, error) {
	return n.c.Isend(dst, tag, data)
}
func (n noTracker) Irecv(src, tag int) (mpi.Request, error) { return n.c.Irecv(src, tag) }
func (n noTracker) Probe(src, tag int) (mpi.Status, error)  { return n.c.Probe(src, tag) }
func (n noTracker) SetErrhandler(fn func(mpi.FailureInfo))  { n.c.SetErrhandler(fn) }
func (n noTracker) FailureAck() []int                       { return n.c.FailureAck() }
func (n noTracker) Shrink() (mpi.Comm, error)               { return n.c.Shrink() }
func (n noTracker) Agree(flag bool) (bool, error)           { return n.c.Agree(flag) }

func TestNoTrackerReallyHidesCounts(t *testing.T) {
	if _, ok := interface{}(noTracker{}).(mpi.CountTracker); ok {
		t.Fatal("noTracker still exposes CountTracker; the skip path is untested")
	}
}
