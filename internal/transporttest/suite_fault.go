package transporttest

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/mpi"
)

// This file holds the survivor-recovery half of the conformance suite:
// the ULFM-style fault-notification contract (SetErrhandler /
// FailureAck / ErrFailurePending), fault-tolerant agreement, and
// shrink-and-continue. Both backends must present the identical
// contract — it is what the core shrink runner and the ported apps are
// written against.

// testErrhandler pins the notification contract: the handler fires at
// most once per failed rank from inside the observing call, wildcards
// fail fast with ErrFailurePending until FailureAck, queued messages
// still match first, and named receives keep their legacy ErrPeerDead
// semantics on handler-free endpoints.
func testErrhandler(t *testing.T, factory Factory) {
	tr := factory(t, 3)
	c0, c1 := endpoint(t, tr, 0), endpoint(t, tr, 1)

	var mu sync.Mutex
	var notified []int
	c0.SetErrhandler(func(fi mpi.FailureInfo) {
		mu.Lock()
		notified = append(notified, fi.Rank)
		mu.Unlock()
	})

	// A message queued before the death must still be deliverable.
	if err := c1.Send(0, 5, []byte("queued")); err != nil {
		t.Fatal(err)
	}
	if _, err := c0.Probe(1, 5); err != nil {
		t.Fatalf("probe: %v", err)
	}
	tr.Kill(1)

	// A wildcard that cannot match queued traffic must fail fast with
	// ErrFailurePending instead of blocking on a potentially-dead sender
	// (the death broadcast may still be in flight on a socket transport,
	// so the parked receive is woken when it lands).
	if _, err := c0.Recv(mpi.AnySource, 9); !errors.Is(err, mpi.ErrFailurePending) {
		t.Fatalf("wildcard with pending failure: err = %v, want ErrFailurePending", err)
	}
	mu.Lock()
	got := append([]int(nil), notified...)
	mu.Unlock()
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("handler notified %v, want [1]", got)
	}

	acked := c0.FailureAck()
	if len(acked) != 1 || acked[0] != 1 {
		t.Fatalf("FailureAck = %v, want [1]", acked)
	}

	// Match-first still holds: the queued message is delivered through a
	// wildcard after acknowledgment.
	msg, err := c0.Recv(mpi.AnySource, 5)
	if err != nil {
		t.Fatalf("queued message after ack: %v", err)
	}
	if msg.Source != 1 || string(msg.Data) != "queued" {
		t.Fatalf("queued message = %+v", msg)
	}
	msg.Release()

	// A named receive from the dead rank fails as before, and the
	// handler does not re-fire for an already-notified rank.
	if _, err := c0.Recv(1, 5); !errors.Is(err, mpi.ErrPeerDead) {
		t.Fatalf("named recv from dead: err = %v, want ErrPeerDead", err)
	}
	mu.Lock()
	n := len(notified)
	mu.Unlock()
	if n != 1 {
		t.Fatalf("handler fired %d times, want once per failed rank", n)
	}

	// Handler-free endpoints keep the legacy contract: named receives
	// fail with ErrPeerDead and no pending gate engages.
	c2 := endpoint(t, tr, 2)
	if _, err := c2.Recv(1, 5); !errors.Is(err, mpi.ErrPeerDead) {
		t.Fatalf("handler-free recv from dead: err = %v, want ErrPeerDead", err)
	}
}

// testFailureAck pins "acknowledged counts as notified": a failure the
// endpoint acknowledged before any call observed it is never delivered
// to the errhandler — a named receive from the dead rank fails with
// ErrPeerDead and the handler stays silent.
func testFailureAck(t *testing.T, factory Factory) {
	tr := factory(t, 3)
	c0 := endpoint(t, tr, 0)
	var mu sync.Mutex
	fired := 0
	c0.SetErrhandler(func(mpi.FailureInfo) {
		mu.Lock()
		fired++
		mu.Unlock()
	})
	tr.Kill(2)
	// A socket transport's endpoint learns of the death from a broadcast.
	if l, ok := c0.(mpi.Liveness); ok {
		deadline := time.Now().Add(10 * time.Second)
		for l.Alive(2) {
			if time.Now().After(deadline) {
				t.Fatal("endpoint never saw rank 2's death")
			}
			time.Sleep(time.Millisecond)
		}
	}
	if acked := c0.FailureAck(); len(acked) != 1 || acked[0] != 2 {
		t.Fatalf("FailureAck = %v, want [2]", acked)
	}
	if _, err := c0.Recv(2, 4); !errors.Is(err, mpi.ErrPeerDead) {
		t.Fatalf("named recv from acknowledged dead rank: err = %v, want ErrPeerDead", err)
	}
	mu.Lock()
	n := fired
	mu.Unlock()
	if n != 0 {
		t.Fatalf("handler fired %d times for an acknowledged failure, want 0", n)
	}
}

// testAgree pins fault-tolerant agreement: the flag is AND-reduced
// across live ranks, every live rank gets the same result, and dead
// ranks are excused.
func testAgree(t *testing.T, factory Factory) {
	const n = 3
	tr := factory(t, n)

	// Full world, mixed flags: AND is false everywhere.
	flags := []bool{true, false, true}
	results := make(chan error, n)
	for r := 0; r < n; r++ {
		go func(rank int) {
			c, err := tr.Endpoint(rank)
			if err != nil {
				results <- err
				return
			}
			out, err := c.Agree(flags[rank])
			if err != nil {
				results <- fmt.Errorf("rank %d agree: %w", rank, err)
				return
			}
			if out {
				results <- fmt.Errorf("rank %d agreed true, want false", rank)
				return
			}
			results <- nil
		}(r)
	}
	for r := 0; r < n; r++ {
		if err := <-results; err != nil {
			t.Fatal(err)
		}
	}

	// With a rank dead, the survivors' round completes without it.
	tr.Kill(2)
	for _, r := range []int{0, 1} {
		go func(rank int) {
			c, err := tr.Endpoint(rank)
			if err != nil {
				results <- err
				return
			}
			out, err := c.Agree(true)
			if err != nil {
				results <- fmt.Errorf("rank %d agree after death: %w", rank, err)
				return
			}
			if !out {
				results <- fmt.Errorf("rank %d agreed false, want true", rank)
				return
			}
			results <- nil
		}(r)
	}
	for i := 0; i < 2; i++ {
		if err := <-results; err != nil {
			t.Fatal(err)
		}
	}
}

// testAgreeAcrossEpoch pins the epoch boundary of the agreement round:
// an arrival interrupted mid-round is discarded, so its flag does not
// leak into the next epoch's round and its rank may arrive again; and a
// rank revived during the pause owes the next round like any other.
func testAgreeAcrossEpoch(t *testing.T, factory Factory) {
	const n = 3
	tr := factory(t, n)
	tr.Kill(2)
	c0 := endpoint(t, tr, 0)
	parked := make(chan error, 1)
	go func() {
		_, err := c0.Agree(false)
		parked <- err
	}()
	// Give the arrival time to land (on a socket transport, at the hub)
	// before the interrupt; the round cannot complete without rank 1.
	time.Sleep(50 * time.Millisecond)
	tr.Interrupt()
	if err := <-parked; !errors.Is(err, mpi.ErrInterrupted) {
		t.Fatalf("agree across interrupt: err = %v, want ErrInterrupted", err)
	}
	tr.Revive(2)
	tr.Resume()

	results := make(chan error, n)
	for r := 0; r < n; r++ {
		c := endpoint(t, tr, r)
		go func(rank int) {
			out, err := c.Agree(true)
			switch {
			case err != nil:
				results <- fmt.Errorf("rank %d agree after resume: %w", rank, err)
			case !out:
				results <- fmt.Errorf("rank %d agreed false, want true: the interrupted round leaked", rank)
			default:
				results <- nil
			}
		}(r)
	}
	for r := 0; r < n; r++ {
		select {
		case err := <-results:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("a rank never left the round after resume")
		}
	}
}

// testShrink pins shrink-and-continue: the survivors agree on a
// communicator excluding the dead rank, with dense ascending
// renumbering, and traffic flows over it.
func testShrink(t *testing.T, factory Factory) {
	const n = 4
	tr := factory(t, n)
	tr.Kill(2)

	survivors := []int{0, 1, 3}
	results := make(chan error, len(survivors))
	for i, r := range survivors {
		go func(newRank, oldRank int) {
			c, err := tr.Endpoint(oldRank)
			if err != nil {
				results <- err
				return
			}
			sc, err := c.Shrink()
			if err != nil {
				results <- fmt.Errorf("rank %d shrink: %w", oldRank, err)
				return
			}
			if sc.Size() != len(survivors) {
				results <- fmt.Errorf("rank %d shrunk size = %d, want %d", oldRank, sc.Size(), len(survivors))
				return
			}
			if sc.Rank() != newRank {
				results <- fmt.Errorf("rank %d shrunk rank = %d, want %d", oldRank, sc.Rank(), newRank)
				return
			}
			// Ring over the shrunk communicator: rank translation and
			// matching must hold in the new numbering.
			m := sc.Size()
			if err := sc.Send((newRank+1)%m, 21, []byte{byte(newRank)}); err != nil {
				results <- fmt.Errorf("shrunk rank %d ring send: %w", newRank, err)
				return
			}
			msg, err := sc.Recv((newRank+m-1)%m, 21)
			if err != nil {
				results <- fmt.Errorf("shrunk rank %d ring recv: %w", newRank, err)
				return
			}
			if len(msg.Data) != 1 || msg.Data[0] != byte((newRank+m-1)%m) {
				results <- fmt.Errorf("shrunk rank %d ring payload %v", newRank, msg.Data)
				return
			}
			msg.Release()
			results <- nil
		}(i, r)
	}
	for range survivors {
		if err := <-results; err != nil {
			t.Fatal(err)
		}
	}
}

// testShrinkRacesCollective drives the pattern the ported apps use —
// rounds of eager neighbor exchange closed by an Agree collective —
// with a kill landing at an arbitrary point: mid-exchange, mid-Agree,
// or mid-Shrink. Sends are eager and precede the receives, so every
// survivor reaches the round's agreement point even when its receive
// from the victim fails; the AND then routes all survivors into the
// same Shrink, and traffic must flow over the shrunk communicator.
func testShrinkRacesCollective(t *testing.T, factory Factory) {
	const n = 4
	const maxRounds = 200
	tr := factory(t, n)

	go func() {
		time.Sleep(5 * time.Millisecond)
		tr.Kill(3)
	}()

	results := make(chan error, n)
	for r := 0; r < n; r++ {
		go func(rank int) {
			results <- func() error {
				c, err := tr.Endpoint(rank)
				if err != nil {
					return err
				}
				for round := 0; round < maxRounds; round++ {
					size := c.Size()
					up, down := (c.Rank()+1)%size, (c.Rank()+size-1)%size
					tag := 50 + round // per-round tags keep pre-shrink stragglers out
					ok := true
					// Eager sends first: a failed receive below must not
					// starve a neighbor of this rank's contribution.
					if err := c.Send(up, tag, []byte{byte(c.Rank())}); err != nil {
						if errors.Is(err, mpi.ErrKilled) {
							return nil // this is the victim
						}
						return fmt.Errorf("rank %d round %d send: %w", rank, round, err)
					}
					if err := c.Send(down, tag, []byte{byte(c.Rank())}); err != nil {
						if errors.Is(err, mpi.ErrKilled) {
							return nil
						}
						return fmt.Errorf("rank %d round %d send: %w", rank, round, err)
					}
					for _, src := range []int{up, down} {
						msg, err := c.Recv(src, tag)
						switch {
						case err == nil:
							msg.Release()
						case errors.Is(err, mpi.ErrKilled):
							return nil
						case errors.Is(err, mpi.ErrPeerDead):
							ok = false
						default:
							return fmt.Errorf("rank %d round %d recv: %w", rank, round, err)
						}
					}
					agreed, err := c.Agree(ok)
					if errors.Is(err, mpi.ErrKilled) {
						return nil
					}
					if err != nil {
						return fmt.Errorf("rank %d round %d agree: %w", rank, round, err)
					}
					if agreed {
						// Healthy round: pace the loop so the kill timer
						// lands within the round budget.
						time.Sleep(500 * time.Microsecond)
						continue
					}
					sc, err := c.Shrink()
					if errors.Is(err, mpi.ErrKilled) {
						return nil
					}
					if err != nil {
						return fmt.Errorf("rank %d round %d shrink: %w", rank, round, err)
					}
					if sc.Size() != n-1 {
						return fmt.Errorf("rank %d shrunk size = %d, want %d", rank, sc.Size(), n-1)
					}
					// One verified ring over the survivors proves the
					// shrunk communicator carries traffic.
					m, nr := sc.Size(), sc.Rank()
					if err := sc.Send((nr+1)%m, 31, []byte{byte(nr)}); err != nil {
						return fmt.Errorf("shrunk rank %d send: %w", nr, err)
					}
					msg, err := sc.Recv((nr+m-1)%m, 31)
					if err != nil {
						return fmt.Errorf("shrunk rank %d recv: %w", nr, err)
					}
					if len(msg.Data) != 1 || msg.Data[0] != byte((nr+m-1)%m) {
						return fmt.Errorf("shrunk rank %d payload %v", nr, msg.Data)
					}
					msg.Release()
					return nil
				}
				return fmt.Errorf("rank %d: kill never observed in %d rounds", rank, maxRounds)
			}()
		}(r)
	}
	for r := 0; r < n; r++ {
		if err := <-results; err != nil {
			t.Fatal(err)
		}
	}
}
