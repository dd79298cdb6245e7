package simmpi

import (
	"errors"
	"testing"
	"time"

	"repro/internal/mpi"
)

// parkedWaiters sums the registered waiters across every shard.
func parkedWaiters(w *World) int {
	total := 0
	for i := range w.table.shards {
		total += w.table.shards[i].Waiters()
	}
	return total
}

// TestEpochWakeupsBoundedByParkedWaiters pins the liveness-transition
// cost contract: a Kill or epoch boundary wakes exactly the parked
// waiters — blocked ranks sit on their gate's condition variable, never
// re-polling — and the wakeup count is independent of world size. The
// same scenario runs in a 64-rank world and an 8192-rank world (16×
// more ranks than shards, so striping is fully engaged); the waiter
// population is identical, and so must be the wakeup bill.
func TestEpochWakeupsBoundedByParkedWaiters(t *testing.T) {
	const waiters = 8
	for _, n := range []int{64, 8192} {
		w, err := NewWorld(n)
		if err != nil {
			t.Fatal(err)
		}
		victim := n - 1
		done := make(chan error, waiters)
		for i := 0; i < waiters; i++ {
			c, _ := w.Comm(i)
			go func(c *Comm) {
				_, err := c.Recv(victim, 5)
				done <- err
			}(c)
		}
		deadline := time.Now().Add(5 * time.Second)
		for parkedWaiters(w) != waiters {
			if time.Now().After(deadline) {
				t.Fatalf("n=%d: only %d/%d waiters parked", n, parkedWaiters(w), waiters)
			}
			time.Sleep(100 * time.Microsecond)
		}

		// One kill: every parked waiter must be woken exactly once to
		// observe the death — no more (no thundering rebroadcasts), no
		// less (no stranded waiter), and no O(world) sweep. The counter
		// tallies registered-waiters-notified, an upper bound on actual
		// unparks; here the two coincide because no traffic is in flight,
		// so every registered waiter is quiescently blocked in Wait when
		// the broadcast lands (see wakeAll).
		base := w.LivenessWakeups()
		w.Kill(victim)
		for i := 0; i < waiters; i++ {
			if err := <-done; !errors.Is(err, mpi.ErrPeerDead) {
				t.Fatalf("n=%d: waiter err = %v, want ErrPeerDead", n, err)
			}
		}
		if got := w.LivenessWakeups() - base; got != waiters {
			t.Fatalf("n=%d: kill woke %d waiters, want exactly %d (independent of world size)",
				n, got, waiters)
		}

		// A full epoch boundary with nobody parked must cost zero
		// wakeups, regardless of the 8k ranks it nominally spans.
		base = w.LivenessWakeups()
		w.Interrupt()
		w.Revive(victim)
		w.Resume()
		if got := w.LivenessWakeups() - base; got != 0 {
			t.Fatalf("n=%d: idle epoch boundary woke %d waiters, want 0", n, got)
		}
	}
}
