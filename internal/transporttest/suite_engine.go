package transporttest

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/mpi"
)

// This file pins the receive engine's wakeup routing on every backend:
// deposits wake only matching selectors, probes hand their wakeup on,
// wildcards still match everything, kills reach every selector, and
// overlapping selectors lose no wakeup.

func testTargetedWakeup(t *testing.T, factory Factory) {
	const waiters = 16
	tr := factory(t, 2)
	c0, c1 := endpoint(t, tr, 0), endpoint(t, tr, 1)
	var wg sync.WaitGroup
	errs := make(chan error, waiters)
	wg.Add(waiters)
	for tag := 1; tag <= waiters; tag++ {
		go func(tag int) {
			defer wg.Done()
			msg, err := c1.Recv(0, tag)
			if err != nil {
				errs <- err
				return
			}
			if len(msg.Data) != tag {
				errs <- fmt.Errorf("tag %d got %d bytes", tag, len(msg.Data))
			}
			msg.Release()
		}(tag)
	}
	// Deposit in reverse order so late tags wake first — any cross-tag
	// wakeup misrouting shows up as a hang or a wrong payload.
	for tag := waiters; tag >= 1; tag-- {
		if err := c0.Send(1, tag, make([]byte, tag)); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// testProbePassesWakeup: a probe and a receive block on the same
// selector; one deposit arrives. The deposit's single wakeup for that
// selector may land on the probe, which does not consume the message —
// the probe must chain-signal so the receiver still gets it. (The
// converse race — the receiver consumes first and the probe keeps
// waiting for a future message — is legal probe semantics, so only the
// receiver's completion is guaranteed after one deposit; a second
// deposit then releases the probe.)
func testProbePassesWakeup(t *testing.T, factory Factory) {
	for round := 0; round < 50; round++ {
		tr := factory(t, 2)
		c0, c1 := endpoint(t, tr, 0), endpoint(t, tr, 1)
		probeDone := make(chan error, 1)
		recvDone := make(chan error, 1)
		go func() {
			_, err := c1.Probe(0, 7)
			probeDone <- err
		}()
		go func() {
			msg, err := c1.Recv(0, 7)
			if err == nil {
				msg.Release()
			}
			recvDone <- err
		}()
		// Give both waiters time to park before the single deposit.
		time.Sleep(100 * time.Microsecond)
		if err := c0.Send(1, 7, []byte("x")); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-recvDone:
			if err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("round %d: wakeup lost — receiver stranded behind the probe", round)
		}
		// A second message releases the probe if the receiver consumed
		// the first one before the probe saw it.
		if err := c0.Send(1, 7, []byte("y")); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-probeDone:
			if err != nil {
				t.Fatalf("round %d: probe: %v", round, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("round %d: probe never woke", round)
		}
	}
}

func testWildcardWaitersWake(t *testing.T, factory Factory) {
	tr := factory(t, 3)
	c0, c2 := endpoint(t, tr, 0), endpoint(t, tr, 2)
	cases := []struct{ src, tag int }{
		{mpi.AnySource, mpi.AnyTag},
		{mpi.AnySource, 9},
		{0, mpi.AnyTag},
	}
	for _, tc := range cases {
		done := make(chan error, 1)
		go func() {
			msg, err := c2.Recv(tc.src, tc.tag)
			if err == nil {
				msg.Release()
			}
			done <- err
		}()
		time.Sleep(100 * time.Microsecond)
		if err := c0.Send(2, 9, []byte("w")); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("selector (%d,%d): %v", tc.src, tc.tag, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("selector (%d,%d): wildcard waiter never woke", tc.src, tc.tag)
		}
	}
}

// testKillWakesAllSelectors: liveness transitions must reach every wait
// queue, not just matching selectors.
func testKillWakesAllSelectors(t *testing.T, factory Factory) {
	tr := factory(t, 3)
	c2 := endpoint(t, tr, 2)
	const n = 8
	done := make(chan error, n)
	for tag := 1; tag <= n; tag++ {
		go func(tag int) {
			_, err := c2.Recv(0, tag)
			done <- err
		}(tag)
	}
	time.Sleep(200 * time.Microsecond)
	tr.Kill(0) // the awaited peer dies; every waiter must error out
	for i := 0; i < n; i++ {
		select {
		case err := <-done:
			if err == nil {
				t.Fatal("receive returned a message from a dead rank")
			}
		case <-time.After(5 * time.Second):
			t.Fatal("kill did not wake a parked waiter")
		}
	}
}

// testOverlappingSelectors regression-tests a lost-wakeup hazard in
// arrival signaling. Waiter A parks on (src=1, AnyTag), waiter B on
// (AnySource, tag=5); rank 1 deposits (1,3) then (1,5). Both deposits
// route a Signal to A's queue — and sync.Cond.Signal reaches only
// goroutines blocked in Wait, so if A is momentarily awake (woken by the
// first deposit, not yet re-holding the stripe lock) the second Signal
// is a silent no-op. A protocol that stops at the first populated
// selector queue then never tries (AnySource, 5): A consumes (1,3) and
// leaves, and B strands parked with (1,5) deliverable in the box. The
// fixed protocol signals every matching selector pattern, so B gets its
// own wakeup regardless of A's scheduling. The race window depends on
// timing, so the scenario loops; outcomes are deterministic (A always
// takes (1,3), the only message matching (1,3)'s selector set first by
// arrival order, B takes (1,5)), and a global deadline turns the old
// code's deadlock into a failure instead of a hung test run.
func testOverlappingSelectors(t *testing.T, factory Factory) {
	const iters = 2000
	tr := factory(t, 4)
	c0, c1 := endpoint(t, tr, 0), endpoint(t, tr, 1)
	finished := make(chan error, 1)
	go func() {
		for i := 0; i < iters; i++ {
			var wg sync.WaitGroup
			errs := make(chan error, 2)
			wg.Add(2)
			go func() { // waiter A: exact source, any tag
				defer wg.Done()
				msg, err := c0.Recv(1, mpi.AnyTag)
				if err != nil {
					errs <- err
					return
				}
				if msg.Tag != 3 {
					errs <- fmt.Errorf("A got tag %d, want 3", msg.Tag)
				}
				msg.Release()
			}()
			go func() { // waiter B: any source, exact tag
				defer wg.Done()
				msg, err := c0.Recv(mpi.AnySource, 5)
				if err != nil {
					errs <- err
					return
				}
				if msg.Tag != 5 {
					errs <- fmt.Errorf("B got tag %d, want 5", msg.Tag)
				}
				msg.Release()
			}()
			if err := c1.Send(0, 3, []byte{1}); err != nil {
				finished <- err
				return
			}
			if err := c1.Send(0, 5, []byte{2}); err != nil {
				finished <- err
				return
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				if err != nil {
					finished <- err
					return
				}
			}
		}
		finished <- nil
	}()
	select {
	case err := <-finished:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("lost wakeup: a receiver stranded with a deliverable message (wake-one signal absorbed by an awake waiter)")
	}
}
