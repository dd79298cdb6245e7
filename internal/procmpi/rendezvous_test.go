package procmpi

import (
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/mpi"
)

// TestRendezvousExcusesRankDeadBeforeIt: a worker that says hello and
// dies before the rendezvous is a death like any other. The rendezvous
// completes without it, the survivors' welcome names it dead, and the
// hub reports the death once.
func TestRendezvousExcusesRankDeadBeforeIt(t *testing.T) {
	ln, cleanup, err := Listen("unix", "")
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	deaths := make(chan int, 4)
	coord, err := NewCoordinator(ln, CoordinatorConfig{
		Size:    3,
		OnDeath: func(rank int) { deaths <- rank },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	addr := ln.Addr().String()

	// Rank 2 connects, says hello and is gone before anyone else dials.
	conn, err := net.Dial("unix", addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mpi.WriteFrame(conn, mpi.Frame{Type: frameHello, Src: 2, Dst: -1, Payload: encodeHello(0)}, nil); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	select {
	case r := <-deaths:
		if r != 2 {
			t.Fatalf("death of rank %d, want 2", r)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the lost connection was never a death")
	}

	workers := make([]*Worker, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for r := range workers {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			workers[r], errs[r] = Dial(WorkerConfig{Network: "unix", Addr: addr, Rank: r, Size: 3})
		}(r)
	}
	wg.Wait()
	for r, derr := range errs {
		if derr != nil {
			t.Fatalf("dial rank %d: %v", r, derr)
		}
		defer workers[r].Close()
	}
	if err := coord.WaitConnected(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	for r, w := range workers {
		if w.Alive(2) {
			t.Errorf("rank %d's welcome left rank 2 alive", r)
		}
	}
	select {
	case r := <-deaths:
		t.Fatalf("second death report, rank %d", r)
	default:
	}
}
