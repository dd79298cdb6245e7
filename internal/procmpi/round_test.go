package procmpi

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/mpi"
)

// TestAgreeDuringResumeCounts: a worker that has acked the resume is in
// the new epoch, so an Agree it starts while the hub still waits for a
// slower peer's ack is an arrival, not traffic of the closed epoch that
// the hub drops (which would leave every rank parked in the round).
func TestAgreeDuringResumeCounts(t *testing.T) {
	const n = 4
	l, err := NewLocal(n, LocalConfig{Network: "unix"})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for epoch := 0; epoch < 20; epoch++ {
		l.Interrupt()
		done := make(chan error, n)
		for r := 0; r < n; r++ {
			c, err := l.Endpoint(r)
			if err != nil {
				t.Fatal(err)
			}
			go func() {
				for {
					// Retry until this worker has seen the resume, then
					// arrive at once.
					ok, err := c.Agree(true)
					if errors.Is(err, mpi.ErrInterrupted) {
						runtime.Gosched()
						continue
					}
					if err == nil && !ok {
						err = errors.New("agreed false")
					}
					done <- err
					return
				}
			}()
		}
		l.Resume()
		for r := 0; r < n; r++ {
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("epoch %d: %v", epoch, err)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("epoch %d: an Agree started during the resume never completed", epoch)
			}
		}
	}
}
