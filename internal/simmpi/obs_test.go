package simmpi

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/mpi"
	"repro/internal/obs"
)

func TestWorldCountersTrackTraffic(t *testing.T) {
	reg := obs.NewRegistry()
	w, err := NewWorld(2, mpi.WithObs(reg))
	if err != nil {
		t.Fatal(err)
	}
	c0, _ := w.Comm(0)
	c1, _ := w.Comm(1)
	payload := []byte("hello")
	if err := c0.Send(1, 7, payload); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Recv(0, 7); err != nil {
		t.Fatal(err)
	}
	// A send to a dead peer is accepted and dropped.
	w.Kill(1)
	if err := c0.Send(1, 7, payload); err != nil {
		t.Fatal(err)
	}
	w.Abort()

	snap := reg.Snapshot()
	checks := map[string]uint64{
		"simmpi_sends_total":      2,
		"simmpi_recvs_total":      1,
		"simmpi_send_bytes_total": 2 * uint64(len(payload)),
		"simmpi_drops_total":      1,
		"simmpi_kills_total":      1,
		"simmpi_aborts_total":     1,
	}
	for name, want := range checks {
		if got := snap.Counter(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if got := snap.Gauge("simmpi_mailbox_depth_hwm"); got < 1 {
		t.Errorf("mailbox HWM = %d, want >= 1", got)
	}
	if w.Deaths() != 1 {
		t.Errorf("Deaths = %d, want 1 (registry-backed)", w.Deaths())
	}
	if w.Obs() != reg {
		t.Error("Obs did not return the injected registry")
	}
}

func TestWorldDefaultPrivateRegistry(t *testing.T) {
	w, err := NewWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	if w.Obs() == nil {
		t.Fatal("default world has no registry")
	}
	w.Kill(0)
	if w.Deaths() != 1 {
		t.Fatalf("Deaths = %d, want 1", w.Deaths())
	}
	if got := w.Obs().Snapshot().Counter("simmpi_kills_total"); got != 1 {
		t.Fatalf("simmpi_kills_total = %d, want 1", got)
	}
}

func TestWorldObsNilDisablesTelemetry(t *testing.T) {
	w, err := NewWorld(2, mpi.WithObs(nil))
	if err != nil {
		t.Fatal(err)
	}
	c0, _ := w.Comm(0)
	c1, _ := w.Comm(1)
	if err := c0.Send(1, 1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Recv(0, 1); err != nil {
		t.Fatal(err)
	}
	if w.Obs() != nil {
		t.Fatal("mpi.WithObs(nil) kept a registry")
	}
}

// obsPingPong is the stress workload both the benchmark and the
// overhead-budget guard share: pairs of ranks exchanging fixed-size
// messages, dominated by mailbox matching — the runtime's hot path.
func obsPingPong(w *World, rounds int) error {
	appErr, failures := w.Run(func(c *Comm) error {
		peer := c.Rank() ^ 1
		buf := make([]byte, 256)
		for i := 0; i < rounds; i++ {
			if c.Rank()%2 == 0 {
				if err := c.Send(peer, 1, buf); err != nil {
					return err
				}
				if _, err := c.Recv(peer, 2); err != nil {
					return err
				}
			} else {
				if _, err := c.Recv(peer, 1); err != nil {
					return err
				}
				if err := c.Send(peer, 2, buf); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if appErr != nil {
		return appErr
	}
	if len(failures) > 0 {
		return fmt.Errorf("unexpected failure errors: %v", failures)
	}
	return nil
}

func benchWorld(b *testing.B, opts ...Option) {
	b.Helper()
	w, err := NewWorld(4, opts...)
	if err != nil {
		b.Fatal(err)
	}
	if err := obsPingPong(w, b.N); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkObsOverhead compares the enabled-registry hot path against
// the no-op (mpi.WithObs(nil)) path on a message-passing stress workload.
// CI guards the ratio via TestObsOverheadBudget.
func BenchmarkObsOverhead(b *testing.B) {
	b.Run("enabled", func(b *testing.B) { benchWorld(b, mpi.WithObs(obs.NewRegistry())) })
	b.Run("disabled", func(b *testing.B) { benchWorld(b, mpi.WithObs(nil)) })
	b.Run("flight", func(b *testing.B) {
		benchWorld(b, mpi.WithObs(obs.NewRegistry()), mpi.WithFlight(obs.NewRecorder(0, false)))
	})
}

// TestObsOverheadBudget asserts that leaving the registry enabled costs
// under 5% on the messaging stress path. Trials alternate between the
// two modes and the minima are compared, which suppresses scheduler and
// GC noise; a small absolute epsilon absorbs timer granularity.
func TestObsOverheadBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	if raceEnabled {
		t.Skip("race-instrumented atomics cost multiples of their production price")
	}
	const (
		rounds = 20000
		trials = 5
	)
	measure := func(opts ...Option) time.Duration {
		w, err := NewWorld(4, opts...)
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		if err := obsPingPong(w, rounds); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	big := time.Duration(1 << 62)
	minEnabled, minDisabled, minFlight := big, big, big
	// Warm-up pass to fault in code paths before timing.
	measure(mpi.WithObs(nil))
	for i := 0; i < trials; i++ {
		if d := measure(mpi.WithObs(obs.NewRegistry())); d < minEnabled {
			minEnabled = d
		}
		if d := measure(mpi.WithObs(nil)); d < minDisabled {
			minDisabled = d
		}
		if d := measure(mpi.WithObs(obs.NewRegistry()),
			mpi.WithFlight(obs.NewRecorder(0, false))); d < minFlight {
			minFlight = d
		}
	}
	budget := minDisabled + minDisabled/20 + 2*time.Millisecond
	if minEnabled > budget {
		t.Fatalf("enabled registry too expensive: enabled=%v disabled=%v budget=%v",
			minEnabled, minDisabled, budget)
	}
	if minFlight > budget {
		t.Fatalf("flight recorder too expensive: flight=%v disabled=%v budget=%v",
			minFlight, minDisabled, budget)
	}
	t.Logf("obs overhead: enabled=%v flight=%v disabled=%v (%.2f%% / %.2f%%)",
		minEnabled, minFlight, minDisabled,
		100*(float64(minEnabled)-float64(minDisabled))/float64(minDisabled),
		100*(float64(minFlight)-float64(minDisabled))/float64(minDisabled))
}
