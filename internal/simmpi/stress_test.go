package simmpi

import (
	"fmt"
	"testing"

	"repro/internal/mpi"
	"repro/internal/stats"
)

// TestRandomTrafficConservation drives a random all-pairs workload: every
// rank sends a randomized (but per-rank deterministic) schedule of
// messages, then receives exactly what was addressed to it. No message
// may be lost, duplicated, or delivered out of FIFO order per
// (source, tag) pair.
func TestRandomTrafficConservation(t *testing.T) {
	const (
		ranks    = 10
		rounds   = 40
		tagSpace = 3
	)
	w := newTestWorld(t, ranks)

	// Precompute everyone's send schedule so receivers know what to
	// expect: schedule[src][dst][tag] = payload sequence.
	type key struct{ dst, tag int }
	schedules := make([]map[key][]byte, ranks)
	for src := 0; src < ranks; src++ {
		rng := stats.NewStream(int64(src) * 7331)
		sched := make(map[key][]byte)
		for r := 0; r < rounds; r++ {
			dst := rng.Intn(ranks)
			tag := rng.Intn(tagSpace)
			sched[key{dst, tag}] = append(sched[key{dst, tag}], byte(r))
		}
		schedules[src] = sched
	}

	appErr, failures := w.Run(func(c *Comm) error {
		// Re-derive my schedule and send it.
		rng := stats.NewStream(int64(c.Rank()) * 7331)
		for r := 0; r < rounds; r++ {
			dst := rng.Intn(ranks)
			tag := rng.Intn(tagSpace)
			if err := c.Send(dst, tag, []byte{byte(r)}); err != nil {
				return err
			}
		}
		// Receive exactly what the schedules say is coming, checking
		// FIFO per (source, tag).
		for src := 0; src < ranks; src++ {
			for tag := 0; tag < tagSpace; tag++ {
				expected := schedules[src][key{c.Rank(), tag}]
				for i, want := range expected {
					msg, err := c.Recv(src, tag)
					if err != nil {
						return fmt.Errorf("recv %d/%d from %d tag %d: %w", i, len(expected), src, tag, err)
					}
					if msg.Data[0] != want {
						return fmt.Errorf("from %d tag %d: got seq %d, want %d (FIFO violation)",
							src, tag, msg.Data[0], want)
					}
				}
			}
		}
		if n := c.PendingMessages(); n != 0 {
			return fmt.Errorf("rank %d still has %d pending messages", c.Rank(), n)
		}
		return nil
	})
	if appErr != nil {
		t.Fatal(appErr)
	}
	if len(failures) != 0 {
		t.Fatalf("failures: %v", failures)
	}
}

// TestConcurrentWildcardConsumers runs several goroutine "threads" of one
// logical receiver... not supported: a Comm is single-goroutine. Instead
// stress wildcard matching under heavy interleaving from many senders.
func TestWildcardUnderHeavyInterleaving(t *testing.T) {
	const (
		ranks   = 8
		perRank = 50
	)
	w := newTestWorld(t, ranks)
	appErr, failures := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			counts := make([]int, ranks)
			for i := 0; i < (ranks-1)*perRank; i++ {
				msg, err := c.Recv(mpi.AnySource, 1)
				if err != nil {
					return err
				}
				// Per-source FIFO: payload must be the per-source counter.
				if int(msg.Data[0]) != counts[msg.Source] {
					return fmt.Errorf("source %d: got %d, want %d",
						msg.Source, msg.Data[0], counts[msg.Source])
				}
				counts[msg.Source]++
			}
			for src := 1; src < ranks; src++ {
				if counts[src] != perRank {
					return fmt.Errorf("source %d delivered %d, want %d", src, counts[src], perRank)
				}
			}
			return nil
		}
		for i := 0; i < perRank; i++ {
			if err := c.Send(0, 1, []byte{byte(i)}); err != nil {
				return err
			}
		}
		return nil
	})
	if appErr != nil {
		t.Fatal(appErr)
	}
	if len(failures) != 0 {
		t.Fatalf("failures: %v", failures)
	}
}

// TestSendDelayChargesSender verifies the WithSendDelay emulation: the
// sender's wallclock dilates with its message count.
func TestSendDelayChargesSender(t *testing.T) {
	w, err := NewWorld(2, mpi.WithSendDelay(0))
	if err != nil {
		t.Fatal(err)
	}
	c0, err := w.Comm(0)
	if err != nil {
		t.Fatal(err)
	}
	// Zero delay must not sleep (smoke: 10k sends finish instantly).
	for i := 0; i < 10000; i++ {
		if err := c0.Send(1, 0, nil); err != nil {
			t.Fatal(err)
		}
	}
}
