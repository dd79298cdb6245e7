package mpi_test

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"repro/internal/mpi"
	"repro/internal/simmpi"
)

// rankLoop starts one long-lived goroutine per rank of w, each running
// its step once per call of the returned round function, so an
// AllocsPerRun measurement of a collective excludes goroutine start-up.
// The goroutines exit when the test ends.
func rankLoop(t *testing.T, w *simmpi.World, step func(c mpi.Comm) func() error) (round func()) {
	t.Helper()
	ranks := w.Size()
	start := make([]chan struct{}, ranks)
	done := make(chan error, ranks)
	for r := range start {
		start[r] = make(chan struct{})
		c, err := w.Comm(r)
		if err != nil {
			t.Fatal(err)
		}
		run := step(c)
		go func(start <-chan struct{}) {
			for range start {
				done <- run()
			}
		}(start[r])
	}
	t.Cleanup(func() {
		for _, ch := range start {
			close(ch)
		}
	})
	return func() {
		for _, ch := range start {
			ch <- struct{}{}
		}
		for range start {
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestAllgatherCGShapedSteadyStateAllocs pins an allgather of CG-sized
// blocks: 8 ranks each contribute a 9.2 KB block, so the packed payload
// root broadcasts is ≈74 KB. Every gather and bcast buffer comes from the
// arena and goes back to it when the callback returns, and each rank
// decodes the parts straight onto its reused full vector, so a warm
// round trip allocates only the per-call bookkeeping (the unpacked part
// slices and root's message table) — not one 74 KB payload per hop.
func TestAllgatherCGShapedSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not meaningful under the race detector")
	}
	const ranks, rows = 8, 1150
	w, err := simmpi.NewWorld(ranks)
	if err != nil {
		t.Fatal(err)
	}
	round := rankLoop(t, w, func(c mpi.Comm) func() error {
		r := c.Rank()
		data := make([]byte, 8*rows)
		for i := 0; i < rows; i++ {
			binary.LittleEndian.PutUint64(data[8*i:], math.Float64bits(float64(r*rows+i)))
		}
		full := make([]float64, 0, ranks*rows)
		return func() error {
			return mpi.Allgather(c, data, func(parts [][]byte) error {
				full = full[:0]
				for _, p := range parts {
					for i := 0; i+8 <= len(p); i += 8 {
						full = append(full, math.Float64frombits(binary.LittleEndian.Uint64(p[i:])))
					}
				}
				for i, x := range full {
					if x != float64(i) {
						return fmt.Errorf("rank %d: full[%d] = %v", r, i, x)
					}
				}
				if len(full) != ranks*rows {
					return fmt.Errorf("rank %d: assembled %d of %d", r, len(full), ranks*rows)
				}
				return nil
			})
		}
	})
	for i := 0; i < 20; i++ {
		round() // warm the arena's size classes, the 128 KiB one included
	}
	// Budget: 10 measured (8 unpacked part slices, root's message and
	// part tables) plus slack for the runtime. A payload copy that skips
	// the arena, or a buffer not released, costs at least 8 more.
	if avg := testing.AllocsPerRun(50, round); avg > 12 {
		t.Errorf("8-rank CG-shaped allgather allocates %.2f per round, want ≤12", avg)
	}
}

// TestAllreduceTreeSteadyStateAllocs pins the tree allreduce CG runs
// twice per step: the accumulator is arena scratch that every hop
// combines into in place and forwards as is, and each non-root rank
// releases the release message after decoding it, so a warm 8-rank
// round allocates just each rank's result vector.
func TestAllreduceTreeSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not meaningful under the race detector")
	}
	const ranks = 8
	w, err := simmpi.NewWorld(ranks)
	if err != nil {
		t.Fatal(err)
	}
	round := rankLoop(t, w, func(c mpi.Comm) func() error {
		in := []float64{float64(c.Rank())}
		return func() error {
			out, err := mpi.AllreduceFloat64s(c, in, mpi.OpSum)
			if err != nil {
				return err
			}
			if out[0] != ranks*(ranks-1)/2 {
				return fmt.Errorf("rank %d: sum = %v", c.Rank(), out[0])
			}
			return nil
		}
	})
	for i := 0; i < 20; i++ {
		round()
	}
	// Budget: 8 result vectors measured, plus slack. A per-hop encode
	// or an unreleased message costs at least 7 more.
	if avg := testing.AllocsPerRun(50, round); avg > 10 {
		t.Errorf("8-rank tree allreduce allocates %.2f per round, want ≤10", avg)
	}
}

// TestBarrierSteadyStateAllocs pins the tree barrier: its tokens are
// empty, so they skip the arena, and a warm 8-rank round allocates
// nothing.
func TestBarrierSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not meaningful under the race detector")
	}
	w, err := simmpi.NewWorld(8)
	if err != nil {
		t.Fatal(err)
	}
	round := rankLoop(t, w, func(c mpi.Comm) func() error {
		return func() error { return mpi.Barrier(c) }
	})
	for i := 0; i < 20; i++ {
		round()
	}
	if avg := testing.AllocsPerRun(50, round); avg > 1 {
		t.Errorf("8-rank barrier allocates %.2f per round, want ≤1", avg)
	}
}
