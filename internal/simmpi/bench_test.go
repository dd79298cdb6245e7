package simmpi

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/mpi"
)

// Hot-path benchmarks for the CI bench gate (cmd/benchgate). Each
// iteration performs a fixed batch of work so a single `-benchtime 1x`
// sample is well above timer granularity.

const benchBatch = 2000

// BenchmarkPingPong measures the blocking send/recv round trip — the
// path every redundant message and every peer-checkpoint shard rides.
func BenchmarkPingPong(b *testing.B) {
	w, err := NewWorld(2)
	if err != nil {
		b.Fatal(err)
	}
	c0, _ := w.Comm(0)
	c1, _ := w.Comm(1)
	payload := make([]byte, 256)
	// Prime the first-touch state (arena size-class pins, pair queues,
	// map buckets) so a single `-benchtime 1x` sample measures the
	// steady-state round trip, which is allocation-free.
	for _, dir := range [][2]*Comm{{c0, c1}, {c1, c0}} {
		if err := dir[0].Send(dir[1].Rank(), 1, payload); err != nil {
			b.Fatal(err)
		}
		msg, err := dir[1].Recv(dir[0].Rank(), 1)
		if err != nil {
			b.Fatal(err)
		}
		msg.Release()
	}
	b.SetBytes(benchBatch * int64(len(payload)) * 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < benchBatch; j++ {
			if err := c0.Send(1, 1, payload); err != nil {
				b.Fatal(err)
			}
			msg, err := c1.Recv(0, 1)
			if err != nil {
				b.Fatal(err)
			}
			msg.Release()
			if err := c1.Send(0, 2, payload); err != nil {
				b.Fatal(err)
			}
			msg, err = c0.Recv(1, 2)
			if err != nil {
				b.Fatal(err)
			}
			msg.Release()
		}
	}
}

// BenchmarkFanInAnySource measures wildcard receives with competing
// senders — the peer-store Serve loop's steady state.
func BenchmarkFanInAnySource(b *testing.B) {
	const senders = 4
	w, err := NewWorld(senders + 1)
	if err != nil {
		b.Fatal(err)
	}
	sink, _ := w.Comm(senders)
	comms := make([]*Comm, senders)
	for r := range comms {
		comms[r], _ = w.Comm(r)
	}
	payload := make([]byte, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		done := make(chan struct{})
		go func() {
			defer close(done)
			for j := 0; j < benchBatch; j++ {
				msg, err := sink.Recv(mpi.AnySource, mpi.AnyTag)
				if err != nil {
					b.Error(err)
					return
				}
				msg.Release()
			}
		}()
		for j := 0; j < benchBatch; j++ {
			if err := comms[j%senders].Send(senders, 1, payload); err != nil {
				b.Fatal(err)
			}
		}
		<-done
	}
}

// BenchmarkEpochBoundary measures the partial-restart epoch machinery:
// Interrupt, Revive of one rank, Resume — the fixed cost every
// sphere-local recovery pays before any peer fetch.
func BenchmarkEpochBoundary(b *testing.B) {
	w, err := NewWorld(8)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < benchBatch; j++ {
			w.Kill(3)
			w.Interrupt()
			w.Revive(3)
			w.Resume()
		}
	}
}

// benchCGRank runs iters iterations of conjugate gradient on this
// rank's slice of a 1-D tridiagonal Laplacian (Dirichlet boundaries,
// b = 1): nearest-neighbor halo exchange for the matvec plus three
// global sum-reductions per iteration — the canonical bulk-synchronous
// HPC communication shape.
func benchCGRank(c *Comm, local, iters int) error {
	n, me := c.Size(), c.Rank()
	r := make([]float64, local)
	p := make([]float64, local)
	x := make([]float64, local)
	ap := make([]float64, local)
	for i := range r {
		r[i], p[i] = 1, 1
	}
	dot := func(a, b []float64) float64 {
		s := 0.0
		for i := range a {
			s += a[i] * b[i]
		}
		return s
	}
	var wire [8]byte
	halo := func(v []float64) (lo, hi float64, err error) {
		if me+1 < n {
			binary.LittleEndian.PutUint64(wire[:], math.Float64bits(v[local-1]))
			if err := c.Send(me+1, 1, wire[:]); err != nil {
				return 0, 0, err
			}
		}
		if me > 0 {
			binary.LittleEndian.PutUint64(wire[:], math.Float64bits(v[0]))
			if err := c.Send(me-1, 2, wire[:]); err != nil {
				return 0, 0, err
			}
		}
		if me > 0 {
			msg, err := c.Recv(me-1, 1)
			if err != nil {
				return 0, 0, err
			}
			lo = math.Float64frombits(binary.LittleEndian.Uint64(msg.Data))
			msg.Release()
		}
		if me+1 < n {
			msg, err := c.Recv(me+1, 2)
			if err != nil {
				return 0, 0, err
			}
			hi = math.Float64frombits(binary.LittleEndian.Uint64(msg.Data))
			msg.Release()
		}
		return lo, hi, nil
	}
	g, err := mpi.AllreduceFloat64s(c, []float64{dot(r, r)}, mpi.OpSum)
	if err != nil {
		return err
	}
	rho := g[0]
	for it := 0; it < iters; it++ {
		lo, hi, err := halo(p)
		if err != nil {
			return err
		}
		for i := range ap {
			v := 2 * p[i]
			if i > 0 {
				v -= p[i-1]
			} else {
				v -= lo
			}
			if i+1 < local {
				v -= p[i+1]
			} else {
				v -= hi
			}
			ap[i] = v
		}
		g, err = mpi.AllreduceFloat64s(c, []float64{dot(p, ap)}, mpi.OpSum)
		if err != nil {
			return err
		}
		alpha := rho / g[0]
		for i := range x {
			x[i] += alpha * p[i]
			r[i] -= alpha * ap[i]
		}
		g, err = mpi.AllreduceFloat64s(c, []float64{dot(r, r)}, mpi.OpSum)
		if err != nil {
			return err
		}
		beta := g[0] / rho
		rho = g[0]
		for i := range p {
			p[i] = r[i] + beta*p[i]
		}
	}
	if math.IsNaN(rho) || math.IsInf(rho, 0) {
		return fmt.Errorf("rank %d: residual diverged to %v", me, rho)
	}
	return nil
}

// BenchmarkCG10kRanks runs a short distributed CG solve across 10,000
// ranks — the mid-scale gate for the sharded mailbox table. Each
// iteration stands up a fresh world (table construction is part of the
// scaling story), runs the solve, and tears it down.
func BenchmarkCG10kRanks(b *testing.B) {
	const (
		ranks = 10_000
		local = 4
		iters = 4
	)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w, err := NewWorld(ranks)
		if err != nil {
			b.Fatal(err)
		}
		appErr, failures := w.Run(func(c *Comm) error {
			return benchCGRank(c, local, iters)
		})
		if appErr != nil {
			b.Fatal(appErr)
		}
		if len(failures) != 0 {
			b.Fatalf("failures: %v", failures)
		}
	}
}

// BenchmarkBarrierAllreduce100k is the headline scale gate: 100,000
// virtual ranks complete a tree barrier and a global sum-reduction,
// verifying the exact sum on every rank. Each collective moves 2(p−1)
// messages up and down the radix-8 tree, whose inner nodes each take 7
// children, and exercises shard contention at nearly 200 ranks per
// shard.
func BenchmarkBarrierAllreduce100k(b *testing.B) {
	const ranks = 100_000
	want := float64(ranks) * float64(ranks+1) / 2
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w, err := NewWorld(ranks)
		if err != nil {
			b.Fatal(err)
		}
		appErr, failures := w.Run(func(c *Comm) error {
			if err := mpi.Barrier(c); err != nil {
				return err
			}
			out, err := mpi.AllreduceFloat64s(c, []float64{float64(c.Rank() + 1)}, mpi.OpSum)
			if err != nil {
				return err
			}
			if out[0] != want {
				return fmt.Errorf("rank %d: sum %v, want %v", c.Rank(), out[0], want)
			}
			return nil
		})
		if appErr != nil {
			b.Fatal(appErr)
		}
		if len(failures) != 0 {
			b.Fatalf("failures: %v", failures)
		}
	}
}

// BenchmarkMailboxManyWaiters is the thundering-herd workload the
// targeted-wakeup rework attacks: many goroutines blocked on distinct
// tags of one mailbox while a sender deposits round-robin. With the old
// per-deposit Broadcast every deposit woke all waiters to rescan the
// queue and park again (O(waiters) wakeups per message); per-selector
// wait queues wake exactly the matching waiter.
func BenchmarkMailboxManyWaiters(b *testing.B) {
	const waiters = 32
	const msgs = benchBatch
	w, err := NewWorld(2)
	if err != nil {
		b.Fatal(err)
	}
	c0, _ := w.Comm(0)
	c1, _ := w.Comm(1)
	payload := make([]byte, 64)
	b.SetBytes(msgs * int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		wg.Add(waiters)
		for t := 0; t < waiters; t++ {
			go func(tag int) {
				defer wg.Done()
				for k := 0; k < msgs/waiters; k++ {
					msg, err := c1.Recv(0, tag)
					if err != nil {
						b.Error(err)
						return
					}
					msg.Release()
				}
			}(t + 1)
		}
		for k := 0; k < msgs; k++ {
			if err := c0.Send(1, (k%waiters)+1, payload); err != nil {
				b.Fatal(err)
			}
		}
		wg.Wait()
	}
}
