// Package transporttest is the conformance suite every mpi.Transport
// backend must pass: the send/recv ordering law, wildcard receives,
// collective round trips, CG's answer bits, fail-stop kill semantics (including the
// match-first rule — a message queued before its sender died is still
// delivered), the Interrupt → Revive → Resume epoch protocol, and the
// receive engine's wakeup routing. The
// simulated backend (simmpi) and the socket backend (procmpi) run the
// same suite, which is what makes "transport-agnostic recovery" a tested
// property instead of a design intention.
package transporttest

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/mpi"
	"repro/internal/simmpi"
)

// Factory builds a transport of n physical ranks for one test or
// benchmark; register cleanup with t.Cleanup.
type Factory func(t testing.TB, n int) mpi.Transport

// RunSuite runs every conformance test against the factory's backend.
func RunSuite(t *testing.T, factory Factory) {
	t.Run("Ordering", func(t *testing.T) { testOrdering(t, factory) })
	t.Run("Wildcard", func(t *testing.T) { testWildcard(t, factory) })
	t.Run("Collective", func(t *testing.T) { testCollective(t, factory) })
	t.Run("CollectiveBits", func(t *testing.T) { testCollectiveBits(t, factory) })
	t.Run("CGBits", func(t *testing.T) { testCGBits(t, factory) })
	t.Run("RequestSet", func(t *testing.T) { testRequestSet(t, factory) })
	t.Run("QueuedBeforeDeath", func(t *testing.T) { testQueuedBeforeDeath(t, factory) })
	t.Run("KillSemantics", func(t *testing.T) { testKillSemantics(t, factory) })
	t.Run("AbortSemantics", func(t *testing.T) { testAbortSemantics(t, factory) })
	t.Run("EpochRevive", func(t *testing.T) { testEpochRevive(t, factory) })
	t.Run("Errhandler", func(t *testing.T) { testErrhandler(t, factory) })
	t.Run("FailureAck", func(t *testing.T) { testFailureAck(t, factory) })
	t.Run("Agree", func(t *testing.T) { testAgree(t, factory) })
	t.Run("AgreeAcrossEpoch", func(t *testing.T) { testAgreeAcrossEpoch(t, factory) })
	t.Run("Shrink", func(t *testing.T) { testShrink(t, factory) })
	t.Run("ShrinkRacesCollective", func(t *testing.T) { testShrinkRacesCollective(t, factory) })
	t.Run("TargetedWakeupRoutesEachTagToItsWaiter", func(t *testing.T) { testTargetedWakeup(t, factory) })
	t.Run("ProbePassesWakeupToReceiver", func(t *testing.T) { testProbePassesWakeup(t, factory) })
	t.Run("WildcardWaitersWakeOnSpecificDeposit", func(t *testing.T) { testWildcardWaitersWake(t, factory) })
	t.Run("KillWakesAllSelectors", func(t *testing.T) { testKillWakesAllSelectors(t, factory) })
	t.Run("OverlappingSelectorsNoLostWakeup", func(t *testing.T) { testOverlappingSelectors(t, factory) })
}

func endpoint(t testing.TB, tr mpi.Transport, rank int) mpi.Comm {
	t.Helper()
	c, err := tr.Endpoint(rank)
	if err != nil {
		t.Fatalf("Endpoint(%d): %v", rank, err)
	}
	return c
}

// testOrdering pins the ordering law: matching is FIFO per (src, tag)
// pair, including under interleaved tags on the same pair of ranks.
func testOrdering(t *testing.T, factory Factory) {
	tr := factory(t, 2)
	c0, c1 := endpoint(t, tr, 0), endpoint(t, tr, 1)
	const n = 50
	errc := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			if err := c0.Send(1, 7, []byte{byte(i)}); err != nil {
				errc <- err
				return
			}
			if err := c0.Send(1, 8, []byte{byte(n + i)}); err != nil {
				errc <- err
				return
			}
		}
		errc <- nil
	}()
	// Drain tag 8 first: its FIFO must hold independently of tag 7's
	// undrained backlog.
	for i := 0; i < n; i++ {
		msg, err := c1.Recv(0, 8)
		if err != nil {
			t.Fatalf("recv tag 8 #%d: %v", i, err)
		}
		if len(msg.Data) != 1 || msg.Data[0] != byte(n+i) {
			t.Fatalf("tag 8 #%d out of order: got %v", i, msg.Data)
		}
		msg.Release()
	}
	for i := 0; i < n; i++ {
		msg, err := c1.Recv(0, 7)
		if err != nil {
			t.Fatalf("recv tag 7 #%d: %v", i, err)
		}
		if len(msg.Data) != 1 || msg.Data[0] != byte(i) {
			t.Fatalf("tag 7 #%d out of order: got %v", i, msg.Data)
		}
		msg.Release()
	}
	if err := <-errc; err != nil {
		t.Fatalf("sender: %v", err)
	}
}

// testWildcard covers AnySource and AnyTag receives.
func testWildcard(t *testing.T, factory Factory) {
	tr := factory(t, 3)
	c0 := endpoint(t, tr, 0)
	for r := 1; r <= 2; r++ {
		cr := endpoint(t, tr, r)
		if err := cr.Send(0, 100+r, []byte{byte(r)}); err != nil {
			t.Fatalf("send from %d: %v", r, err)
		}
	}
	seen := map[int]bool{}
	for i := 0; i < 2; i++ {
		msg, err := c0.Recv(mpi.AnySource, mpi.AnyTag)
		if err != nil {
			t.Fatalf("wildcard recv: %v", err)
		}
		if msg.Tag != 100+msg.Source || len(msg.Data) != 1 || int(msg.Data[0]) != msg.Source {
			t.Fatalf("wildcard envelope mismatch: %+v", msg)
		}
		seen[msg.Source] = true
		msg.Release()
	}
	if !seen[1] || !seen[2] {
		t.Fatalf("wildcard receives missed a source: %v", seen)
	}
	// Source-wildcard with a pinned tag must skip the non-matching tag.
	c1 := endpoint(t, tr, 1)
	if err := c1.Send(0, 200, nil); err != nil {
		t.Fatal(err)
	}
	if err := c1.Send(0, 201, []byte("x")); err != nil {
		t.Fatal(err)
	}
	msg, err := c0.Recv(mpi.AnySource, 201)
	if err != nil {
		t.Fatalf("recv(*, 201): %v", err)
	}
	if msg.Tag != 201 || string(msg.Data) != "x" {
		t.Fatalf("recv(*, 201) got %+v", msg)
	}
	msg.Release()
}

// testCollective runs an allreduce across every rank — the collectives
// are built on point-to-point, so this exercises matched traffic in all
// directions at once.
func testCollective(t *testing.T, factory Factory) {
	const n = 4
	tr := factory(t, n)
	errs := make(chan error, n)
	for r := 0; r < n; r++ {
		go func(rank int) {
			c, err := tr.Endpoint(rank)
			if err != nil {
				errs <- err
				return
			}
			out, err := mpi.AllreduceFloat64s(c, []float64{float64(rank + 1)}, mpi.OpSum)
			if err != nil {
				errs <- fmt.Errorf("rank %d allreduce: %w", rank, err)
				return
			}
			want := float64(n * (n + 1) / 2)
			if len(out) != 1 || out[0] != want {
				errs <- fmt.Errorf("rank %d allreduce = %v, want [%v]", rank, out, want)
				return
			}
			errs <- nil
		}(r)
	}
	for r := 0; r < n; r++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// testCollectiveBits pins the reductions' combine order on the wire:
// Barrier, an Allreduce and a Reduce at every root over 11 ranks (a
// two-level radix-8 tree) give exactly the bits of the binomial combine
// order, computed here in one place, so every backend gives the same
// bits.
func testCollectiveBits(t *testing.T, factory Factory) {
	const n = 11
	in := make([][]float64, n)
	for r := range in {
		// Magnitudes spanning 30 decades, so each sum rounds and a
		// different combine order shows in the bits.
		in[r] = []float64{math.Pow(10, float64(3*r%31-15)) * (1 + float64(r)/7), -1 / float64(r+3)}
	}
	tr := factory(t, n)
	errs := make(chan error, n)
	for r := 0; r < n; r++ {
		go func(rank int) {
			errs <- func() error {
				c, err := tr.Endpoint(rank)
				if err != nil {
					return err
				}
				if err := mpi.Barrier(c); err != nil {
					return fmt.Errorf("rank %d barrier: %w", rank, err)
				}
				out, err := mpi.AllreduceFloat64s(c, in[rank], mpi.OpSum)
				if err != nil {
					return fmt.Errorf("rank %d allreduce: %w", rank, err)
				}
				if err := sameBits(out, binomialSum(in, 0)); err != nil {
					return fmt.Errorf("rank %d allreduce: %w", rank, err)
				}
				for root := 0; root < n; root++ {
					out, err := mpi.ReduceFloat64s(c, root, in[rank], mpi.OpSum)
					if err != nil {
						return fmt.Errorf("rank %d reduce to %d: %w", rank, root, err)
					}
					if rank != root {
						continue
					}
					if err := sameBits(out, binomialSum(in, root)); err != nil {
						return fmt.Errorf("reduce to %d: %w", root, err)
					}
				}
				return mpi.Barrier(c)
			}()
		}(r)
	}
	for r := 0; r < n; r++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// binomialSum sums the ranks' vectors onto root in the binomial tree's
// order: relative rank rel adds in rel+mask's partial sum, its own on the
// left, for mask = 1, 2, 4, ….
func binomialSum(in [][]float64, root int) []float64 {
	n := len(in)
	acc := make([][]float64, n)
	for rel := range acc {
		acc[rel] = append([]float64(nil), in[(rel+root)%n]...)
	}
	for mask := 1; mask < n; mask <<= 1 {
		for rel := 0; rel+mask < n; rel += 2 * mask {
			for i := range acc[rel] {
				acc[rel][i] += acc[rel+mask][i]
			}
		}
	}
	return acc[0]
}

func sameBits(got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("got %v, want %v", got, want)
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Errorf("element %d: got %x, want %x", i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
	return nil
}

// testCGBits runs apps.CG on the backend and on simmpi and checks every
// rank's answer bits agree: on a banded matrix, whose halo plan moves
// one grid row to each neighbour, and on one whose rows reach into every
// rank's block, so every rank sends to every other.
func testCGBits(t *testing.T, factory Factory) {
	lap, err := apps.Laplacian2D(6)
	if err != nil {
		t.Fatal(err)
	}
	random, err := apps.RandomSPD(40, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 5; r++ {
		clo, chi := random.ColumnSpan(apps.RowRange(random.N, r, 5))
		for q := 0; q < 5; q++ {
			if lo, hi := apps.RowRange(random.N, q, 5); max(lo, clo) >= min(hi, chi) {
				t.Fatalf("RandomSPD rank %d's window [%d, %d) misses rank %d's block [%d, %d)", r, clo, chi, q, lo, hi)
			}
		}
	}
	for _, tc := range []struct {
		name  string
		m     *apps.CSRMatrix
		ranks int
	}{{"banded", lap, 4}, {"all-to-all", random, 5}} {
		t.Run(tc.name, func(t *testing.T) {
			ref, err := simmpi.NewWorld(tc.ranks)
			if err != nil {
				t.Fatal(err)
			}
			want := runCGBits(t, ref, tc.m)
			got := runCGBits(t, factory(t, tc.ranks), tc.m)
			for r := range want {
				if got[r] != want[r] {
					t.Errorf("rank %d: (checksum, residual) bits %#x, simmpi gives %#x", r, got[r], want[r])
				}
			}
		})
	}
}

// runCGBits runs a 25-iteration CG on m over every rank of tr and
// returns each rank's checksum and residual-norm bits. A rank that
// fails aborts the transport, so its peers cannot wait on it forever.
func runCGBits(t *testing.T, tr mpi.Transport, m *apps.CSRMatrix) [][2]uint64 {
	t.Helper()
	n := tr.Size()
	out := make([][2]uint64, n)
	errs := make(chan error, n)
	for r := 0; r < n; r++ {
		go func(rank int) {
			err := func() error {
				c, err := tr.Endpoint(rank)
				if err != nil {
					return err
				}
				app := &apps.CG{Matrix: m, Iterations: 25}
				if err := app.Run(&apps.Context{Comm: c}); err != nil {
					return fmt.Errorf("rank %d: %w", rank, err)
				}
				out[rank] = [2]uint64{math.Float64bits(app.Checksum), math.Float64bits(app.ResidualNorm)}
				return nil
			}()
			if err != nil {
				tr.Abort()
			}
			errs <- err
		}(r)
	}
	for r := 0; r < n; r++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// testRequestSet covers the non-blocking API: post-then-waitall with
// lazy receive matching.
func testRequestSet(t *testing.T, factory Factory) {
	tr := factory(t, 2)
	c0, c1 := endpoint(t, tr, 0), endpoint(t, tr, 1)
	var reqs []mpi.Request
	for i := 0; i < 4; i++ {
		r, err := c1.Irecv(0, 40+i)
		if err != nil {
			t.Fatal(err)
		}
		reqs = append(reqs, r)
	}
	for i := 0; i < 4; i++ {
		r, err := c0.Isend(1, 40+i, []byte{byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := r.Wait(); err != nil {
			t.Fatalf("isend wait: %v", err)
		}
	}
	for i, r := range reqs {
		msg, st, err := r.Wait()
		if err != nil {
			t.Fatalf("irecv wait #%d: %v", i, err)
		}
		if st.Source != 0 || st.Tag != 40+i || len(msg.Data) != 1 || msg.Data[0] != byte(i) {
			t.Fatalf("irecv #%d got %+v %+v", i, msg, st)
		}
		msg.Release()
	}
}

// testQueuedBeforeDeath pins the match-first law: a message queued
// before its sender died is still delivered — death invalidates only
// future traffic — and only then does the posted receive fail with
// ErrPeerDead.
func testQueuedBeforeDeath(t *testing.T, factory Factory) {
	tr := factory(t, 2)
	c0, c1 := endpoint(t, tr, 0), endpoint(t, tr, 1)
	if err := c1.Send(0, 5, []byte("last words")); err != nil {
		t.Fatal(err)
	}
	// Probe synchronises: the message is in rank 0's mailbox before the
	// kill lands (Send alone is eager and may still be in flight on a
	// socket transport).
	st, err := c0.Probe(1, 5)
	if err != nil {
		t.Fatalf("probe: %v", err)
	}
	if st.Source != 1 || st.Tag != 5 {
		t.Fatalf("probe status %+v", st)
	}
	tr.Kill(1)
	if tr.Alive(1) {
		t.Fatal("rank 1 alive after Kill")
	}
	msg, err := c0.Recv(1, 5)
	if err != nil {
		t.Fatalf("queued-before-death message not delivered: %v", err)
	}
	if string(msg.Data) != "last words" {
		t.Fatalf("payload = %q", msg.Data)
	}
	msg.Release()
	if _, err := c0.Recv(1, 5); !errors.Is(err, mpi.ErrPeerDead) {
		t.Fatalf("recv from dead peer: err = %v, want ErrPeerDead", err)
	}
}

// testKillSemantics covers the fail-stop contract: the victim's own
// operations fail with ErrKilled, sends to it are silently dropped, and
// the liveness views update.
func testKillSemantics(t *testing.T, factory Factory) {
	tr := factory(t, 3)
	c0, c1 := endpoint(t, tr, 0), endpoint(t, tr, 1)
	// A receive parked before the kill must be woken with ErrPeerDead.
	parked := make(chan error, 1)
	go func() {
		_, err := c0.Recv(1, 9)
		parked <- err
	}()
	tr.Kill(1)
	if err := <-parked; !errors.Is(err, mpi.ErrPeerDead) {
		t.Fatalf("parked recv: err = %v, want ErrPeerDead", err)
	}
	if _, err := c1.Recv(0, 9); !errors.Is(err, mpi.ErrKilled) {
		t.Fatalf("victim recv: err = %v, want ErrKilled", err)
	}
	if err := c0.Send(1, 9, []byte("into the void")); err != nil {
		t.Fatalf("send to dead rank: err = %v, want silent drop", err)
	}
	if got := tr.AliveCount(); got != 2 {
		t.Fatalf("AliveCount = %d, want 2", got)
	}
	var dead []int
	tr.ForEachDead(func(r int) { dead = append(dead, r) })
	if len(dead) != 1 || dead[0] != 1 {
		t.Fatalf("ForEachDead = %v, want [1]", dead)
	}
	tr.Kill(1) // idempotent
	if got := tr.AliveCount(); got != 2 {
		t.Fatalf("AliveCount after double kill = %d, want 2", got)
	}
}

// testAbortSemantics covers teardown: every parked and future operation
// fails with ErrAborted.
func testAbortSemantics(t *testing.T, factory Factory) {
	tr := factory(t, 2)
	c0 := endpoint(t, tr, 0)
	parked := make(chan error, 1)
	go func() {
		_, err := c0.Recv(1, 3)
		parked <- err
	}()
	// Give the receive a moment to park; the wakeup must find it.
	time.Sleep(20 * time.Millisecond)
	tr.Abort()
	if err := <-parked; !errors.Is(err, mpi.ErrAborted) {
		t.Fatalf("parked recv: err = %v, want ErrAborted", err)
	}
	if !tr.Aborted() {
		t.Fatal("Aborted() = false after Abort")
	}
	if err := c0.Send(1, 3, nil); !errors.Is(err, mpi.ErrAborted) {
		t.Fatalf("send after abort: err = %v, want ErrAborted", err)
	}
}

// testEpochRevive drives the full recovery protocol: kill a rank,
// interrupt the epoch (parked operations release with ErrInterrupted),
// revive the dead rank, resume, and prove the fresh epoch carries
// traffic for every rank — including the revived one — with purged
// mailboxes.
func testEpochRevive(t *testing.T, factory Factory) {
	const n = 4
	tr := factory(t, n)
	c3 := endpoint(t, tr, 3)

	// Stale traffic from the doomed epoch: must be purged by Resume.
	if err := c3.Send(0, 77, []byte("stale")); err != nil {
		t.Fatal(err)
	}
	c0 := endpoint(t, tr, 0)
	if _, err := c0.Probe(3, 77); err != nil {
		t.Fatalf("stale probe: %v", err)
	}

	tr.Kill(2)
	if _, err := c3.Recv(2, 9); !errors.Is(err, mpi.ErrPeerDead) {
		t.Fatalf("recv from dead: err = %v, want ErrPeerDead", err)
	}

	parked := make(chan error, 1)
	go func() {
		_, err := c3.Recv(1, 11)
		parked <- err
	}()
	time.Sleep(20 * time.Millisecond)
	tr.Interrupt()
	if !tr.Interrupted() {
		t.Fatal("Interrupted() = false after Interrupt")
	}
	if err := <-parked; !errors.Is(err, mpi.ErrInterrupted) {
		t.Fatalf("parked recv on interrupt: err = %v, want ErrInterrupted", err)
	}

	tr.Revive(2)
	if !tr.Alive(2) {
		t.Fatal("rank 2 dead after Revive")
	}
	tr.Resume()
	if tr.Interrupted() {
		t.Fatal("Interrupted() = true after Resume")
	}
	if got := tr.AliveCount(); got != n {
		t.Fatalf("AliveCount after revive = %d, want %d", got, n)
	}

	// Fresh epoch: a full ring with every rank participating. Endpoints
	// are re-fetched — a socket transport hands out the revived rank's
	// new incarnation.
	errs := make(chan error, n)
	for r := 0; r < n; r++ {
		go func(rank int) {
			c, err := tr.Endpoint(rank)
			if err != nil {
				errs <- err
				return
			}
			if err := c.Send((rank+1)%n, 13, []byte{byte(rank)}); err != nil {
				errs <- fmt.Errorf("rank %d ring send: %w", rank, err)
				return
			}
			msg, err := c.Recv((rank+n-1)%n, 13)
			if err != nil {
				errs <- fmt.Errorf("rank %d ring recv: %w", rank, err)
				return
			}
			if len(msg.Data) != 1 || msg.Data[0] != byte((rank+n-1)%n) {
				errs <- fmt.Errorf("rank %d ring payload %v", rank, msg.Data)
				return
			}
			msg.Release()
			errs <- nil
		}(r)
	}
	for r := 0; r < n; r++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}

	// The stale pre-interrupt message must have been purged: a receive
	// for it would hang, so probe via the non-blocking path.
	c0 = endpoint(t, tr, 0)
	req, err := c0.Irecv(3, 77)
	if err != nil {
		t.Fatal(err)
	}
	if done, msg, _, _ := req.Test(); done {
		t.Fatalf("stale epoch message survived resume: %+v", msg)
	}
}
