package redundancy

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/mpi"
	"repro/internal/simmpi"
)

// launch runs fn once per physical rank of a redundant world at the given
// degree, each wrapped in its virtual-rank view, and fails on any
// application error. Returns the world for post-run inspection.
func launch(t *testing.T, n int, degree float64, opts Options, fn func(c *Comm) error) *simmpi.World {
	t.Helper()
	w := launchErr(t, n, degree, opts, func(c *Comm) error { return fn(c) }, true)
	return w
}

func launchErr(t *testing.T, n int, degree float64, opts Options, fn func(c *Comm) error, failOnErr bool) *simmpi.World {
	t.Helper()
	m, err := NewRankMap(n, degree)
	if err != nil {
		t.Fatal(err)
	}
	w, err := simmpi.NewWorld(m.PhysicalSize())
	if err != nil {
		t.Fatal(err)
	}
	if opts.Live == nil {
		opts.Live = w
	}
	appErr, failures := w.Run(func(pc *simmpi.Comm) error {
		rc, err := New(pc, m, opts)
		if err != nil {
			return err
		}
		return fn(rc)
	})
	if failOnErr {
		if appErr != nil {
			t.Fatalf("app error: %v", appErr)
		}
		if len(failures) != 0 {
			t.Fatalf("failure errors: %v", failures)
		}
	}
	return w
}

func TestNewValidatesWorldSize(t *testing.T) {
	m, err := NewRankMap(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	w, err := simmpi.NewWorld(3) // wrong: map needs 8
	if err != nil {
		t.Fatal(err)
	}
	pc, err := w.Comm(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(pc, m, Options{}); err == nil {
		t.Fatal("mismatched world size accepted")
	}
}

func TestVirtualIdentity(t *testing.T) {
	launch(t, 4, 2.5, Options{}, func(c *Comm) error {
		if c.Size() != 4 {
			return fmt.Errorf("virtual size %d", c.Size())
		}
		if c.Rank() < 0 || c.Rank() >= 4 {
			return fmt.Errorf("virtual rank %d", c.Rank())
		}
		return nil
	})
}

func TestRingExchangeAllDegrees(t *testing.T) {
	for _, degree := range []float64{1, 1.25, 1.5, 1.75, 2, 2.5, 3} {
		degree := degree
		t.Run(fmt.Sprintf("r=%v", degree), func(t *testing.T) {
			const n = 8
			launch(t, n, degree, Options{}, func(c *Comm) error {
				right := (c.Rank() + 1) % n
				left := (c.Rank() - 1 + n) % n
				for iter := 0; iter < 10; iter++ {
					payload := []byte{byte(c.Rank()), byte(iter)}
					if err := c.Send(right, 5, payload); err != nil {
						return err
					}
					msg, err := c.Recv(left, 5)
					if err != nil {
						return err
					}
					if msg.Source != left || msg.Data[0] != byte(left) || msg.Data[1] != byte(iter) {
						return fmt.Errorf("iter %d: got %+v", iter, msg)
					}
				}
				return nil
			})
		})
	}
}

func TestPhysicalSendFanOut(t *testing.T) {
	// Fig. 1a: with 2 replicas each, one virtual send = 2 physical sends
	// per sender replica (4 total messages for the virtual message).
	var mu sync.Mutex
	var total uint64
	launch(t, 2, 2, Options{}, func(c *Comm) error {
		if c.Rank() == 0 {
			if err := c.Send(1, 1, []byte("x")); err != nil {
				return err
			}
		} else {
			if _, err := c.Recv(0, 1); err != nil {
				return err
			}
		}
		mu.Lock()
		total += c.Stats().PhysicalSends
		mu.Unlock()
		return nil
	})
	if total != 4 {
		t.Fatalf("physical sends = %d, want 4 (paper: up to 4x the messages)", total)
	}
}

func TestPartialRedundancyFanOut(t *testing.T) {
	// Fig. 1b: A has two replicas, B has one. A and A' each send one
	// message; B receives two.
	var mu sync.Mutex
	sends := map[int]uint64{}
	launch(t, 2, 1.5, Options{}, func(c *Comm) error {
		// At 1.5x on 2 ranks, rank 0 (even) is duplicated, rank 1 is not.
		if c.Rank() == 0 {
			if err := c.Send(1, 1, []byte("ab")); err != nil {
				return err
			}
		} else {
			msg, err := c.Recv(0, 1)
			if err != nil {
				return err
			}
			if string(msg.Data) != "ab" {
				return fmt.Errorf("payload %q", msg.Data)
			}
		}
		mu.Lock()
		sends[c.Rank()*10+c.ReplicaIndex()] += c.Stats().PhysicalSends
		mu.Unlock()
		return nil
	})
	if sends[0] != 1 || sends[1] != 1 {
		t.Fatalf("sender replicas sent %v, want 1 each", sends)
	}
}

func TestReplicaConsistencyDeterministicResult(t *testing.T) {
	// Every replica of every rank must compute the identical reduction
	// result: this is the core replica-consistency property.
	const n = 6
	var mu sync.Mutex
	results := map[string][]float64{}
	launch(t, n, 2, Options{}, func(c *Comm) error {
		acc := []float64{float64(c.Rank() + 1)}
		for iter := 0; iter < 5; iter++ {
			out, err := mpi.AllreduceFloat64s(c, acc, mpi.OpSum)
			if err != nil {
				return err
			}
			acc = out
		}
		mu.Lock()
		key := fmt.Sprintf("%d/%d", c.Rank(), c.ReplicaIndex())
		results[key] = acc
		mu.Unlock()
		return nil
	})
	var want []float64
	for key, got := range results {
		if want == nil {
			want = got
			continue
		}
		if got[0] != want[0] {
			t.Fatalf("replica %s diverged: %v vs %v", key, got, want)
		}
	}
	if len(results) != 12 {
		t.Fatalf("%d replica results, want 12", len(results))
	}
}

func TestCollectivesOverPartialRedundancy(t *testing.T) {
	const n = 5
	launch(t, n, 1.75, Options{}, func(c *Comm) error {
		if err := mpi.Barrier(c); err != nil {
			return err
		}
		got, err := mpi.Bcast(c, 2, payloadIf(c.Rank() == 2, "hello"))
		if err != nil {
			return err
		}
		if string(got) != "hello" {
			return fmt.Errorf("bcast got %q", got)
		}
		sum, err := mpi.AllreduceFloat64s(c, []float64{1}, mpi.OpSum)
		if err != nil {
			return err
		}
		if sum[0] != n {
			return fmt.Errorf("sum %v", sum)
		}
		return mpi.Allgather(c, []byte{byte(c.Rank())}, func(parts [][]byte) error {
			for i, p := range parts {
				if p[0] != byte(i) {
					return fmt.Errorf("allgather part %d = %v", i, p)
				}
			}
			return nil
		})
	})
}

func payloadIf(cond bool, s string) []byte {
	if cond {
		return []byte(s)
	}
	return nil
}

func TestWildcardSameOrderAcrossReplicas(t *testing.T) {
	// Workers send to rank 0 with AnySource receives on 0's replicas; both
	// replicas of rank 0 must observe the identical virtual sender order
	// (the §3 wildcard protocol's whole purpose).
	const n = 5 // rank 0 master, 1..4 workers
	var mu sync.Mutex
	orders := map[int][]int{}
	launch(t, n, 2, Options{}, func(c *Comm) error {
		if c.Rank() == 0 {
			var order []int
			for i := 0; i < (n-1)*3; i++ {
				msg, err := c.Recv(mpi.AnySource, 7)
				if err != nil {
					return err
				}
				if int(msg.Data[0]) != msg.Source {
					return fmt.Errorf("payload source %d != envelope %d", msg.Data[0], msg.Source)
				}
				order = append(order, msg.Source)
			}
			mu.Lock()
			orders[c.ReplicaIndex()] = order
			mu.Unlock()
			return nil
		}
		for i := 0; i < 3; i++ {
			if err := c.Send(0, 7, []byte{byte(c.Rank()), byte(i)}); err != nil {
				return err
			}
			// Stagger sends to mix arrival order between workers.
			time.Sleep(time.Duration(c.Rank()) * time.Millisecond)
		}
		return nil
	})
	if len(orders) != 2 {
		t.Fatalf("got %d orders, want 2 replicas", len(orders))
	}
	if fmt.Sprint(orders[0]) != fmt.Sprint(orders[1]) {
		t.Fatalf("replica orders diverged:\n  r0: %v\n  r1: %v", orders[0], orders[1])
	}
}

func TestWildcardAtTripleRedundancy(t *testing.T) {
	const n = 3
	var mu sync.Mutex
	orders := map[int][]int{}
	launch(t, n, 3, Options{}, func(c *Comm) error {
		if c.Rank() == 0 {
			var order []int
			for i := 0; i < (n-1)*4; i++ {
				msg, err := c.Recv(mpi.AnySource, 2)
				if err != nil {
					return err
				}
				order = append(order, msg.Source)
			}
			mu.Lock()
			orders[c.ReplicaIndex()] = order
			mu.Unlock()
			return nil
		}
		for i := 0; i < 4; i++ {
			if err := c.Send(0, 2, []byte{byte(i)}); err != nil {
				return err
			}
		}
		return nil
	})
	if len(orders) != 3 {
		t.Fatalf("%d orders", len(orders))
	}
	for idx := 1; idx < 3; idx++ {
		if fmt.Sprint(orders[idx]) != fmt.Sprint(orders[0]) {
			t.Fatalf("replica %d order %v != replica 0 order %v", idx, orders[idx], orders[0])
		}
	}
}

func TestSurvivesReplicaDeath(t *testing.T) {
	// Kill one replica of rank 1 before communication: the virtual rank
	// still works through its surviving replica.
	const n = 4
	m, err := NewRankMap(n, 2)
	if err != nil {
		t.Fatal(err)
	}
	w, err := simmpi.NewWorld(m.PhysicalSize())
	if err != nil {
		t.Fatal(err)
	}
	sphere1, err := m.Sphere(1)
	if err != nil {
		t.Fatal(err)
	}
	w.Kill(sphere1[0]) // kill rank 1's replica 0
	appErr, failures := w.Run(func(pc *simmpi.Comm) error {
		rc, err := New(pc, m, Options{Live: w})
		if err != nil {
			return err
		}
		if !w.Alive(pc.Rank()) {
			return nil // the dead replica does not participate
		}
		right := (rc.Rank() + 1) % n
		left := (rc.Rank() - 1 + n) % n
		for iter := 0; iter < 5; iter++ {
			if err := rc.Send(right, 3, []byte{byte(rc.Rank())}); err != nil {
				return err
			}
			msg, err := rc.Recv(left, 3)
			if err != nil {
				return err
			}
			if msg.Data[0] != byte(left) {
				return fmt.Errorf("got %v from %d", msg.Data, left)
			}
		}
		return nil
	})
	if appErr != nil {
		t.Fatalf("app error: %v", appErr)
	}
	if len(failures) != 0 {
		t.Fatalf("failures: %v", failures)
	}
}

func TestSphereDeathSurfaces(t *testing.T) {
	// Kill every replica of rank 1: receiving from it reports ErrSphereDead.
	m, err := NewRankMap(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	w, err := simmpi.NewWorld(m.PhysicalSize())
	if err != nil {
		t.Fatal(err)
	}
	sphere1, err := m.Sphere(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range sphere1 {
		w.Kill(p)
	}
	appErr, _ := w.Run(func(pc *simmpi.Comm) error {
		if !w.Alive(pc.Rank()) {
			return nil
		}
		rc, err := New(pc, m, Options{Live: w})
		if err != nil {
			return err
		}
		_, err = rc.Recv(1, 0)
		if !errors.Is(err, ErrSphereDead) {
			return fmt.Errorf("recv err = %v, want ErrSphereDead", err)
		}
		return nil
	})
	if appErr != nil {
		t.Fatal(appErr)
	}
}

func TestWildcardLeaderFailover(t *testing.T) {
	// The leader replica of the receiving sphere dies before the run;
	// the surviving replica must lead the wildcard protocol itself.
	const n = 3
	m, err := NewRankMap(n, 2)
	if err != nil {
		t.Fatal(err)
	}
	w, err := simmpi.NewWorld(m.PhysicalSize())
	if err != nil {
		t.Fatal(err)
	}
	sphere0, err := m.Sphere(0)
	if err != nil {
		t.Fatal(err)
	}
	w.Kill(sphere0[0]) // replica 0 of the master is gone
	appErr, failures := w.Run(func(pc *simmpi.Comm) error {
		if !w.Alive(pc.Rank()) {
			return nil
		}
		rc, err := New(pc, m, Options{Live: w})
		if err != nil {
			return err
		}
		if rc.Rank() == 0 {
			seen := 0
			for seen < 2*(n-1) {
				msg, err := rc.Recv(mpi.AnySource, 4)
				if err != nil {
					return err
				}
				if len(msg.Data) != 1 {
					return fmt.Errorf("bad payload %v", msg.Data)
				}
				seen++
			}
			return nil
		}
		for i := 0; i < 2; i++ {
			if err := rc.Send(0, 4, []byte{byte(i)}); err != nil {
				return err
			}
		}
		return nil
	})
	if appErr != nil {
		t.Fatalf("app error: %v", appErr)
	}
	if len(failures) != 0 {
		t.Fatalf("failures: %v", failures)
	}
}

func TestIrecvRequestSet(t *testing.T) {
	launch(t, 2, 2, Options{}, func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 6, []byte("nonblocking"))
		}
		req, err := c.Irecv(0, 6)
		if err != nil {
			return err
		}
		msg, st, err := req.Wait()
		if err != nil {
			return err
		}
		if st.Source != 0 || st.Len != len("nonblocking") {
			return fmt.Errorf("status %+v", st)
		}
		if string(msg.Data) != "nonblocking" {
			return fmt.Errorf("payload %q", msg.Data)
		}
		// Wait is idempotent.
		if again, _, err := req.Wait(); err != nil || string(again.Data) != "nonblocking" {
			return fmt.Errorf("second Wait: %q err=%v", again.Data, err)
		}
		msg.Release()
		return nil
	})
}

func TestIrecvTestPolling(t *testing.T) {
	launch(t, 2, 2, Options{}, func(c *Comm) error {
		if c.Rank() == 0 {
			time.Sleep(20 * time.Millisecond)
			return c.Send(1, 6, []byte("late"))
		}
		req, err := c.Irecv(0, 6)
		if err != nil {
			return err
		}
		deadline := time.Now().Add(5 * time.Second)
		for {
			done, msg, st, err := req.Test()
			if done {
				if err != nil {
					return err
				}
				if st.Len != 4 || string(msg.Data) != "late" {
					return fmt.Errorf("st %+v msg %q", st, msg.Data)
				}
				msg.Release()
				return nil
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("request never completed")
			}
			time.Sleep(time.Millisecond)
		}
	})
}

func TestIsendCompletes(t *testing.T) {
	launch(t, 2, 3, Options{}, func(c *Comm) error {
		if c.Rank() == 0 {
			req, err := c.Isend(1, 1, []byte("x"))
			if err != nil {
				return err
			}
			done, _, _, err := req.Test()
			if !done || err != nil {
				return fmt.Errorf("isend done=%v err=%v", done, err)
			}
			if _, _, err := req.Wait(); err != nil {
				return err
			}
			return nil
		}
		_, err := c.Recv(0, 1)
		return err
	})
}

func TestProbeVirtual(t *testing.T) {
	launch(t, 2, 2, Options{}, func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 9, []byte("abc"))
		}
		st, err := c.Probe(0, 9)
		if err != nil {
			return err
		}
		if st.Source != 0 || st.Len != 3 {
			return fmt.Errorf("probe %+v", st)
		}
		msg, err := c.Recv(0, 9)
		if err != nil {
			return err
		}
		if !bytes.Equal(msg.Data, []byte("abc")) {
			return fmt.Errorf("payload %q", msg.Data)
		}
		if _, err := c.Probe(mpi.AnySource, 9); err == nil {
			return fmt.Errorf("wildcard probe should be rejected")
		}
		return nil
	})
}

func TestControlTagRejected(t *testing.T) {
	launch(t, 2, 1, Options{}, func(c *Comm) error {
		if err := c.Send(1, mpi.TagControlBase+5, nil); !errors.Is(err, mpi.ErrInvalidTag) {
			return fmt.Errorf("control-tag send err = %v", err)
		}
		if _, err := c.Irecv(1, -3); !errors.Is(err, mpi.ErrInvalidTag) {
			return fmt.Errorf("negative-tag irecv err = %v", err)
		}
		return nil
	})
}

func TestVirtualCountTracking(t *testing.T) {
	var mu sync.Mutex
	counts := map[string][]uint64{}
	launch(t, 2, 2, Options{}, func(c *Comm) error {
		if c.Rank() == 0 {
			for i := 0; i < 3; i++ {
				if err := c.Send(1, 0, nil); err != nil {
					return err
				}
			}
		} else {
			for i := 0; i < 3; i++ {
				if _, err := c.Recv(0, 0); err != nil {
					return err
				}
			}
		}
		mu.Lock()
		counts[fmt.Sprintf("s%d/%d", c.Rank(), c.ReplicaIndex())] = c.SentCounts()
		counts[fmt.Sprintf("r%d/%d", c.Rank(), c.ReplicaIndex())] = c.RecvCounts()
		mu.Unlock()
		return nil
	})
	for _, idx := range []int{0, 1} {
		if got := counts[fmt.Sprintf("s0/%d", idx)]; got[1] != 3 {
			t.Fatalf("sender replica %d sent counts %v", idx, got)
		}
		if got := counts[fmt.Sprintf("r1/%d", idx)]; got[0] != 3 {
			t.Fatalf("receiver replica %d recv counts %v", idx, got)
		}
	}
}
