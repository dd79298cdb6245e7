package redundancy

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/mpi"
	"repro/internal/simmpi"
)

// TestWildcardLeaderDiesMidStream kills the wildcard leader after it has
// already forwarded several envelopes: the surviving replica must detect
// the death, resynchronise by sequence number, promote itself to leader,
// and keep delivering the remaining messages in a consistent order.
func TestWildcardLeaderDiesMidStream(t *testing.T) {
	const (
		n        = 3  // rank 0 master, 1..2 workers
		perWork  = 20 // messages per worker
		killAt   = 8  // master replica 0 dies after its 8th delivery
		expected = (n - 1) * perWork
	)
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

	var mu sync.Mutex
	orders := map[int][]int{}
	appErr, failures := w.Run(func(pc *simmpi.Comm) error {
		rc, err := New(pc, m, Options{Live: w})
		if err != nil {
			return err
		}
		if rc.Rank() != 0 {
			for i := 0; i < perWork; i++ {
				if err := rc.Send(0, 7, []byte{byte(rc.Rank()), byte(i)}); err != nil {
					return err
				}
				time.Sleep(time.Millisecond) // spread the stream out
			}
			return nil
		}
		var order []int
		for len(order) < expected {
			msg, err := rc.Recv(mpi.AnySource, 7)
			if err != nil {
				if rc.ReplicaIndex() == 0 && !w.Alive(pc.Rank()) {
					return err // the killed leader unwinds; expected
				}
				return err
			}
			order = append(order, msg.Source)
			if rc.ReplicaIndex() == 0 && len(order) == killAt {
				// The leader dies mid-protocol, after forwarding killAt
				// envelopes to its sibling.
				w.Kill(sphere0[0])
			}
		}
		mu.Lock()
		orders[rc.ReplicaIndex()] = order
		mu.Unlock()
		return nil
	})
	if appErr != nil {
		t.Fatalf("app error: %v", appErr)
	}
	// The killed leader's goroutine must be the only failure.
	for _, f := range failures {
		if f.Rank != sphere0[0] {
			t.Fatalf("unexpected failure on physical rank %d: %v", f.Rank, f.Err)
		}
	}
	full := orders[1]
	if len(full) != expected {
		t.Fatalf("survivor delivered %d/%d messages", len(full), expected)
	}
	// Every worker's full stream must be delivered exactly once each.
	counts := map[int]int{}
	for _, src := range full {
		counts[src]++
	}
	for wkr := 1; wkr < n; wkr++ {
		if counts[wkr] != perWork {
			t.Fatalf("worker %d delivered %d times, want %d (order %v)", wkr, counts[wkr], perWork, full)
		}
	}
}

// TestWildcardAnyTag uses (AnySource, AnyTag) receives under redundancy:
// the envelope protocol must transport the matched tag so both replicas
// deliver identical (source, tag) sequences.
func TestWildcardAnyTag(t *testing.T) {
	const n = 3
	var mu sync.Mutex
	seqs := map[int][]string{}
	launch(t, n, 2, Options{}, func(c *Comm) error {
		if c.Rank() == 0 {
			var seq []string
			for i := 0; i < (n-1)*4; i++ {
				msg, err := c.Recv(mpi.AnySource, mpi.AnyTag)
				if err != nil {
					return err
				}
				if msg.Tag != int(msg.Data[0]) {
					return fmt.Errorf("delivered tag %d but payload says %d", msg.Tag, msg.Data[0])
				}
				seq = append(seq, fmt.Sprintf("%d/%d", msg.Source, msg.Tag))
			}
			mu.Lock()
			seqs[c.ReplicaIndex()] = seq
			mu.Unlock()
			return nil
		}
		for i := 0; i < 4; i++ {
			tag := c.Rank()*10 + i
			if err := c.Send(0, tag, []byte{byte(tag)}); err != nil {
				return err
			}
		}
		return nil
	})
	if len(seqs) != 2 {
		t.Fatalf("%d replica sequences", len(seqs))
	}
	if fmt.Sprint(seqs[0]) != fmt.Sprint(seqs[1]) {
		t.Fatalf("replicas diverged:\n  %v\n  %v", seqs[0], seqs[1])
	}
}

// TestWildcardMixedWithSpecific interleaves wildcard receives on one tag
// with specific receives on another: control-channel sequencing must not
// leak between them.
func TestWildcardMixedWithSpecific(t *testing.T) {
	const n = 3
	launch(t, n, 2, Options{}, func(c *Comm) error {
		if c.Rank() == 0 {
			for i := 0; i < 6; i++ {
				if i%2 == 0 {
					msg, err := c.Recv(mpi.AnySource, 1)
					if err != nil {
						return err
					}
					if msg.Tag != 1 {
						return fmt.Errorf("tag %d on wildcard channel", msg.Tag)
					}
				} else {
					msg, err := c.Recv(1, 2)
					if err != nil {
						return err
					}
					if msg.Source != 1 || msg.Tag != 2 {
						return fmt.Errorf("specific recv got %+v", msg)
					}
				}
			}
			return nil
		}
		if c.Rank() == 1 {
			for i := 0; i < 3; i++ {
				if err := c.Send(0, 2, []byte{9}); err != nil {
					return err
				}
			}
		}
		for i := 0; i < 3; i++ {
			if err := c.Send(0, 1, []byte{byte(c.Rank())}); err != nil {
				return err
			}
		}
		return nil
	})
}

// TestTwoWildcardChannels runs concurrent wildcard streams on two
// different tags; per-channel sequence counters must stay independent.
func TestTwoWildcardChannels(t *testing.T) {
	const n = 3
	var mu sync.Mutex
	got := map[string][]int{}
	launch(t, n, 2, Options{}, func(c *Comm) error {
		if c.Rank() == 0 {
			var a, b []int
			for i := 0; i < (n-1)*3; i++ {
				m1, err := c.Recv(mpi.AnySource, 1)
				if err != nil {
					return err
				}
				a = append(a, m1.Source)
				m2, err := c.Recv(mpi.AnySource, 2)
				if err != nil {
					return err
				}
				b = append(b, m2.Source)
			}
			mu.Lock()
			got[fmt.Sprintf("a%d", c.ReplicaIndex())] = a
			got[fmt.Sprintf("b%d", c.ReplicaIndex())] = b
			mu.Unlock()
			return nil
		}
		for i := 0; i < 3; i++ {
			if err := c.Send(0, 1, []byte{1}); err != nil {
				return err
			}
			if err := c.Send(0, 2, []byte{2}); err != nil {
				return err
			}
		}
		return nil
	})
	if fmt.Sprint(got["a0"]) != fmt.Sprint(got["a1"]) {
		t.Fatalf("channel 1 diverged: %v vs %v", got["a0"], got["a1"])
	}
	if fmt.Sprint(got["b0"]) != fmt.Sprint(got["b1"]) {
		t.Fatalf("channel 2 diverged: %v vs %v", got["b0"], got["b1"])
	}
}

// TestIsLeadFollowsLowestLiveReplica pins the single writer rule: in
// every sphere exactly the lowest live replica leads, and the role moves
// to the next twin when the lead is killed.
func TestIsLeadFollowsLowestLiveReplica(t *testing.T) {
	m, err := NewRankMap(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	w, err := simmpi.NewWorld(m.PhysicalSize())
	if err != nil {
		t.Fatal(err)
	}
	comms := make([]*Comm, m.PhysicalSize())
	for p := range comms {
		pc, err := w.Endpoint(p)
		if err != nil {
			t.Fatal(err)
		}
		if comms[p], err = Wrap(pc, m, mpi.WithLiveness(w)); err != nil {
			t.Fatal(err)
		}
	}
	sphere1, err := m.Sphere(1)
	if err != nil {
		t.Fatal(err)
	}
	check := func(lead1 int) {
		t.Helper()
		for _, c := range comms {
			want := c.ReplicaIndex() == 0
			if c.Rank() == 1 {
				want = c.ReplicaIndex() == lead1
			}
			if got := c.IsLead(); got != want {
				t.Errorf("lead1=%d: physical %d (virtual %d, replica %d) IsLead = %v, want %v",
					lead1, c.Physical(), c.Rank(), c.ReplicaIndex(), got, want)
			}
		}
	}
	check(0)
	w.Kill(sphere1[0])
	check(1)
	w.Kill(sphere1[1])
	check(2)
	w.Kill(sphere1[2])
	check(-1) // a dead sphere has no lead
}
