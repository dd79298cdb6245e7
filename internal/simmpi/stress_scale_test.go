package simmpi

import (
	"encoding/binary"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/mpi"
	"repro/internal/stats"
)

// TestScaleStressConservation runs a 1k+ rank world under -race with
// mixed traffic — exact-source point-to-point, wildcard (AnySource)
// fan-in, and collective-style hub aggregation — while a controller
// kills ranks mid-flight, and then audits per-(src, dst, tag) sequence
// numbers:
//
//   - conserved traffic (both endpoints outside the kill set) must
//     arrive complete, in order, with no duplicates — exactly seq
//     0..K-1;
//   - victim traffic must be an exact prefix of the sent sequence: FIFO
//     per (source, tag) plus fail-stop drops can lose only a suffix,
//     so any gap, duplicate, or reordering is a runtime bug.
//
// This is the sharded table's adversarial workload: kills race deposits
// and parked waiters across shards, wildcard receivers compete with
// exact ones, and the whole thing must stay sequentially sane.
func TestScaleStressConservation(t *testing.T) {
	if testing.Short() {
		t.Skip("1k-rank stress test skipped in -short mode")
	}
	const (
		groupA  = 768 // conserved ranks: 0..groupA-1, never killed
		groupB  = 256 // victim ranks: groupA..n-1, kill targets
		n       = groupA + groupB
		k       = 24 // messages per (sender, stream)
		hubs    = 8  // group-A collective fan-in aggregators (ranks 0..hubs-1)
		leafFan = 16 // leaves per hub
		kills   = 64
	)
	w, err := NewWorld(n)
	if err != nil {
		t.Fatal(err)
	}

	// recorded[dst] accumulates (src, tag, seq) triples in arrival order;
	// each rank appends only to its own slot, so no locking is needed.
	type receipt struct{ src, tag, seq int }
	recorded := make([][]receipt, n)

	payload := func(seq int) []byte {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(seq))
		return b[:]
	}
	seqOf := func(data []byte) int {
		return int(binary.LittleEndian.Uint64(data))
	}

	// Kill controller: fail-stop a random subset of group B while traffic
	// is in flight. Seeded stream keeps the target choice reproducible;
	// the interleaving with traffic is left to the scheduler on purpose.
	stream := stats.NewStream(0x5ca1ab1e)
	killSet := make(map[int]bool)
	for len(killSet) < kills {
		killSet[groupA+stream.Intn(groupB)] = true
	}
	var killWG sync.WaitGroup
	killWG.Add(1)
	go func() {
		defer killWG.Done()
		for r := range killSet {
			time.Sleep(50 * time.Microsecond)
			w.Kill(r)
		}
	}()

	const (
		tagRing  = 1 // A: exact-source ring traffic
		tagWild  = 2 // A: wildcard-received traffic
		tagHub   = 3 // A: hub fan-in (collective-style aggregation)
		tagVict  = 4 // B: victim pairwise traffic
		tagCross = 5 // B→A: cross-group traffic into conserved receivers
	)

	appErr, _ := w.Run(func(c *Comm) error {
		me := c.Rank()
		if me < groupA {
			// --- Group A: conserved. Three outbound streams... ---
			// ring: exact-tagged to the right neighbor (wraps inside A);
			// wild: to (me+7) mod groupA, received via AnySource;
			// hub: leaves 8..8+hubs*leafFan-1 feed rank (leaf-8)/leafFan.
			for seq := 0; seq < k; seq++ {
				if err := c.Send((me+1)%groupA, tagRing, payload(seq)); err != nil {
					return err
				}
				if err := c.Send((me+7)%groupA, tagWild, payload(seq)); err != nil {
					return err
				}
			}
			isLeaf := me >= hubs && me < hubs+hubs*leafFan
			if isLeaf {
				hub := (me - hubs) / leafFan
				for seq := 0; seq < k; seq++ {
					if err := c.Send(hub, tagHub, payload(seq)); err != nil {
						return err
					}
				}
			}
			// --- ...and the matching inbound streams. ---
			// Exact-source ring receives first: FIFO per (src, tag) makes
			// these deterministic.
			for seq := 0; seq < k; seq++ {
				msg, err := c.Recv((me-1+groupA)%groupA, tagRing)
				if err != nil {
					return err
				}
				recorded[me] = append(recorded[me], receipt{msg.Source, msg.Tag, seqOf(msg.Data)})
				msg.Release()
			}
			// Wildcard receives: k messages from (me-7), plus — for the
			// cross-group targets — up to k from a B rank that may die
			// mid-stream, so those use Probe+exact-Recv and tolerate
			// peer death.
			for seq := 0; seq < k; seq++ {
				msg, err := c.Recv(mpi.AnySource, tagWild)
				if err != nil {
					return err
				}
				recorded[me] = append(recorded[me], receipt{msg.Source, msg.Tag, seqOf(msg.Data)})
				msg.Release()
			}
			if me < hubs {
				// Collective-style fan-in: leafFan senders, one sink,
				// wildcard matching — the BenchmarkFanInAnySource shape.
				for i := 0; i < leafFan*k; i++ {
					msg, err := c.Recv(mpi.AnySource, tagHub)
					if err != nil {
						return err
					}
					recorded[me] = append(recorded[me], receipt{msg.Source, msg.Tag, seqOf(msg.Data)})
					msg.Release()
				}
			}
			if me >= groupA-groupB {
				// Cross-group target: exactly one B sender (killable).
				src := groupA + (me - (groupA - groupB))
				for seq := 0; seq < k; seq++ {
					msg, err := c.Recv(src, tagCross)
					if err != nil {
						if isFailureErr(err) {
							break // sender died: suffix lost, audited below
						}
						return err
					}
					recorded[me] = append(recorded[me], receipt{msg.Source, msg.Tag, seqOf(msg.Data)})
					msg.Release()
				}
			}
			return nil
		}
		// --- Group B: victims. Pairwise traffic inside B plus a cross
		// stream into a conserved A rank. Every error here is expected
		// (self killed, peer dead) and audited post-hoc.
		peer := groupA + (me - groupA) ^ 1
		crossDst := (groupA - groupB) + (me - groupA)
		for seq := 0; seq < k; seq++ {
			if err := c.Send(peer, tagVict, payload(seq)); err != nil {
				return err
			}
			if err := c.Send(crossDst, tagCross, payload(seq)); err != nil {
				return err
			}
		}
		for seq := 0; seq < k; seq++ {
			msg, err := c.Recv(peer, tagVict)
			if err != nil {
				return err
			}
			recorded[me] = append(recorded[me], receipt{msg.Source, msg.Tag, seqOf(msg.Data)})
			msg.Release()
		}
		return nil
	})
	killWG.Wait()
	if appErr != nil {
		t.Fatalf("unexpected application error: %v", appErr)
	}

	// Audit: group receipts per (dst, src, tag) and check the sequence
	// law. perStream[dst][{src,tag}] = received seqs in arrival order.
	for dst := range recorded {
		perStream := make(map[[2]int][]int)
		for _, r := range recorded[dst] {
			key := [2]int{r.src, r.tag}
			perStream[key] = append(perStream[key], r.seq)
		}
		for key, seqs := range perStream {
			src, tag := key[0], key[1]
			for i, s := range seqs {
				if s != i {
					t.Fatalf("dst %d src %d tag %d: position %d holds seq %d (lost, duplicated, or reordered)",
						dst, src, tag, i, s)
				}
			}
			conserved := src < groupA && dst < groupA && tag != tagCross
			if conserved && len(seqs) != k {
				t.Fatalf("dst %d src %d tag %d: conserved stream delivered %d/%d messages",
					dst, src, tag, len(seqs), k)
			}
		}
	}
	if w.Deaths() != kills {
		t.Fatalf("Deaths() = %d, want %d", w.Deaths(), kills)
	}
}

// TestBarrier10k is the CI large-N smoke: 10,000 ranks complete a
// tree barrier followed by a verified global sum. Run under
// -race in the scale job, it sweeps every shard's deposit/wake path with
// the detector watching; the exact-sum check catches any message that
// went missing or doubled along the reduction tree.
func TestBarrier10k(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-rank smoke test skipped in -short mode")
	}
	const n = 10_000
	w, err := NewWorld(n)
	if err != nil {
		t.Fatal(err)
	}
	want := float64(n) * float64(n+1) / 2
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
		t.Fatal(appErr)
	}
	if len(failures) != 0 {
		t.Fatalf("failures: %v", failures)
	}
}
