package checkpoint

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/simmpi"
)

// singleSpheres builds n degree-1 spheres: sphere v = {v}. With one
// rank per sphere the resident-byte accounting is exact: a k+m layout
// costs S·(k+m)/k per snapshot, S·(1+m) for full copies (k=1).
func singleSpheres(n int) [][]int {
	out := make([][]int, n)
	for v := range out {
		out[v] = []int{v}
	}
	return out
}

// runPeerWorldN is runPeerWorld for an arbitrary world size.
func runPeerWorldN(t *testing.T, n int, ps *PeerStore, body func(w *simmpi.World) error) {
	t.Helper()
	w, err := simmpi.NewWorld(n)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for p := 0; p < n; p++ {
		c, cerr := w.Comm(p)
		if cerr != nil {
			t.Fatal(cerr)
		}
		wg.Add(1)
		go func(c *simmpi.Comm) {
			defer wg.Done()
			ps.Serve(c)
		}(c)
	}
	bodyErr := body(w)
	w.Interrupt()
	wg.Wait()
	if bodyErr != nil {
		t.Fatal(bodyErr)
	}
}

func TestErasureConfigValidation(t *testing.T) {
	base := func() PeerStoreConfig { return PeerStoreConfig{Spheres: singleSpheres(4)} }
	for name, mutate := range map[string]func(*PeerStoreConfig){
		"no shards":                func(c *PeerStoreConfig) {},
		"no parity":                func(c *PeerStoreConfig) { c.DataShards = 2 },
		"parity without data":      func(c *PeerStoreConfig) { c.ParityShards = 1 },
		"more shards than spheres": func(c *PeerStoreConfig) { c.DataShards = 3; c.ParityShards = 2 },
		"1+5 shards over 2 spheres": func(c *PeerStoreConfig) {
			c.Spheres = singleSpheres(2)
			c.DataShards, c.ParityShards = 1, 5
		},
		"negative budget": func(c *PeerStoreConfig) { c.DataShards, c.ParityShards, c.BudgetBytes = 2, 1, -1 },
	} {
		cfg := base()
		mutate(&cfg)
		if _, err := NewPeerStore(cfg); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	// k=1 is full-copy replication, not a rejected code.
	for _, km := range [][2]int{{2, 2}, {1, 1}, {1, 3}} {
		if _, err := NewPeerStore(PeerStoreConfig{Spheres: singleSpheres(4), DataShards: km[0], ParityShards: km[1]}); err != nil {
			t.Errorf("valid %d+%d config rejected: %v", km[0], km[1], err)
		}
	}
}

// TestErasureWritePlacement checks the shard layout: shard 0 stays in
// the writer's sphere, shard i lands on the writer replica of sphere
// (v+i) mod n, and the resident footprint is S·(k+m)/k per snapshot.
func TestErasureWritePlacement(t *testing.T) {
	const size = 4096
	ps, err := NewPeerStore(PeerStoreConfig{Spheres: singleSpheres(4), DataShards: 2, ParityShards: 1})
	if err != nil {
		t.Fatal(err)
	}
	state := bytes.Repeat([]byte{0x7E}, size)
	runPeerWorldN(t, 4, ps, func(w *simmpi.World) error {
		for v := 0; v < 4; v++ {
			c, _ := w.Comm(v)
			if err := ps.View(c).Write(1, v, state); err != nil {
				return err
			}
		}
		ps.Settle()
		// Placement of v=0: shard 0 on rank 0, shard 1 on rank 1, shard 2
		// (parity) on rank 2; rank 3 holds nothing of v=0.
		for want, phys := range []int{0, 1, 2} {
			data, idx, sz, ok := ps.lookup(phys, 1, 0)
			if !ok || int(idx) != want || sz != size || len(data) != size/2 {
				return fmt.Errorf("rank %d: shard=(%d,%d,%d bytes,ok=%v), want shard %d of %d bytes",
					phys, idx, sz, len(data), ok, want, size/2)
			}
		}
		if _, _, _, ok := ps.lookup(3, 1, 0); ok {
			return fmt.Errorf("rank 3 holds a shard of v=0 outside the layout")
		}
		c0, _ := w.Comm(0)
		if err := ps.View(c0).Commit(1, 4); err != nil {
			return err
		}
		ps.mu.Lock()
		resident := ps.resident
		ps.mu.Unlock()
		// 4 snapshots × S×(k+m)/k = 4 × 4096×3/2.
		if want := int64(4 * size * 3 / 2); resident != want {
			return fmt.Errorf("resident = %d bytes, want %d (S·(k+m)/k per snapshot)", resident, want)
		}
		return nil
	})
}

// TestResidentBytesScaling pins the headline economics side by side:
// the same snapshots cost S·(1+m) resident bytes as full copies (k=1)
// and S·(k+m)/k erasure-coded.
func TestResidentBytesScaling(t *testing.T) {
	const size, nv = 4096, 4
	measure := func(cfg PeerStoreConfig) int64 {
		t.Helper()
		cfg.Spheres = singleSpheres(nv)
		ps, err := NewPeerStore(cfg)
		if err != nil {
			t.Fatal(err)
		}
		state := bytes.Repeat([]byte{0x11}, size)
		var resident int64
		runPeerWorldN(t, nv, ps, func(w *simmpi.World) error {
			for v := 0; v < nv; v++ {
				c, _ := w.Comm(v)
				if err := ps.View(c).Write(1, v, state); err != nil {
					return err
				}
			}
			ps.Settle()
			c0, _ := w.Comm(0)
			if err := ps.View(c0).Commit(1, nv); err != nil {
				return err
			}
			ps.mu.Lock()
			resident = ps.resident
			ps.mu.Unlock()
			return nil
		})
		return resident
	}
	fullCopy := measure(PeerStoreConfig{DataShards: 1, ParityShards: 1})
	erasure := measure(PeerStoreConfig{DataShards: 2, ParityShards: 1})
	if want := int64(nv * size * (1 + 1)); fullCopy != want {
		t.Errorf("full-copy resident = %d, want %d (S·(1+m) per snapshot)", fullCopy, want)
	}
	if want := int64(nv * size * 3 / 2); erasure != want {
		t.Errorf("erasure resident = %d, want %d (S·(k+m)/k per snapshot)", erasure, want)
	}
	if erasure >= fullCopy {
		t.Errorf("erasure footprint %d not below full-copy %d", erasure, fullCopy)
	}
}

// TestErasureReadPaths exercises the degraded fetch: a reader holding
// its own shard needs only k−1 remote shards; a reader holding nothing
// needs k; and the reconstructed bytes are identical to the original.
func TestErasureReadPaths(t *testing.T) {
	dead := deadSet{}
	reg := obs.NewRegistry()
	ps, err := NewPeerStore(PeerStoreConfig{
		Spheres: singleSpheres(4), DataShards: 2, ParityShards: 1,
		Live: dead, FetchRetries: 2, FetchBackoff: 50 * time.Microsecond, Obs: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	states := make([][]byte, 4)
	rng := rand.New(rand.NewSource(9))
	for v := range states {
		states[v] = make([]byte, 1000+v) // odd sizes: erasure padding in play
		rng.Read(states[v])
	}
	runPeerWorldN(t, 4, ps, func(w *simmpi.World) error {
		for v := 0; v < 4; v++ {
			c, _ := w.Comm(v)
			if err := ps.View(c).Write(1, v, states[v]); err != nil {
				return err
			}
		}
		ps.Settle()
		c0, _ := w.Comm(0)
		view := ps.View(c0)
		if err := view.Commit(1, 4); err != nil {
			return err
		}
		// Rank 0 restores its own sphere: local shard 0 + one remote.
		got, err := view.Read(1, 0)
		if err != nil || !bytes.Equal(got, states[0]) {
			return fmt.Errorf("own-sphere reconstruct: %v (match=%v)", err, bytes.Equal(got, states[0]))
		}
		// Rank 0 restores sphere 1 with sphere 1 dead (one loss = m):
		// shards survive on ranks 2 (data) and 3 (parity).
		dead[1] = true
		got, err = view.Read(1, 1)
		if err != nil || !bytes.Equal(got, states[1]) {
			return fmt.Errorf("degraded reconstruct: %v (match=%v)", err, bytes.Equal(got, states[1]))
		}
		return nil
	})
	var remote uint64
	for _, c := range reg.Snapshot().Counters {
		if c.Name == "peer_fetch_remote_total" {
			remote = c.Value
		}
	}
	if remote == 0 {
		t.Error("no remote reconstruct recorded")
	}
}

// TestErasureAnyMLossesRestore is the satellite property test: with
// k data + m=2 parity shards spread over k+m spheres, every possible
// pair of sphere losses still restores byte-identical snapshots, and
// losing a third sphere does not. k=1 is the full-copy layout: three
// copies, any one of which restores.
func TestErasureAnyMLossesRestore(t *testing.T) {
	state := make([]byte, 2000)
	rand.New(rand.NewSource(77)).Read(state)
	// Every sphere writes, then rank 5 — which holds nothing of v=0 —
	// restores v=0 with the given holders dead; shard i of v=0 lives on
	// rank i.
	restore := func(k, m int, holders ...int) (*PeerStore, []byte, error) {
		dead := deadSet{}
		ps, err := NewPeerStore(PeerStoreConfig{
			Spheres: singleSpheres(6), DataShards: k, ParityShards: m,
			Live: dead, FetchRetries: 2, FetchBackoff: 50 * time.Microsecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		var got []byte
		var readErr error
		runPeerWorldN(t, 6, ps, func(w *simmpi.World) error {
			for v := 0; v < 6; v++ {
				c, _ := w.Comm(v)
				if err := ps.View(c).Write(1, v, state); err != nil {
					return err
				}
			}
			ps.Settle()
			c5, _ := w.Comm(5)
			view := ps.View(c5)
			if err := view.Commit(1, 6); err != nil {
				return err
			}
			// The checkpoint was taken healthy; now the holders die.
			for _, p := range holders {
				dead[p] = true
			}
			got, readErr = view.Read(1, 0)
			return nil
		})
		return ps, got, readErr
	}
	for _, k := range []int{3, 1} {
		const m = 2
		for a := 0; a < k+m; a++ {
			for b := a + 1; b < k+m; b++ {
				_, got, err := restore(k, m, a, b)
				if err != nil {
					t.Fatalf("k=%d dead={%d,%d}: %v", k, a, b, err)
				}
				if !bytes.Equal(got, state) {
					t.Fatalf("k=%d dead={%d,%d}: reconstructed bytes differ", k, a, b)
				}
			}
		}
		// m+1 losses among v=0's holders: the fetch must exhaust, not
		// fabricate data.
		ps, _, err := restore(k, m, 0, 1, 2)
		if !errors.Is(err, ErrPeerFetchExhausted) {
			t.Fatalf("k=%d: read with k-1 shards = %v, want ErrPeerFetchExhausted", k, err)
		}
		if _, _, ok := ps.UsableGeneration(); ok {
			t.Errorf("k=%d: generation with fewer than k live shards reported usable", k)
		}
	}
}

// TestPeerBudgetEviction checks the memory budget: a stash that pushes
// a rank over BudgetBytes evicts the rank's oldest generation, never
// the one being written, and the metrics pair tracks it.
func TestPeerBudgetEviction(t *testing.T) {
	reg := obs.NewRegistry()
	ps, err := NewPeerStore(PeerStoreConfig{
		Spheres:      singleSpheres(2),
		DataShards:   1,
		ParityShards: 1,
		BudgetBytes:  1500,
		Obs:          reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	big := bytes.Repeat([]byte{1}, 1000)
	// Gen 1 fits; gen 2 pushes rank 0 to 2000 > 1500: gen 1 is evicted.
	ps.stash(0, 1, 0, big)
	ps.stash(0, 2, 0, big)
	if _, _, _, ok := ps.lookup(0, 1, 0); ok {
		t.Error("over-budget stash kept the oldest generation")
	}
	if _, _, _, ok := ps.lookup(0, 2, 0); !ok {
		t.Error("eviction removed the generation being written")
	}
	// A single over-budget generation survives: the one being written is
	// never evicted.
	huge := bytes.Repeat([]byte{2}, 3000)
	ps.stash(0, 3, 0, huge)
	if _, _, _, ok := ps.lookup(0, 3, 0); !ok {
		t.Error("the generation being written was evicted")
	}
	snap := reg.Snapshot()
	got := map[string]uint64{}
	for _, c := range snap.Counters {
		got[c.Name] = c.Value
	}
	// Two evictions: gen 1 (stash of gen 2) and gen 2 (stash of gen 3).
	if got["peer_store_evictions_total"] != 2 {
		t.Errorf("peer_store_evictions_total = %d, want 2", got["peer_store_evictions_total"])
	}
	var resident int64 = -1
	for _, g := range snap.Gauges {
		if g.Name == "peer_store_resident_bytes" {
			resident = g.Value
		}
	}
	if resident != 3000 {
		t.Errorf("peer_store_resident_bytes = %d, want 3000 (gen 3 only)", resident)
	}
	// Evicted holders are withdrawn: nothing claims gen 1 anymore.
	ps.mu.Lock()
	c1 := ps.ctrlLocked(1, false)
	if c1 != nil && len(c1.holders[0]) != 0 {
		t.Errorf("evicted generation still has %d holders registered", len(c1.holders[0]))
	}
	ps.mu.Unlock()
}

// TestPromoteComplete covers the recovery-time commit promotion: a
// fully-resident uncommitted generation (writes drained, commit line
// never reached — the async commit-lags-one window) is promoted so a
// partial restart restores it instead of its predecessor.
func TestPromoteComplete(t *testing.T) {
	ps, err := NewPeerStore(PeerStoreConfig{Spheres: singleSpheres(2), DataShards: 1, ParityShards: 1})
	if err != nil {
		t.Fatal(err)
	}
	runPeerWorldN(t, 2, ps, func(w *simmpi.World) error {
		c0, _ := w.Comm(0)
		c1, _ := w.Comm(1)
		v0, v1 := ps.View(c0), ps.View(c1)
		// Gen 1: written and committed the normal way.
		for _, wr := range []struct {
			view Storage
			v    int
		}{{v0, 0}, {v1, 1}} {
			if err := wr.view.Write(1, wr.v, []byte("gen1")); err != nil {
				return err
			}
		}
		ps.Settle()
		if err := v0.Commit(1, 2); err != nil {
			return err
		}
		// Gen 2: written everywhere, never committed (the crash window).
		for _, wr := range []struct {
			view Storage
			v    int
		}{{v0, 0}, {v1, 1}} {
			if err := wr.view.Write(2, wr.v, []byte("gen2")); err != nil {
				return err
			}
		}
		ps.Settle()
		if gen, _, ok := ps.UsableGeneration(); !ok || gen != 1 {
			return fmt.Errorf("before promote: usable = (%d, %v), want (1, true)", gen, ok)
		}
		gen, n, ok := ps.PromoteComplete()
		if !ok || gen != 2 || n != 2 {
			return fmt.Errorf("PromoteComplete = (%d, %d, %v), want (2, 2, true)", gen, n, ok)
		}
		if gen, _, ok := ps.UsableGeneration(); !ok || gen != 2 {
			return fmt.Errorf("after promote: usable = (%d, %v), want (2, true)", gen, ok)
		}
		// Idempotent: nothing further to promote.
		if _, _, ok := ps.PromoteComplete(); ok {
			return fmt.Errorf("second PromoteComplete promoted again")
		}
		return nil
	})
}

// TestPromoteCompleteRefusesPartialGeneration: a generation missing a
// rank's payload (its write never drained) must not be promoted.
func TestPromoteCompleteRefusesPartialGeneration(t *testing.T) {
	ps, err := NewPeerStore(PeerStoreConfig{Spheres: singleSpheres(2), DataShards: 1, ParityShards: 1})
	if err != nil {
		t.Fatal(err)
	}
	ps.stash(0, 1, 0, []byte("only v0"))
	if _, _, ok := ps.PromoteComplete(); ok {
		t.Fatal("promoted a generation missing virtual rank 1")
	}
	// Registered but not resident (the frame died in a mailbox): the
	// stashed=true coverage check must reject it too.
	ps.mu.Lock()
	ps.registerHolderLocked(1, 1, 1, 0)
	ps.mu.Unlock()
	if _, _, ok := ps.PromoteComplete(); ok {
		t.Fatal("promoted a generation whose holder never stashed")
	}
}
