package checkpoint

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/simmpi"
)

// testSpheres is the degree-2, four-virtual-rank topology most peer
// tests use: sphere v = {2v, 2v+1}.
func testSpheres() [][]int {
	return [][]int{{0, 1}, {2, 3}, {4, 5}, {6, 7}}
}

func newTestPeerStore(t *testing.T, cfg PeerStoreConfig) *PeerStore {
	t.Helper()
	if cfg.Spheres == nil {
		cfg.Spheres = testSpheres()
	}
	if cfg.DataShards == 0 {
		cfg.DataShards = 1
	}
	if cfg.ParityShards == 0 {
		cfg.ParityShards = 1
	}
	ps, err := NewPeerStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ps
}

func TestPeerStoreValidation(t *testing.T) {
	if _, err := NewPeerStore(PeerStoreConfig{}); err == nil {
		t.Error("empty sphere map accepted")
	}
	if _, err := NewPeerStore(PeerStoreConfig{Spheres: [][]int{{0}, {1}}, DataShards: -1, ParityShards: 1}); err == nil {
		t.Error("negative data shards accepted")
	}
	if _, err := NewPeerStore(PeerStoreConfig{Spheres: [][]int{{0}, {0}}, DataShards: 1, ParityShards: 1}); err == nil {
		t.Error("overlapping spheres accepted")
	}
	if _, err := NewPeerStore(PeerStoreConfig{Spheres: [][]int{{0}, {}}, DataShards: 1, ParityShards: 1}); err == nil {
		t.Error("empty sphere accepted")
	}
}

func TestBuddiesAreSphereDeterministic(t *testing.T) {
	ps := newTestPeerStore(t, PeerStoreConfig{ParityShards: 2})
	// Buddies of v are the first replicas of the next k+m-1 spheres,
	// wrapping.
	want := map[int][]int{
		0: {2, 4},
		1: {4, 6},
		2: {6, 0},
		3: {0, 2},
	}
	for v, w := range want {
		got := ps.Buddies(v)
		if fmt.Sprint(got) != fmt.Sprint(w) {
			t.Errorf("Buddies(%d) = %v, want %v", v, got, w)
		}
	}
}

// TestBuddiesClampedToOtherSpheres pins that a shard never lands in its
// writer's own sphere: with one other sphere, that sphere's writer is
// the only buddy, and asking for more buddies than there are other
// spheres is rejected rather than wrapped round into the own sphere.
func TestBuddiesClampedToOtherSpheres(t *testing.T) {
	ps := newTestPeerStore(t, PeerStoreConfig{Spheres: [][]int{{0}, {1}}})
	if got := ps.Buddies(0); len(got) != 1 || got[0] != 1 {
		t.Fatalf("Buddies(0) = %v, want [1]", got)
	}
	if got := ps.Buddies(1); len(got) != 1 || got[0] != 0 {
		t.Fatalf("Buddies(1) = %v, want [0]", got)
	}
	if _, err := NewPeerStore(PeerStoreConfig{Spheres: [][]int{{0}, {1}}, DataShards: 1, ParityShards: 5}); err == nil {
		t.Fatal("1+5 shards over 2 spheres accepted")
	}
}

// runPeerWorld runs servers on every rank of an 8-rank world plus the
// given body on rank 0, tearing everything down via Interrupt.
func runPeerWorld(t *testing.T, ps *PeerStore, body func(w *simmpi.World) error) {
	t.Helper()
	w, err := simmpi.NewWorld(8)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for p := 0; p < 8; p++ {
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

func TestPeerWriteCommitReadRoundTrip(t *testing.T) {
	reg := obs.NewRegistry()
	ps := newTestPeerStore(t, PeerStoreConfig{Obs: reg})
	runPeerWorld(t, ps, func(w *simmpi.World) error {
		// One writer per sphere pushes its image; the view is bound to the
		// sphere's first (writer) replica.
		for v := 0; v < 4; v++ {
			c, err := w.Comm(2 * v)
			if err != nil {
				return err
			}
			view := ps.View(c)
			if err := view.Write(1, v, []byte(fmt.Sprintf("state-%d", v))); err != nil {
				return err
			}
		}
		c0, _ := w.Comm(0)
		view := ps.View(c0)
		if err := view.Commit(1, 4); err != nil {
			return err
		}
		gen, n, ok, err := view.Latest()
		if err != nil || !ok || gen != 1 || n != 4 {
			return fmt.Errorf("Latest = (%d,%d,%v,%v), want (1,4,true,nil)", gen, n, ok, err)
		}
		// Rank 0 holds its own image: local read.
		state, err := view.Read(1, 0)
		if err != nil || !bytes.Equal(state, []byte("state-0")) {
			return fmt.Errorf("local read = %q, %v", state, err)
		}
		// Rank 0 does not hold sphere 1's image: remote fetch from a
		// holder (2, 3, or buddy 4), served by the Serve goroutines.
		state, err = view.Read(1, 1)
		if err != nil || !bytes.Equal(state, []byte("state-1")) {
			return fmt.Errorf("remote read = %q, %v", state, err)
		}
		return nil
	})
	got := map[string]uint64{}
	for _, c := range reg.Snapshot().Counters {
		got[c.Name] = c.Value
	}
	if got["peerstore_replicas_total"] != 4 {
		t.Errorf("peerstore_replicas_total = %d, want 4 (one buddy per sphere)", got["peerstore_replicas_total"])
	}
	if got["peer_fetch_local_total"] == 0 {
		t.Error("no local fetch recorded")
	}
	if got["peer_fetch_remote_total"] == 0 {
		t.Error("no remote fetch recorded")
	}
}

func TestPeerCommitRequiresEveryRank(t *testing.T) {
	ps := newTestPeerStore(t, PeerStoreConfig{})
	runPeerWorld(t, ps, func(w *simmpi.World) error {
		c0, _ := w.Comm(0)
		view := ps.View(c0)
		if err := view.Write(1, 0, []byte("only-rank-0")); err != nil {
			return err
		}
		if err := view.Commit(1, 4); !errors.Is(err, ErrIncomplete) {
			return fmt.Errorf("commit of partial generation: %v, want ErrIncomplete", err)
		}
		return nil
	})
}

func TestPeerGCKeepsDoubleBuffer(t *testing.T) {
	ps := newTestPeerStore(t, PeerStoreConfig{Spheres: [][]int{{0}, {1}}})
	w, err := simmpi.NewWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	c0, _ := w.Comm(0)
	c1, _ := w.Comm(1)
	// Stash directly (no buddy traffic needed for control-plane tests).
	for gen := uint64(1); gen <= 3; gen++ {
		ps.stash(0, gen, 0, []byte{byte(gen)})
		ps.stash(1, gen, 1, []byte{byte(gen)})
		view := ps.View(c0)
		if err := view.Commit(gen, 2); err != nil {
			t.Fatal(err)
		}
	}
	_ = c1
	// Gen 1 is older than the double buffer {2, 3}: gone everywhere.
	if _, _, _, ok := ps.lookup(0, 1, 0); ok {
		t.Error("gen 1 survived GC")
	}
	for gen := uint64(2); gen <= 3; gen++ {
		if _, _, _, ok := ps.lookup(0, gen, 0); !ok {
			t.Errorf("gen %d missing from double buffer", gen)
		}
	}
	if gen, _, ok := ps.UsableGeneration(); !ok || gen != 3 {
		t.Fatalf("UsableGeneration = (%d, %v), want (3, true)", gen, ok)
	}
}

// deadSet is a Liveness where listed ranks are dead.
type deadSet map[int]bool

func (d deadSet) Alive(rank int) bool { return !d[rank] }

func TestUsableGenerationRespectsLiveness(t *testing.T) {
	dead := deadSet{}
	ps := newTestPeerStore(t, PeerStoreConfig{
		Spheres: [][]int{{0}, {1}},
		Live:    dead,
	})
	ps.stash(0, 1, 0, []byte("a"))
	ps.stash(1, 1, 1, []byte("b"))
	w, _ := simmpi.NewWorld(2)
	c0, _ := w.Comm(0)
	if err := ps.View(c0).Commit(1, 2); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := ps.UsableGeneration(); !ok {
		t.Fatal("fully-held generation not usable")
	}
	dead[1] = true // rank 1 was the only holder of virtual rank 1
	if _, _, ok := ps.UsableGeneration(); ok {
		t.Fatal("generation with a dead sole holder reported usable")
	}
}

func TestInvalidateRankRemovesHolder(t *testing.T) {
	ps := newTestPeerStore(t, PeerStoreConfig{Spheres: [][]int{{0}, {1}}})
	ps.stash(0, 1, 0, []byte("a"))
	ps.stash(1, 1, 0, []byte("a")) // rank 1 also holds v0's image
	ps.stash(1, 1, 1, []byte("b"))
	w, _ := simmpi.NewWorld(2)
	c0, _ := w.Comm(0)
	if err := ps.View(c0).Commit(1, 2); err != nil {
		t.Fatal(err)
	}
	ps.InvalidateRank(1)
	if _, _, _, ok := ps.lookup(1, 1, 0); ok {
		t.Error("invalidated rank still holds images")
	}
	// v1's only holder was rank 1: the generation is no longer usable.
	if _, _, ok := ps.UsableGeneration(); ok {
		t.Fatal("generation usable after its sole holder was invalidated")
	}
}

func TestPeerFetchExhaustedFallsBackToSlow(t *testing.T) {
	slow := NewMemStorage()
	reg := obs.NewRegistry()
	dead := deadSet{}
	ps := newTestPeerStore(t, PeerStoreConfig{
		Spheres:      [][]int{{0}, {1}},
		Slow:         slow,
		Live:         dead,
		FetchRetries: 2,
		FetchBackoff: 50 * time.Microsecond,
		Obs:          reg,
	})
	// Gen 1 exists in both tiers; then v1's only holder dies.
	if err := slow.Write(1, 1, []byte("stable")); err != nil {
		t.Fatal(err)
	}
	if err := slow.Write(1, 0, []byte("stable0")); err != nil {
		t.Fatal(err)
	}
	if err := slow.Commit(1, 2); err != nil {
		t.Fatal(err)
	}
	ps.stash(0, 1, 0, []byte("fast0"))
	ps.stash(1, 1, 1, []byte("fast1"))
	w, _ := simmpi.NewWorld(2)
	c0, _ := w.Comm(0)
	view := ps.View(c0)
	if err := view.Commit(1, 2); err != nil {
		t.Fatal(err)
	}
	dead[1] = true
	// Rank 0 restoring v1: no local copy, holder dead, every retry round
	// exhausted — but the same generation is on stable storage.
	state, err := view.Read(1, 1)
	if err != nil {
		t.Fatalf("read with slow fallback: %v", err)
	}
	if !bytes.Equal(state, []byte("stable")) {
		t.Fatalf("read = %q, want the stable tier's copy", state)
	}
	got := map[string]uint64{}
	for _, c := range reg.Snapshot().Counters {
		got[c.Name] = c.Value
	}
	if got["peer_fetch_exhausted_total"] != 1 {
		t.Errorf("peer_fetch_exhausted_total = %d, want 1", got["peer_fetch_exhausted_total"])
	}
	if got["peer_fetch_retries_total"] == 0 {
		t.Error("no retry rounds recorded")
	}
}

func TestPeerFetchExhaustedWithoutSlowTier(t *testing.T) {
	dead := deadSet{1: true}
	ps := newTestPeerStore(t, PeerStoreConfig{
		Spheres:      [][]int{{0}, {1}},
		Live:         dead,
		FetchRetries: 2,
		FetchBackoff: 50 * time.Microsecond,
	})
	ps.stash(0, 1, 0, []byte("a"))
	ps.stash(1, 1, 1, []byte("b"))
	ps.mu.Lock()
	ps.ctrlLocked(1, true).committedN = 2 // force-publish despite the dead holder
	ps.mu.Unlock()
	w, _ := simmpi.NewWorld(2)
	c0, _ := w.Comm(0)
	if _, err := ps.View(c0).Read(1, 1); !errors.Is(err, ErrPeerFetchExhausted) {
		t.Fatalf("read = %v, want ErrPeerFetchExhausted", err)
	}
}

func TestPeerStableCadence(t *testing.T) {
	slow := NewMemStorage()
	ps := newTestPeerStore(t, PeerStoreConfig{
		Spheres:     [][]int{{0}, {1}},
		Slow:        slow,
		StableEvery: 3,
	})
	w, _ := simmpi.NewWorld(2)
	c0, _ := w.Comm(0)
	c1, _ := w.Comm(1)
	v0, v1 := ps.View(c0), ps.View(c1)
	for gen := uint64(1); gen <= 6; gen++ {
		if err := v0.Write(gen, 0, []byte{byte(gen)}); err != nil {
			t.Fatal(err)
		}
		if err := v1.Write(gen, 1, []byte{byte(gen)}); err != nil {
			t.Fatal(err)
		}
		if err := v0.Commit(gen, 2); err != nil {
			t.Fatal(err)
		}
	}
	// Only generations 3 and 6 reach stable storage.
	gen, _, ok, err := slow.Latest()
	if err != nil || !ok || gen != 6 {
		t.Fatalf("slow Latest = (%d,%v,%v), want (6,true,nil)", gen, ok, err)
	}
	if _, err := slow.Read(3, 0); err != nil {
		t.Errorf("gen 3 missing from stable tier: %v", err)
	}
	if _, err := slow.Read(5, 0); err == nil {
		t.Error("off-cadence gen 5 reached stable storage")
	}
}

func TestPeerLatestPrefersNewerStable(t *testing.T) {
	slow := NewMemStorage()
	dead := deadSet{}
	ps := newTestPeerStore(t, PeerStoreConfig{
		Spheres: [][]int{{0}, {1}},
		Slow:    slow,
		Live:    dead,
	})
	// Stable has gen 2; the peer tier's newest usable is gen 1.
	for _, gen := range []uint64{2} {
		if err := slow.Write(gen, 0, []byte("s0")); err != nil {
			t.Fatal(err)
		}
		if err := slow.Write(gen, 1, []byte("s1")); err != nil {
			t.Fatal(err)
		}
		if err := slow.Commit(gen, 2); err != nil {
			t.Fatal(err)
		}
	}
	ps.stash(0, 1, 0, []byte("f0"))
	ps.stash(1, 1, 1, []byte("f1"))
	w, _ := simmpi.NewWorld(2)
	c0, _ := w.Comm(0)
	view := ps.View(c0)
	ps.mu.Lock()
	ps.ctrlLocked(1, true).committedN = 2
	ps.mu.Unlock()
	gen, _, ok, err := view.Latest()
	if err != nil || !ok || gen != 2 {
		t.Fatalf("Latest = (%d,%v,%v), want stable gen 2", gen, ok, err)
	}
	// Reading the stable-only generation routes to the slow tier.
	state, err := view.Read(2, 1)
	if err != nil || !bytes.Equal(state, []byte("s1")) {
		t.Fatalf("stable-gen read = %q, %v", state, err)
	}
}

func TestPeerCodecRoundTripAndTruncation(t *testing.T) {
	in := peerFrame{op: opFound, gen: 42, v: 3, idx: 5, size: 4096, payload: []byte("payload")}
	frame := encodePeer(in)
	got, err := decodePeer(frame)
	if err != nil || got.op != opFound || got.gen != 42 || got.v != 3 ||
		got.idx != 5 || got.size != 4096 || !bytes.Equal(got.payload, []byte("payload")) {
		t.Fatalf("decode = %+v, %v", got, err)
	}
	if _, err := decodePeer(frame[:peerHeaderLen-1]); err == nil {
		t.Fatal("truncated frame decoded")
	}
}
