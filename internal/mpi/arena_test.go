package mpi

import "testing"

func TestArenaClassFor(t *testing.T) {
	cases := []struct{ n, want int }{
		{0, 0},
		{1, 0},
		{arenaMinClass, 0},
		{arenaMinClass + 1, 1},
		{4096, 6},
		{64 << 10, 10},
		{64<<10 + 1, 11},
		{arenaMaxClass, arenaClasses - 1},
		{arenaMaxClass + 1, -1},
	}
	if arenaMaxClass != 128<<10 || arenaMinClass<<(arenaClasses-1) != arenaMaxClass {
		t.Fatalf("top class = %d (%d classes), want 128 KiB", arenaMaxClass, arenaClasses)
	}
	for _, c := range cases {
		if got := classFor(c.n); got != c.want {
			t.Errorf("classFor(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestArenaOversizedFallback(t *testing.T) {
	a := NewArena()
	b, pb := a.Acquire(arenaMaxClass + 1)
	if len(b) != arenaMaxClass+1 {
		t.Fatalf("oversized Acquire len = %d", len(b))
	}
	if pb != nil {
		t.Fatal("oversized Acquire must have no pooled handle")
	}
	pb.Release() // a nil handle releases as a no-op
}

// TestArenaTopClassPools covers the 128 KiB top class: a payload between
// 64 KiB and 128 KiB (an 8-rank allgather of CG-sized blocks) gets a
// pooled handle whose buffer recycles, where the old 64 KiB cap fell
// back to plain allocation.
func TestArenaTopClassPools(t *testing.T) {
	a := NewArena()
	const n = 80 << 10
	b, pb := a.Acquire(n)
	if pb == nil {
		t.Fatalf("Acquire(%d) has no pooled handle", n)
	}
	if len(b) != n || cap(b) != arenaMaxClass {
		t.Fatalf("Acquire(%d) len/cap = %d/%d, want %d/%d", n, len(b), cap(b), n, arenaMaxClass)
	}
	pb.Release()
	b, pb = a.Acquire(arenaMaxClass)
	if pb == nil || len(b) != arenaMaxClass {
		t.Fatalf("Acquire(arenaMaxClass) = len %d, handle %v", len(b), pb)
	}
	pb.Release()
	if raceEnabled {
		return // sync.Pool drops Puts at random under the race detector
	}
	if avg := testing.AllocsPerRun(50, func() {
		_, pb := a.Acquire(n)
		pb.Release()
	}); avg > 0 {
		t.Errorf("warm top-class Acquire/Release allocates %.2f per round, want 0", avg)
	}
}

func TestArenaRecycleRejectsForeignBuffer(t *testing.T) {
	a := NewArena()
	// cap 100 matches no power-of-two class; Recycle must drop it
	// rather than poison a pool class with a short buffer.
	pb := NewPooledBuf(make([]byte, 100), a)
	a.Recycle(pb) // must not panic or Put
	b, got := a.Acquire(100)
	if got == pb {
		t.Fatal("foreign buffer re-issued from the pool")
	}
	if len(b) != 100 || cap(b) != 128 {
		t.Fatalf("Acquire(100) len/cap = %d/%d, want 100/128", len(b), cap(b))
	}
}

func TestArenaAcquireReleaseSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not meaningful under the race detector")
	}
	a := NewArena()
	// Warm the size class.
	_, pb := a.Acquire(512)
	pb.Release()
	if avg := testing.AllocsPerRun(200, func() {
		_, pb := a.Acquire(512)
		pb.Release()
	}); avg > 0 {
		t.Errorf("warm Acquire/Release allocates %.2f per round, want 0", avg)
	}
}
