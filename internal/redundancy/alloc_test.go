package redundancy

import (
	"bytes"
	"testing"

	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/simmpi"
)

// degree2Fixture builds a 2-virtual/4-physical world with degree-2
// replication, the configuration the copy-on-write fan-out targets.
func degree2Fixture(t *testing.T) (comms []*Comm, sphere0, sphere1 []int) {
	t.Helper()
	w, err := simmpi.NewWorld(4)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewRankMap(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	comms = make([]*Comm, 4)
	for p := range comms {
		pc, _ := w.Comm(p)
		comms[p], err = Wrap(pc, m)
		if err != nil {
			t.Fatal(err)
		}
	}
	sphere0, _ = m.Sphere(0)
	sphere1, _ = m.Sphere(1)
	return comms, sphere0, sphere1
}

// TestDegree2SendSteadyStateAllocs pins the copy-on-write replica
// fan-out: after warm-up, a full virtual round trip (two redundant
// senders, two verifying receivers) stays within a one-allocation
// budget — the encoded payload is pooled and shared, the verify path
// runs on per-Comm scratch.
func TestDegree2SendSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not meaningful under the race detector")
	}
	comms, sphere0, sphere1 := degree2Fixture(t)
	payload := make([]byte, 256)
	round := func() {
		for _, p := range sphere0 {
			if err := comms[p].Send(1, 1, payload); err != nil {
				t.Fatal(err)
			}
		}
		for _, p := range sphere1 {
			msg, err := comms[p].Recv(0, 1)
			if err != nil {
				t.Fatal(err)
			}
			msg.Release()
		}
	}
	for i := 0; i < 50; i++ {
		round()
	}
	if avg := testing.AllocsPerRun(100, round); avg > 1 {
		t.Errorf("degree-2 send/recv steady state allocates %.2f per round, want ≤1", avg)
	}
}

// TestDegree2IsendFanoutAllocs bounds the non-blocking path: each Isend
// may allocate its fulfilled request handle, but the fan-out underneath
// must still ride the shared pooled buffer.
func TestDegree2IsendFanoutAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not meaningful under the race detector")
	}
	comms, sphere0, sphere1 := degree2Fixture(t)
	payload := make([]byte, 256)
	round := func() {
		for _, p := range sphere0 {
			req, err := comms[p].Isend(1, 1, payload)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := req.Wait(); err != nil {
				t.Fatal(err)
			}
		}
		for _, p := range sphere1 {
			msg, err := comms[p].Recv(0, 1)
			if err != nil {
				t.Fatal(err)
			}
			msg.Release()
		}
	}
	for i := 0; i < 50; i++ {
		round()
	}
	// Budget: one request handle per Isend (two senders), plus slack for
	// the interface boxing around mpi.Request.
	if avg := testing.AllocsPerRun(100, round); avg > 4 {
		t.Errorf("degree-2 Isend round allocates %.2f, want ≤4", avg)
	}
}

// TestDegree2LargePayloadSharesFanout sends an 80 KB payload — the size
// of an 8-rank allgather of CG-sized blocks, above the arena's old
// 64 KiB cap — at degree 2: every physical send must ride the shared
// pooled buffer (simmpi_copies_elided_total counts each one) instead of
// a per-replica deep copy.
func TestDegree2LargePayloadSharesFanout(t *testing.T) {
	reg := obs.NewRegistry()
	w, err := simmpi.NewWorld(4, mpi.WithObs(reg))
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewRankMap(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	comms := make([]*Comm, 4)
	for p := range comms {
		pc, _ := w.Comm(p)
		if comms[p], err = Wrap(pc, m); err != nil {
			t.Fatal(err)
		}
	}
	sphere0, _ := m.Sphere(0)
	sphere1, _ := m.Sphere(1)
	payload := make([]byte, 80_000)
	for i := range payload {
		payload[i] = byte(i)
	}
	for _, p := range sphere0 {
		if err := comms[p].Send(1, 1, payload); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range sphere1 {
		msg, err := comms[p].Recv(0, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(msg.Data, payload) {
			t.Fatal("80 KB payload delivered corrupt")
		}
		msg.Release()
	}
	want := uint64(len(sphere0) * len(sphere1))
	if got := reg.Snapshot().Counter("simmpi_copies_elided_total"); got != want {
		t.Fatalf("simmpi_copies_elided_total = %d, want %d (one per physical send)", got, want)
	}
}
