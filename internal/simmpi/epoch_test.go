package simmpi

import (
	"errors"
	"testing"
	"time"

	"repro/internal/mpi"
	"repro/internal/obs"
)

func TestInterruptUnblocksBlockedRecv(t *testing.T) {
	w := newTestWorld(t, 2)
	c1 := comm(t, w, 1)
	errCh := make(chan error, 1)
	go func() {
		_, err := c1.Recv(0, 7)
		errCh <- err
	}()
	time.Sleep(5 * time.Millisecond)
	w.Interrupt()
	select {
	case err := <-errCh:
		if !errors.Is(err, mpi.ErrInterrupted) {
			t.Fatalf("recv err = %v, want ErrInterrupted", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Recv still blocked after Interrupt")
	}
	if !w.Interrupted() {
		t.Fatal("world not marked interrupted")
	}
}

func TestSendDuringInterruptFails(t *testing.T) {
	w := newTestWorld(t, 2)
	c0 := comm(t, w, 0)
	w.Interrupt()
	if err := c0.Send(1, 1, []byte("x")); !errors.Is(err, mpi.ErrInterrupted) {
		t.Fatalf("send err = %v, want ErrInterrupted", err)
	}
}

func TestResumeAfterInterruptRestoresTraffic(t *testing.T) {
	w := newTestWorld(t, 2)
	c0, c1 := comm(t, w, 0), comm(t, w, 1)
	// A message left in flight across the interrupt must not leak into
	// the next epoch: Resume purges every mailbox.
	if err := c0.Send(1, 1, []byte("stale")); err != nil {
		t.Fatal(err)
	}
	w.Interrupt()
	w.Resume()
	if w.Interrupted() {
		t.Fatal("world still interrupted after Resume")
	}
	if err := c0.Send(1, 2, []byte("fresh")); err != nil {
		t.Fatal(err)
	}
	msg, err := c1.Recv(mpi.AnySource, mpi.AnyTag)
	if err != nil {
		t.Fatal(err)
	}
	if msg.Tag != 2 || string(msg.Data) != "fresh" {
		t.Fatalf("got tag %d data %q; stale pre-interrupt message leaked", msg.Tag, msg.Data)
	}
}

func TestReviveRejoinsKilledRank(t *testing.T) {
	w := newTestWorld(t, 2)
	c0, c1 := comm(t, w, 0), comm(t, w, 1)
	w.Kill(1)
	if err := c1.Send(0, 1, []byte("x")); !errors.Is(err, mpi.ErrKilled) {
		t.Fatalf("send from dead rank err = %v, want ErrKilled", err)
	}
	w.Interrupt()
	w.Revive(1)
	w.Resume()
	if !w.Alive(1) {
		t.Fatal("rank 1 not alive after Revive")
	}
	if n := w.AliveCount(); n != 2 {
		t.Fatalf("AliveCount = %d, want 2", n)
	}
	// Full round trip both ways through the revived rank.
	if err := c1.Send(0, 3, []byte("hello")); err != nil {
		t.Fatalf("send from revived rank: %v", err)
	}
	if _, err := c0.Recv(1, 3); err != nil {
		t.Fatalf("recv from revived rank: %v", err)
	}
	if err := c0.Send(1, 4, []byte("back")); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Recv(0, 4); err != nil {
		t.Fatalf("revived rank recv: %v", err)
	}
}

func TestReviveIsIdempotentAndBounded(t *testing.T) {
	w := newTestWorld(t, 2)
	w.Revive(-1) // out of range: no-op
	w.Revive(5)  // out of range: no-op
	w.Revive(0)  // alive already: no-op
	w.Kill(1)
	w.Revive(1)
	w.Revive(1) // second revive of a live rank: no-op
	if !w.Alive(1) {
		t.Fatal("rank 1 should be alive")
	}
}

func TestInterruptAfterAbortIsNoop(t *testing.T) {
	w := newTestWorld(t, 2)
	w.Abort()
	w.Interrupt()
	if w.Interrupted() {
		t.Fatal("aborted world must not enter the interrupted state")
	}
	c0 := comm(t, w, 0)
	if err := c0.Send(1, 1, []byte("x")); !errors.Is(err, mpi.ErrAborted) {
		t.Fatalf("send err = %v, want ErrAborted", err)
	}
}

func TestResumeResetsCommCounters(t *testing.T) {
	w := newTestWorld(t, 2)
	c0, c1 := comm(t, w, 0), comm(t, w, 1)
	if err := c0.Send(1, 1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Recv(0, 1); err != nil {
		t.Fatal(err)
	}
	if sent := c0.SentCounts(); sent[1] == 0 {
		t.Fatal("sanity: sent count should be nonzero before the epoch boundary")
	}
	w.Interrupt()
	w.Resume()
	if sent := c0.SentCounts(); sent[1] != 0 {
		t.Fatalf("sent counts survived Resume: %v", sent)
	}
	if recv := c1.RecvCounts(); recv[0] != 0 {
		t.Fatalf("recv counts survived Resume: %v", recv)
	}
}

func TestInterruptReviveCountersExposed(t *testing.T) {
	reg := obs.NewRegistry()
	w, err := NewWorld(2, mpi.WithObs(reg))
	if err != nil {
		t.Fatal(err)
	}
	w.Kill(1)
	w.Interrupt()
	w.Revive(1)
	w.Resume()
	got := map[string]uint64{}
	for _, c := range reg.Snapshot().Counters {
		got[c.Name] = c.Value
	}
	if got["simmpi_interrupts_total"] != 1 {
		t.Fatalf("simmpi_interrupts_total = %d, want 1", got["simmpi_interrupts_total"])
	}
	if got["simmpi_revives_total"] != 1 {
		t.Fatalf("simmpi_revives_total = %d, want 1", got["simmpi_revives_total"])
	}
}
