package simmpi

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/mpi"
)

func newTestWorld(t *testing.T, n int) *World {
	t.Helper()
	w, err := NewWorld(n)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func comm(t *testing.T, w *World, rank int) *Comm {
	t.Helper()
	c, err := w.Comm(rank)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewWorldRejectsBadSize(t *testing.T) {
	for _, n := range []int{0, -1} {
		if _, err := NewWorld(n); err == nil {
			t.Errorf("NewWorld(%d) should fail", n)
		}
	}
}

func TestCommRejectsBadRank(t *testing.T) {
	w := newTestWorld(t, 2)
	if _, err := w.Comm(2); !errors.Is(err, mpi.ErrInvalidRank) {
		t.Errorf("Comm(2) err = %v, want ErrInvalidRank", err)
	}
	if _, err := w.Comm(-1); !errors.Is(err, mpi.ErrInvalidRank) {
		t.Errorf("Comm(-1) err = %v, want ErrInvalidRank", err)
	}
}

func TestSendRecvRoundTrip(t *testing.T) {
	w := newTestWorld(t, 2)
	c0, c1 := comm(t, w, 0), comm(t, w, 1)
	want := []byte("hello rank 1")
	if err := c0.Send(1, 7, want); err != nil {
		t.Fatal(err)
	}
	msg, err := c1.Recv(0, 7)
	if err != nil {
		t.Fatal(err)
	}
	if msg.Source != 0 || msg.Tag != 7 || !bytes.Equal(msg.Data, want) {
		t.Fatalf("got %+v, want source 0 tag 7 data %q", msg, want)
	}
}

func TestSendCopiesBuffer(t *testing.T) {
	w := newTestWorld(t, 2)
	c0, c1 := comm(t, w, 0), comm(t, w, 1)
	buf := []byte("original")
	if err := c0.Send(1, 0, buf); err != nil {
		t.Fatal(err)
	}
	copy(buf, "mutated!")
	msg, err := c1.Recv(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if string(msg.Data) != "original" {
		t.Fatalf("send aliased the caller's buffer: got %q", msg.Data)
	}
}

func TestFIFOPerSourceTag(t *testing.T) {
	w := newTestWorld(t, 2)
	c0, c1 := comm(t, w, 0), comm(t, w, 1)
	for i := 0; i < 100; i++ {
		if err := c0.Send(1, 5, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		msg, err := c1.Recv(0, 5)
		if err != nil {
			t.Fatal(err)
		}
		if msg.Data[0] != byte(i) {
			t.Fatalf("message %d out of order: got %d", i, msg.Data[0])
		}
	}
}

func TestTagSelectivity(t *testing.T) {
	w := newTestWorld(t, 2)
	c0, c1 := comm(t, w, 0), comm(t, w, 1)
	if err := c0.Send(1, 1, []byte("tag1")); err != nil {
		t.Fatal(err)
	}
	if err := c0.Send(1, 2, []byte("tag2")); err != nil {
		t.Fatal(err)
	}
	// Receive tag 2 first even though tag 1 arrived earlier.
	msg, err := c1.Recv(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if string(msg.Data) != "tag2" {
		t.Fatalf("tag-selective recv got %q", msg.Data)
	}
	msg, err = c1.Recv(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if string(msg.Data) != "tag1" {
		t.Fatalf("second recv got %q", msg.Data)
	}
}

func TestAnySourceReceivesEarliest(t *testing.T) {
	w := newTestWorld(t, 3)
	c0, c1, c2 := comm(t, w, 0), comm(t, w, 1), comm(t, w, 2)
	if err := c1.Send(0, 3, []byte("from1")); err != nil {
		t.Fatal(err)
	}
	if err := c2.Send(0, 3, []byte("from2")); err != nil {
		t.Fatal(err)
	}
	msg, err := c0.Recv(mpi.AnySource, 3)
	if err != nil {
		t.Fatal(err)
	}
	if msg.Source != 1 {
		t.Fatalf("wildcard recv matched source %d, want earliest arrival 1", msg.Source)
	}
}

func TestAnyTag(t *testing.T) {
	w := newTestWorld(t, 2)
	c0, c1 := comm(t, w, 0), comm(t, w, 1)
	if err := c0.Send(1, 42, []byte("x")); err != nil {
		t.Fatal(err)
	}
	msg, err := c1.Recv(0, mpi.AnyTag)
	if err != nil {
		t.Fatal(err)
	}
	if msg.Tag != 42 {
		t.Fatalf("AnyTag recv got tag %d", msg.Tag)
	}
}

func TestRecvBlocksUntilSend(t *testing.T) {
	w := newTestWorld(t, 2)
	c0, c1 := comm(t, w, 0), comm(t, w, 1)
	got := make(chan mpi.Message, 1)
	go func() {
		msg, err := c1.Recv(0, 0)
		if err != nil {
			t.Errorf("recv: %v", err)
		}
		got <- msg
	}()
	select {
	case <-got:
		t.Fatal("recv completed before send")
	case <-time.After(20 * time.Millisecond):
	}
	if err := c0.Send(1, 0, []byte("late")); err != nil {
		t.Fatal(err)
	}
	select {
	case msg := <-got:
		if string(msg.Data) != "late" {
			t.Fatalf("got %q", msg.Data)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("recv never completed after send")
	}
}

func TestProbeDoesNotConsume(t *testing.T) {
	w := newTestWorld(t, 2)
	c0, c1 := comm(t, w, 0), comm(t, w, 1)
	if err := c0.Send(1, 9, []byte("abc")); err != nil {
		t.Fatal(err)
	}
	st, err := c1.Probe(0, 9)
	if err != nil {
		t.Fatal(err)
	}
	if st.Source != 0 || st.Tag != 9 || st.Len != 3 {
		t.Fatalf("probe status %+v", st)
	}
	msg, err := c1.Recv(0, 9)
	if err != nil {
		t.Fatal(err)
	}
	if string(msg.Data) != "abc" {
		t.Fatalf("message consumed by probe: %q", msg.Data)
	}
}

func TestIsendCompletesImmediately(t *testing.T) {
	w := newTestWorld(t, 2)
	c0 := comm(t, w, 0)
	req, err := c0.Isend(1, 0, []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	done, _, _, err := req.Test()
	if !done || err != nil {
		t.Fatalf("Isend request: done=%v err=%v", done, err)
	}
}

func TestIrecvWaitAndMessage(t *testing.T) {
	w := newTestWorld(t, 2)
	c0, c1 := comm(t, w, 0), comm(t, w, 1)
	req, err := c1.Irecv(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if done, _, _, _ := req.Test(); done {
		t.Fatal("Irecv complete before send")
	}
	if err := c0.Send(1, 4, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	msg, st, err := req.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if st.Len != 7 || st.Source != 0 {
		t.Fatalf("status %+v", st)
	}
	if string(msg.Data) != "payload" {
		t.Fatalf("message %q", msg.Data)
	}
	// Wait is idempotent: repeated calls return the same delivery.
	if again, _, err := req.Wait(); err != nil || string(again.Data) != "payload" {
		t.Fatalf("second Wait: %q err=%v", again.Data, err)
	}
	msg.Release()
}

func TestIrecvTestCompletion(t *testing.T) {
	w := newTestWorld(t, 2)
	c0, c1 := comm(t, w, 0), comm(t, w, 1)
	req, err := c1.Irecv(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := c0.Send(1, 4, []byte("z")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		done, msg, st, err := req.Test()
		if done {
			if err != nil || st.Len != 1 || string(msg.Data) != "z" {
				t.Fatalf("done=%v st=%+v msg=%q err=%v", done, st, msg.Data, err)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("Test never completed")
		}
	}
}

func TestWaitAllCollectsFirstError(t *testing.T) {
	w := newTestWorld(t, 2)
	c0, c1 := comm(t, w, 0), comm(t, w, 1)
	r1, err := c1.Irecv(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := c0.Send(1, 1, nil); err != nil {
		t.Fatal(err)
	}
	if err := mpi.WaitAll(r1, nil); err != nil {
		t.Fatalf("WaitAll = %v", err)
	}
}

func TestKillUnblocksOwnRecv(t *testing.T) {
	w := newTestWorld(t, 2)
	c1 := comm(t, w, 1)
	errCh := make(chan error, 1)
	go func() {
		_, err := c1.Recv(0, 0)
		errCh <- err
	}()
	time.Sleep(10 * time.Millisecond)
	w.Kill(1)
	select {
	case err := <-errCh:
		if !errors.Is(err, mpi.ErrKilled) {
			t.Fatalf("err = %v, want ErrKilled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("kill did not unblock recv")
	}
}

func TestPeerDeathUnblocksSpecificRecv(t *testing.T) {
	w := newTestWorld(t, 2)
	c1 := comm(t, w, 1)
	errCh := make(chan error, 1)
	go func() {
		_, err := c1.Recv(0, 0)
		errCh <- err
	}()
	time.Sleep(10 * time.Millisecond)
	w.Kill(0)
	select {
	case err := <-errCh:
		if !errors.Is(err, mpi.ErrPeerDead) {
			t.Fatalf("err = %v, want ErrPeerDead", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("peer death did not unblock recv")
	}
}

func TestMessageBeforeDeathStillDelivered(t *testing.T) {
	w := newTestWorld(t, 2)
	c0, c1 := comm(t, w, 0), comm(t, w, 1)
	if err := c0.Send(1, 0, []byte("last words")); err != nil {
		t.Fatal(err)
	}
	w.Kill(0)
	msg, err := c1.Recv(0, 0)
	if err != nil {
		t.Fatalf("message sent before death must be deliverable, got %v", err)
	}
	if string(msg.Data) != "last words" {
		t.Fatalf("got %q", msg.Data)
	}
	// A second receive now fails: the peer is dead and nothing is queued.
	if _, err := c1.Recv(0, 0); !errors.Is(err, mpi.ErrPeerDead) {
		t.Fatalf("err = %v, want ErrPeerDead", err)
	}
}

func TestSendToDeadRankDropped(t *testing.T) {
	w := newTestWorld(t, 2)
	c0 := comm(t, w, 0)
	w.Kill(1)
	if err := c0.Send(1, 0, []byte("into the void")); err != nil {
		t.Fatalf("send to dead rank should be dropped silently, got %v", err)
	}
}

func TestSendFromKilledRankFails(t *testing.T) {
	w := newTestWorld(t, 2)
	c0 := comm(t, w, 0)
	w.Kill(0)
	if err := c0.Send(1, 0, nil); !errors.Is(err, mpi.ErrKilled) {
		t.Fatalf("err = %v, want ErrKilled", err)
	}
	if _, err := c0.Recv(1, 0); !errors.Is(err, mpi.ErrKilled) {
		t.Fatalf("recv err = %v, want ErrKilled", err)
	}
}

// TestLateDepositFromKilledSenderDropped replays the interleaving where a
// sender passes its send prologue, is killed, and only then deposits:
// the receiver has already been told the sender is dead, so the late
// message must be dropped. Queued, it would match the receiver's next
// receive from that sender and deliver one operation's payload as the
// next one's (a stale bcast or reduce payload under redundancy, where
// the dead replica's copy wins a 1-vs-1 vote).
func TestLateDepositFromKilledSenderDropped(t *testing.T) {
	w := newTestWorld(t, 2)
	c1 := comm(t, w, 1)
	w.Kill(0)
	if _, err := c1.Recv(0, 7); !errors.Is(err, mpi.ErrPeerDead) {
		t.Fatalf("recv err = %v, want ErrPeerDead", err)
	}
	buf, pb := w.pool.Acquire(8)
	if w.table.deposit(1, 0, 7, buf, pb) { // a refused deposit releases pb
		t.Fatal("deposit from a killed sender accepted")
	}
	if _, err := c1.Recv(0, 7); !errors.Is(err, mpi.ErrPeerDead) {
		t.Fatalf("second recv err = %v, want ErrPeerDead (no stale message)", err)
	}
}

func TestAbortUnblocksEveryone(t *testing.T) {
	w := newTestWorld(t, 4)
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			c := comm(t, w, rank)
			_, errs[rank] = c.Recv(mpi.AnySource, 0)
		}(i)
	}
	time.Sleep(10 * time.Millisecond)
	w.Abort()
	wg.Wait()
	for rank, err := range errs {
		if !errors.Is(err, mpi.ErrAborted) {
			t.Fatalf("rank %d err = %v, want ErrAborted", rank, err)
		}
	}
	if !w.Aborted() {
		t.Fatal("Aborted() = false after Abort")
	}
}

func TestKillBookkeeping(t *testing.T) {
	w := newTestWorld(t, 4)
	if w.AliveCount() != 4 || w.Deaths() != 0 {
		t.Fatalf("fresh world: alive=%d deaths=%d", w.AliveCount(), w.Deaths())
	}
	w.Kill(2)
	w.Kill(2) // idempotent
	w.Kill(-1)
	w.Kill(99)
	if w.AliveCount() != 3 || w.Deaths() != 1 {
		t.Fatalf("after kill: alive=%d deaths=%d", w.AliveCount(), w.Deaths())
	}
	if w.Alive(2) || !w.Alive(0) {
		t.Fatal("liveness flags wrong")
	}
}

func TestCountTracking(t *testing.T) {
	w := newTestWorld(t, 3)
	c0, c1 := comm(t, w, 0), comm(t, w, 1)
	for i := 0; i < 5; i++ {
		if err := c0.Send(1, 0, nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		if _, err := c1.Recv(0, 0); err != nil {
			t.Fatal(err)
		}
	}
	if got := c0.SentCounts(); got[1] != 5 || got[0] != 0 || got[2] != 0 {
		t.Fatalf("sent counts %v", got)
	}
	if got := c1.RecvCounts(); got[0] != 5 {
		t.Fatalf("recv counts %v", got)
	}
	if c1.PendingMessages() != 0 {
		t.Fatalf("pending = %d, want 0", c1.PendingMessages())
	}
}

func TestRunCollectsAppError(t *testing.T) {
	w := newTestWorld(t, 3)
	boom := fmt.Errorf("app exploded")
	appErr, failures := w.Run(func(c *Comm) error {
		if c.Rank() == 1 {
			return boom
		}
		return nil
	})
	if appErr == nil || !errors.Is(appErr, boom) {
		t.Fatalf("appErr = %v", appErr)
	}
	var re RankError
	if !errors.As(appErr, &re) || re.Rank != 1 {
		t.Fatalf("appErr = %#v, want RankError{Rank: 1}", appErr)
	}
	if len(failures) != 0 {
		t.Fatalf("failures = %v", failures)
	}
}

func TestRunAbortsOnAppError(t *testing.T) {
	w := newTestWorld(t, 3)
	boom := fmt.Errorf("app exploded")
	type result struct {
		appErr   error
		failures []RankError
	}
	done := make(chan result, 1)
	go func() {
		appErr, failures := w.Run(func(c *Comm) error {
			if c.Rank() == 1 {
				return boom
			}
			_, err := mpi.AllreduceFloat64s(c, []float64{1}, mpi.OpSum)
			return err
		})
		done <- result{appErr, failures}
	}()
	var res result
	select {
	case res = <-done:
	case <-time.After(10 * time.Second):
		// The ranks stay blocked, so the world is left to the GC.
		t.Fatal("Run still waiting 10 s after rank 1 returned an error")
	}
	var re RankError
	if !errors.As(res.appErr, &re) || re.Rank != 1 || !errors.Is(res.appErr, boom) {
		t.Fatalf("appErr = %v, want rank 1's error", res.appErr)
	}
	if len(res.failures) != 2 {
		t.Fatalf("failures = %v, want ranks 0 and 2 aborted", res.failures)
	}
	for _, f := range res.failures {
		if f.Rank == 1 || !errors.Is(f.Err, mpi.ErrAborted) {
			t.Fatalf("failure %v, want mpi.ErrAborted on rank 0 or 2", f)
		}
	}
}

func TestRunSeparatesFailureErrors(t *testing.T) {
	w := newTestWorld(t, 2)
	w.Kill(1)
	appErr, failures := w.Run(func(c *Comm) error {
		if c.Rank() == 1 {
			_, err := c.Recv(0, 0)
			return err
		}
		return nil
	})
	if appErr != nil {
		t.Fatalf("appErr = %v, want nil (kill-induced errors are not app errors)", appErr)
	}
	if len(failures) != 1 || failures[0].Rank != 1 {
		t.Fatalf("failures = %v", failures)
	}
}

func TestManyRanksPingPongStress(t *testing.T) {
	const n = 32
	w := newTestWorld(t, n)
	appErr, failures := w.Run(func(c *Comm) error {
		peer := (c.Rank() + n/2) % n
		for i := 0; i < 50; i++ {
			if err := c.Send(peer, i, []byte{byte(c.Rank()), byte(i)}); err != nil {
				return err
			}
			msg, err := c.Recv(peer, i)
			if err != nil {
				return err
			}
			if msg.Data[0] != byte(peer) || msg.Data[1] != byte(i) {
				return fmt.Errorf("bad payload %v", msg.Data)
			}
		}
		return nil
	})
	if appErr != nil || len(failures) != 0 {
		t.Fatalf("appErr=%v failures=%v", appErr, failures)
	}
}
