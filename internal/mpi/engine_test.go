package mpi

import (
	"errors"
	"testing"
	"time"
)

// TestWaiterMapDrains: wait-queue entries must be dropped when their
// last waiter leaves; a long-lived stripe must not accumulate dead
// selector entries.
func TestWaiterMapDrains(t *testing.T) {
	var s Stripe
	st := &State{Dead: NewBitset(2)}
	for tag := 1; tag <= 100; tag++ {
		done := make(chan struct{})
		go func(tag int) {
			defer close(done)
			msg, err := s.Receive(st, nil, 1, 0, tag)
			if err != nil {
				t.Error(err)
				return
			}
			msg.Release()
		}(tag)
		time.Sleep(20 * time.Microsecond) // let the waiter park
		if _, ok := s.Deposit(st, 1, 0, tag, []byte("d"), nil); !ok {
			t.Fatalf("deposit of tag %d refused", tag)
		}
		<-done
	}
	s.mu.Lock()
	n := len(s.box(1).waiters)
	act := len(s.active)
	s.mu.Unlock()
	if n != 0 {
		t.Fatalf("waiter map holds %d stale entries after all waiters left", n)
	}
	if act != 0 {
		t.Fatalf("stripe active list holds %d stale queues after all waiters left", act)
	}
}

// recycleCount is a Recycler that counts the buffers returned to it.
type recycleCount struct{ n int }

func (r *recycleCount) Recycle(*PooledBuf) { r.n++ }

// TestDepositFromDeadSenderRefused: once the liveness state reports the
// sender dead, its deposit is refused and the pooled buffer it carried
// goes back to its arena, so a receive from that sender keeps failing
// with ErrPeerDead instead of matching a late message.
func TestDepositFromDeadSenderRefused(t *testing.T) {
	var s Stripe
	st := &State{Dead: NewBitset(2)}
	rec := &recycleCount{}
	live := NewPooledBuf(make([]byte, 8), rec)
	if _, ok := s.Deposit(st, 1, 0, 7, live.Bytes(), live); !ok {
		t.Fatal("deposit from a live sender refused")
	}
	if rec.n != 0 {
		t.Fatal("an accepted deposit released its buffer")
	}
	st.Kill(0)
	late := NewPooledBuf(make([]byte, 8), rec)
	if _, ok := s.Deposit(st, 1, 0, 7, late.Bytes(), late); ok {
		t.Fatal("deposit from a dead sender accepted")
	}
	if rec.n != 1 {
		t.Fatalf("refused deposit released %d buffers, want 1", rec.n)
	}
	// The message queued before the death is still delivered; then the
	// sender's death ends the receive.
	msg, err := s.Receive(st, nil, 1, 0, 7)
	if err != nil {
		t.Fatalf("queued-before-death message: %v", err)
	}
	msg.Release()
	if _, err := s.Receive(st, nil, 1, 0, 7); !errors.Is(err, ErrPeerDead) {
		t.Fatalf("receive after refused deposit: err = %v, want ErrPeerDead", err)
	}
	if got := s.Pending(1); got != 0 {
		t.Fatalf("pending = %d, want 0", got)
	}
}
