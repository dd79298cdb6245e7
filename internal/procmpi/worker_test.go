package procmpi

import (
	"errors"
	"testing"

	"repro/internal/mpi"
)

// TestFrameAfterDeathNoticeDropped: once a worker has learned of a
// peer's death, a data frame from that peer reaching it later (the hub
// routed it before it marked the peer dead) must not be queued: queued,
// it would match the worker's next receive from that peer and deliver
// one operation's payload as another's. The worker's deposit checks the
// sender under the lock its receive checks it under, as on simmpi.
func TestFrameAfterDeathNoticeDropped(t *testing.T) {
	l, err := NewLocal(2, LocalConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	c, err := l.Endpoint(0)
	if err != nil {
		t.Fatal(err)
	}
	w := c.(*Worker)
	w.handleFrame(mpi.Frame{Type: frameDead, Src: 1, Dst: -1}, nil)
	if _, err := w.Recv(1, 7); !errors.Is(err, mpi.ErrPeerDead) {
		t.Fatalf("recv err = %v, want ErrPeerDead", err)
	}
	late := mpi.Frame{Type: frameData, Src: 1, Dst: 0, Tag: 7, Payload: []byte("stale")}
	w.handleFrame(late, nil)
	if n := w.PendingMessages(); n != 0 {
		t.Fatalf("%d messages queued from a rank known dead", n)
	}
	if _, err := w.Recv(1, 7); !errors.Is(err, mpi.ErrPeerDead) {
		t.Fatalf("second recv err = %v, want ErrPeerDead (no stale message)", err)
	}
}
