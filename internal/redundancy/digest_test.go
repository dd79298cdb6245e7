package redundancy

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/mpi"
)

// exchange drives point-to-point traffic both ways plus the collectives
// CG uses, so every receive path (specific, collective, allgather) runs.
func exchange(c *Comm) error {
	if err := pingPong(c); err != nil {
		return err
	}
	if _, err := mpi.AllreduceFloat64s(c, []float64{float64(c.Rank())}, mpi.OpSum); err != nil {
		return err
	}
	return mpi.Allgather(c, []byte{byte(c.Rank())}, func(parts [][]byte) error {
		for i, p := range parts {
			if len(p) != 1 || p[0] != byte(i) {
				return fmt.Errorf("allgather part %d = %v", i, p)
			}
		}
		return nil
	})
}

func TestAllToAllDeliveriesComputeNoDigest(t *testing.T) {
	for _, degree := range []float64{1, 1.5, 2, 3} {
		runs, appErr := launchReplicas(t, degree, AllToAll, -1, exchange)
		if appErr != nil {
			t.Fatalf("degree %v: %v", degree, appErr)
		}
		for _, r := range runs {
			if r.stats.Deliveries == 0 {
				t.Fatalf("degree %v: replica %d/%d delivered nothing", degree, r.rank, r.replica)
			}
			if r.digests != 0 {
				t.Errorf("degree %v: replica %d/%d computed %d digests, want 0",
					degree, r.rank, r.replica, r.digests)
			}
		}
	}
}

func TestMsgPlusHashStillDigests(t *testing.T) {
	runs, appErr := launchReplicas(t, 3, MsgPlusHash, -1, exchange)
	if appErr != nil {
		t.Fatal(appErr)
	}
	for _, r := range runs {
		if r.digests == 0 {
			t.Errorf("replica %d/%d computed no digest under Msg-PlusHash", r.rank, r.replica)
		}
		if r.stats.Mismatches != 0 {
			t.Errorf("replica %d/%d: clean run reported %d mismatches", r.rank, r.replica, r.stats.Mismatches)
		}
	}
}

func TestMsgPlusHashCorrectsTwoOfThree(t *testing.T) {
	// Sender replica 2 corrupts its payload before the fan-out, so its
	// full copy (to receiver replica 2) and its hashes (to receiver
	// replicas 0 and 1) are both wrong. Receivers 0 and 1 hold a clean
	// full copy, a matching hash from sender replica 1 and one bad hash:
	// 2 of 3 agree, the bad hash is voted out. Receiver 2's corrupt full
	// copy is outvoted by two hashes it cannot rebuild a payload from.
	m, err := NewRankMap(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	sphere0, err := m.Sphere(0)
	if err != nil {
		t.Fatal(err)
	}
	runs, appErr := launchReplicas(t, 3, MsgPlusHash, sphere0[2], pingPong)
	if !errors.Is(appErr, ErrPayloadCorrupt) {
		t.Fatalf("app error = %v, want ErrPayloadCorrupt from receiver replica 2", appErr)
	}
	for _, r := range runs {
		if r.rank != 1 || r.replica == 2 {
			continue
		}
		if r.stats.Mismatches != 1 || r.stats.Corrections != 1 {
			t.Errorf("receiver replica %d: mismatches=%d corrections=%d, want 1/1",
				r.replica, r.stats.Mismatches, r.stats.Corrections)
		}
		if r.digests == 0 {
			t.Errorf("receiver replica %d verified hashes without a digest", r.replica)
		}
	}
}
