package redundancy

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/simmpi"
)

// replicaRun is one replica's view after launchReplicas: its virtual
// rank, replica index, delivery stats and the digests it computed.
type replicaRun struct {
	rank, replica int
	stats         Stats
	digests       uint64
}

// launchReplicas runs fn on every replica of a 2-virtual-rank world at
// the given degree and mode, with Options.Corrupt enabled on physical
// rank corruptPhys (-1 for none): that replica corrupts its outgoing
// payloads before they are hashed, so its full copies and its hashes
// both disagree with its twins'.
func launchReplicas(t *testing.T, degree float64, mode Mode, corruptPhys int,
	fn func(c *Comm) error) ([]replicaRun, error) {
	t.Helper()
	m, err := NewRankMap(2, degree)
	if err != nil {
		t.Fatal(err)
	}
	w, err := simmpi.NewWorld(m.PhysicalSize())
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var runs []replicaRun
	appErr, failures := w.Run(func(pc *simmpi.Comm) error {
		rc, err := New(pc, m, Options{Live: w, Mode: mode, Corrupt: pc.Rank() == corruptPhys})
		if err != nil {
			return err
		}
		err = fn(rc)
		mu.Lock()
		runs = append(runs, replicaRun{rc.Rank(), rc.ReplicaIndex(), rc.Stats(), rc.digests})
		mu.Unlock()
		return err
	})
	if len(failures) != 0 {
		t.Fatalf("failures: %v", failures)
	}
	return runs, appErr
}

// launchWithCorrupt is launchReplicas in All-to-all mode for runs that
// must succeed, keyed "rank/replica".
func launchWithCorrupt(t *testing.T, degree float64, corruptPhys int,
	fn func(c *Comm) error) map[string]Stats {
	t.Helper()
	runs, appErr := launchReplicas(t, degree, AllToAll, corruptPhys, fn)
	if appErr != nil {
		t.Fatalf("app error: %v", appErr)
	}
	stats := map[string]Stats{}
	for _, r := range runs {
		stats[fmt.Sprintf("%d/%d", r.rank, r.replica)] = r.stats
	}
	return stats
}

func TestCorruptOptionTriggersMismatchDetection(t *testing.T) {
	// At 2x, sphere(0) = two sender replicas; corrupting the SECOND
	// replica (non-lowest) means receivers detect a mismatch on every
	// delivery while the tie-broken winner stays clean.
	m, err := NewRankMap(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	sphere0, err := m.Sphere(0)
	if err != nil {
		t.Fatal(err)
	}
	stats := launchWithCorrupt(t, 2, sphere0[1], pingPong)
	var mismatches, votes uint64
	for key, s := range stats {
		if key[0] == '1' { // receiver replicas
			mismatches += s.Mismatches
			votes += s.Votes
		}
	}
	if mismatches == 0 {
		t.Fatal("corrupt replica produced no mismatches")
	}
	if votes == 0 {
		t.Fatal("no votes counted despite replicated copies")
	}
}

func TestStatsCountVirtualSendsAndVotes(t *testing.T) {
	stats := launchWithCorrupt(t, 2, -1, pingPong)
	for key, s := range stats {
		switch key[0] {
		case '0': // sender replicas: one virtual send fanned out to r copies
			if s.VirtualSends != 1 {
				t.Errorf("%s: virtual sends = %d, want 1", key, s.VirtualSends)
			}
			if s.PhysicalSends != 2 {
				t.Errorf("%s: physical sends = %d, want 2", key, s.PhysicalSends)
			}
		case '1': // receiver replicas: one delivery, one cross-check
			if s.Deliveries != 1 || s.Votes != 1 {
				t.Errorf("%s: deliveries=%d votes=%d, want 1/1", key, s.Deliveries, s.Votes)
			}
			if s.Mismatches != 0 {
				t.Errorf("%s: clean run recorded %d mismatches", key, s.Mismatches)
			}
		}
	}
}
