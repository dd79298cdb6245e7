package failure

import (
	"testing"
)

func TestRearmRestoresSphereAccounting(t *testing.T) {
	r := &recorder{}
	spheres := [][]int{{0, 1}, {2, 3}}
	inj, err := New(r, spheres, Config{Schedule: []Kill{}})
	if err != nil {
		t.Fatal(err)
	}
	inj.Start()
	defer inj.Stop()

	inj.InjectNow(2)
	inj.InjectNow(3)
	select {
	case v := <-inj.JobFailed():
		if v != 1 {
			t.Fatalf("exhausted sphere = %d, want 1", v)
		}
	default:
		t.Fatal("sphere 1 exhausted but no job-failure event")
	}

	// After an in-place recovery every rank is alive again; the same
	// sphere must be exhaustible a second time.
	inj.Rearm()
	inj.InjectNow(2)
	inj.InjectNow(3)
	select {
	case v := <-inj.JobFailed():
		if v != 1 {
			t.Fatalf("second exhausted sphere = %d, want 1", v)
		}
	default:
		t.Fatal("rearm did not restore sphere accounting")
	}
	if inj.Failures() != 4 {
		t.Fatalf("Failures = %d, want 4 (kill log survives Rearm)", inj.Failures())
	}
}

func TestRearmDiscardsStaleEvent(t *testing.T) {
	r := &recorder{}
	inj, err := New(r, [][]int{{0}, {1}}, Config{Schedule: []Kill{}})
	if err != nil {
		t.Fatal(err)
	}
	inj.Start()
	defer inj.Stop()
	inj.InjectNow(0) // exhausts sphere 0; event queued, never consumed
	inj.Rearm()
	select {
	case v := <-inj.JobFailed():
		t.Fatalf("stale job-failure event for sphere %d survived Rearm", v)
	default:
	}
}

func TestReKillOfDeadRankDoesNotDoubleCount(t *testing.T) {
	r := &recorder{}
	inj, err := New(r, [][]int{{0, 1}}, Config{Schedule: []Kill{}})
	if err != nil {
		t.Fatal(err)
	}
	inj.Start()
	defer inj.Stop()
	// Killing the same rank twice must not exhaust a 2-replica sphere.
	inj.InjectNow(0)
	inj.InjectNow(0)
	select {
	case <-inj.JobFailed():
		t.Fatal("double-kill of one rank exhausted a two-replica sphere")
	default:
	}
	inj.InjectNow(1)
	select {
	case <-inj.JobFailed():
	default:
		t.Fatal("sphere really exhausted but no event")
	}
}

// TestExhaustionsQueueUntilRead exhausts two spheres before anyone reads
// JobFailed: both events must be delivered (a back-to-back second death
// is a second shrink episode, not a duplicate), and Rearm must then
// discard every pending event, not just one.
func TestExhaustionsQueueUntilRead(t *testing.T) {
	r := &recorder{}
	inj, err := New(r, [][]int{{0}, {1}, {2}}, Config{Schedule: []Kill{}})
	if err != nil {
		t.Fatal(err)
	}
	inj.Start()
	defer inj.Stop()
	inj.InjectNow(0)
	inj.InjectNow(2)
	got := map[int]bool{}
	for i := 0; i < 2; i++ {
		select {
		case v := <-inj.JobFailed():
			got[v] = true
		default:
			t.Fatalf("event %d of 2 was dropped (got spheres %v)", i+1, got)
		}
	}
	if !got[0] || !got[2] {
		t.Fatalf("delivered spheres %v, want 0 and 2", got)
	}

	inj.Rearm()
	inj.InjectNow(0)
	inj.InjectNow(1)
	inj.Rearm()
	select {
	case v := <-inj.JobFailed():
		t.Fatalf("stale event for sphere %d survived Rearm", v)
	default:
	}
}
