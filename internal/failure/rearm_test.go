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

// deathProbe is a KillTarget that looks at the injector from the moment
// a death becomes observable: whether the kill is still inside the
// injector's critical section, and what a supervisor that saw the death
// would poll.
type deathProbe struct {
	inj      *Injector
	outside  []int    // ranks killed outside the injector's lock
	observed chan int // one PollJobFailed result per kill, -1 for none
}

func (p *deathProbe) Kill(rank int) {
	if p.inj.mu.TryLock() {
		p.inj.mu.Unlock()
		p.outside = append(p.outside, rank)
	}
	go func() {
		v, ok := p.inj.PollJobFailed()
		if !ok {
			v = -1
		}
		p.observed <- v
	}()
}

func TestExhaustionVisibleOnceDeathIs(t *testing.T) {
	// A supervisor that sees the drivers exit over a death must find the
	// sphere exhaustion that death caused. Otherwise it reads the drained
	// attempt as a completion.
	probe := &deathProbe{observed: make(chan int, 4)}
	inj, err := New(probe, [][]int{{0}, {1, 2}}, Config{Schedule: []Kill{}})
	if err != nil {
		t.Fatal(err)
	}
	probe.inj = inj
	for _, k := range []struct{ rank, want int }{{0, 0}, {1, -1}, {2, 1}} {
		inj.InjectNow(k.rank)
		if got := <-probe.observed; got != k.want {
			t.Errorf("kill of rank %d: poll after the death = %d, want %d", k.rank, got, k.want)
		}
	}
	if len(probe.outside) != 0 {
		t.Errorf("ranks %v killed outside the injector's lock", probe.outside)
	}
}
