package failure

import (
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/stats"
)

// recorder is a KillTarget remembering kill order.
type recorder struct {
	mu    sync.Mutex
	kills []int
}

func (r *recorder) Kill(rank int) {
	r.mu.Lock()
	r.kills = append(r.kills, rank)
	r.mu.Unlock()
}

func (r *recorder) killed() []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]int, len(r.kills))
	copy(out, r.kills)
	return out
}

func TestNewValidation(t *testing.T) {
	r := &recorder{}
	if _, err := New(nil, PlainSpheres(2), Config{Schedule: []Kill{}}); err == nil {
		t.Error("nil target accepted")
	}
	if _, err := New(r, PlainSpheres(2), Config{}); err == nil {
		t.Error("missing stream accepted")
	}
	if _, err := New(r, PlainSpheres(2), Config{Stream: stats.NewStream(1)}); err == nil {
		t.Error("missing MTBF accepted")
	}
	if _, err := New(r, [][]int{{0}, {0}}, Config{Schedule: []Kill{}}); err == nil {
		t.Error("overlapping spheres accepted")
	}
}

func TestDeterministicSchedule(t *testing.T) {
	r := &recorder{}
	inj, err := New(r, PlainSpheres(4), Config{Schedule: []Kill{
		{Rank: 2, After: 5 * time.Millisecond},
		{Rank: 0, After: 1 * time.Millisecond},
	}})
	if err != nil {
		t.Fatal(err)
	}
	inj.Start()
	deadline := time.After(3 * time.Second)
	select {
	case v := <-inj.JobFailed():
		// Sphere 0 = {0}: killing rank 0 exhausts it first.
		if v != 0 {
			t.Fatalf("job failed on sphere %d, want 0", v)
		}
	case <-deadline:
		t.Fatal("no job failure signalled")
	}
	// Wait until both kills landed, then stop.
	for i := 0; i < 100 && inj.Failures() < 2; i++ {
		time.Sleep(5 * time.Millisecond)
	}
	inj.Stop()
	got := r.killed()
	if len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("kill order %v, want [0 2]", got)
	}
	log := inj.Log()
	if len(log) != 2 || log[0].Rank != 0 {
		t.Fatalf("log %v", log)
	}
}

func TestSphereExhaustionDetection(t *testing.T) {
	// Two spheres of two replicas: killing both replicas of sphere 1
	// (ranks 2, 3) fails the job; killing one replica of sphere 0 first
	// must not.
	spheres := [][]int{{0, 1}, {2, 3}}
	r := &recorder{}
	inj, err := New(r, spheres, Config{Schedule: []Kill{
		{Rank: 0, After: 1 * time.Millisecond},
		{Rank: 2, After: 2 * time.Millisecond},
		{Rank: 3, After: 3 * time.Millisecond},
	}})
	if err != nil {
		t.Fatal(err)
	}
	inj.Start()
	select {
	case v := <-inj.JobFailed():
		if v != 1 {
			t.Fatalf("exhausted sphere %d, want 1", v)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("sphere exhaustion not signalled")
	}
	inj.Stop()
	if n := inj.Failures(); n != 3 {
		t.Fatalf("failures = %d, want 3", n)
	}
}

func TestSingleReplicaDeathDoesNotFailJob(t *testing.T) {
	spheres := [][]int{{0, 1}}
	r := &recorder{}
	inj, err := New(r, spheres, Config{Schedule: []Kill{
		{Rank: 1, After: 1 * time.Millisecond},
	}})
	if err != nil {
		t.Fatal(err)
	}
	inj.Start()
	select {
	case v := <-inj.JobFailed():
		t.Fatalf("job failed on sphere %d though one replica survives", v)
	case <-time.After(100 * time.Millisecond):
	}
	inj.Stop()
}

func TestInjectNow(t *testing.T) {
	r := &recorder{}
	inj, err := New(r, PlainSpheres(3), Config{Schedule: []Kill{}})
	if err != nil {
		t.Fatal(err)
	}
	inj.InjectNow(1)
	select {
	case v := <-inj.JobFailed():
		if v != 1 {
			t.Fatalf("sphere %d, want 1", v)
		}
	default:
		t.Fatal("InjectNow did not signal job failure")
	}
	if got := r.killed(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("kills %v", got)
	}
}

func TestStopBeforeFirstKill(t *testing.T) {
	r := &recorder{}
	inj, err := New(r, PlainSpheres(2), Config{Schedule: []Kill{
		{Rank: 0, After: time.Hour},
	}})
	if err != nil {
		t.Fatal(err)
	}
	inj.Start()
	inj.Stop()
	if n := inj.Failures(); n != 0 {
		t.Fatalf("failures = %d after immediate stop", n)
	}
	// Stop again is safe.
	inj.Stop()
}

func TestStopWithoutStart(t *testing.T) {
	r := &recorder{}
	inj, err := New(r, PlainSpheres(2), Config{Schedule: []Kill{{Rank: 0}, {Rank: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	inj.Stop() // must not hang
	// Stop before Start absorbs the Start, offset-0 kills included.
	inj.Start()
	if got := r.killed(); len(got) != 0 {
		t.Fatalf("Start after Stop killed %v", got)
	}
}

// TestStartAppliesOffsetZeroKills pins that a kill due at offset 0 has
// landed, and its exhaustion is queued, by the time Start returns: a job
// launched right after Start can never finish before its own t=0 kills.
// The kill due later stays with the background killer.
func TestStartAppliesOffsetZeroKills(t *testing.T) {
	spheres := [][]int{{0, 1}, {2, 3}}
	r := &recorder{}
	inj, err := New(r, spheres, Config{Schedule: []Kill{
		{Rank: 0, After: time.Hour},
		{Rank: 2},
		{Rank: 3, After: -time.Millisecond},
	}})
	if err != nil {
		t.Fatal(err)
	}
	inj.Start()
	log := inj.Log()
	v, ok := inj.PollJobFailed()
	inj.Stop()
	if len(log) != 2 || log[0].Rank != 3 || log[1].Rank != 2 {
		t.Fatalf("log after Start = %+v, want the kills of ranks 3 and 2", log)
	}
	if !ok || v != 1 {
		t.Fatalf("PollJobFailed after Start = %d, %v; want sphere 1 queued", v, ok)
	}
	if got := r.killed(); len(got) != 2 {
		t.Fatalf("target saw kills %v, want exactly the two offset-0 ones", got)
	}
}

func TestRandomScheduleStatistics(t *testing.T) {
	// With n nodes at MTBF θ and horizon h ≪ θ, expected kills ≈ n·h/θ.
	const n = 2000
	mtbf := 10 * time.Second
	horizon := 100 * time.Millisecond
	r := &recorder{}
	inj, err := New(r, PlainSpheres(n), Config{
		Stream:   stats.NewStream(99),
		NodeMTBF: mtbf,
		Horizon:  horizon,
	})
	if err != nil {
		t.Fatal(err)
	}
	sched := inj.schedule()
	want := float64(n) * float64(horizon) / float64(mtbf) // 20
	if got := float64(len(sched)); got < want/2 || got > want*2 {
		t.Fatalf("schedule has %v kills, want ≈ %v", got, want)
	}
	for i := 1; i < len(sched); i++ {
		if sched[i].After < sched[i-1].After {
			t.Fatal("schedule not sorted")
		}
		if sched[i].After > horizon {
			t.Fatal("kill past horizon")
		}
	}
}

func TestScheduleReproducible(t *testing.T) {
	mk := func() []Kill {
		r := &recorder{}
		inj, err := New(r, PlainSpheres(50), Config{
			Stream:   stats.NewStream(7),
			NodeMTBF: time.Second,
			Horizon:  time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		return inj.schedule()
	}
	a, b := mk(), mk()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedules diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestPlainSpheres(t *testing.T) {
	s := PlainSpheres(3)
	if len(s) != 3 {
		t.Fatalf("len %d", len(s))
	}
	for v, sphere := range s {
		if len(sphere) != 1 || sphere[0] != v {
			t.Fatalf("sphere %d = %v", v, sphere)
		}
	}
}

// reportingTarget reports every death back to the injector, from inside
// Kill, the way the multi-process hub's OnDeath does.
type reportingTarget struct{ inj *Injector }

func (r *reportingTarget) Kill(rank int) { r.inj.NoteDeath(rank) }

// TestNoteDeathAccountsExternalDeaths: a death the injector did not
// cause counts like one of its own kills — in Failures, in
// failure_kills_total and toward sphere exhaustion — while a death the
// target reports from inside the injector's own Kill is counted once,
// without deadlocking on the injector's lock.
func TestNoteDeathAccountsExternalDeaths(t *testing.T) {
	target := &reportingTarget{}
	reg := obs.NewRegistry()
	inj, err := New(target, [][]int{{0, 1}, {2, 3}}, Config{Schedule: []Kill{}, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	target.inj = inj
	inj.Start()
	defer inj.Stop()

	inj.InjectNow(0) // reported back from inside Kill
	inj.NoteDeath(2) // an external kill
	inj.NoteDeath(2) // the same death seen twice
	if n := inj.Failures(); n != 2 {
		t.Fatalf("Failures = %d, want 2", n)
	}
	select {
	case v := <-inj.JobFailed():
		t.Fatalf("sphere %d exhausted with one replica of each sphere alive", v)
	default:
	}
	inj.NoteDeath(1) // the external death that empties sphere 0
	if v, ok := inj.PollJobFailed(); !ok || v != 0 {
		t.Fatalf("PollJobFailed = %d, %v; want sphere 0", v, ok)
	}
	if n := reg.Snapshot().Counter("failure_kills_total"); n != 3 {
		t.Errorf("failure_kills_total = %d, want 3", n)
	}
}
