package core

import (
	"testing"
	"time"

	"repro/internal/failure"
	"repro/internal/obs"
)

// obsConfig is a small fixed job used by the telemetry tests: 4 virtual
// ranks at 2x with checkpointing every 10 steps.
func obsConfig() Config {
	return Config{
		Ranks:          4,
		Degree:         2,
		StepInterval:   10,
		AttemptTimeout: time.Minute,
	}
}

func TestResultMetricsPopulated(t *testing.T) {
	res, err := Run(obsConfig(), cgFactory(t, 6, 30))
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	checks := []struct {
		name string
		want string // "nonzero" or "zero"
	}{
		{"simmpi_sends_total", "nonzero"},
		{"simmpi_recvs_total", "nonzero"},
		{"simmpi_send_bytes_total", "nonzero"},
		{"redundancy_virtual_sends_total", "nonzero"},
		{"redundancy_physical_sends_total", "nonzero"},
		{"redundancy_votes_total", "nonzero"},
		{"checkpoint_attempted_total", "nonzero"},
		{"checkpoint_committed_total", "nonzero"},
		{"checkpoint_bytes_written_total", "nonzero"},
		{"runner_attempts_total", "nonzero"},
		{"runner_completions_total", "nonzero"},
		{"redundancy_mismatches_total", "zero"},
		{"runner_restarts_total", "zero"},
		{"failure_kills_total", "zero"},
	}
	for _, c := range checks {
		got := m.Counter(c.name)
		if c.want == "nonzero" && got == 0 {
			t.Errorf("%s = 0, want nonzero", c.name)
		}
		if c.want == "zero" && got != 0 {
			t.Errorf("%s = %d, want 0", c.name, got)
		}
	}
	// Duplicate-send overhead: at full 2x every virtual send fans out to
	// two physical sends.
	if v, p := m.Counter("redundancy_virtual_sends_total"),
		m.Counter("redundancy_physical_sends_total"); p != 2*v {
		t.Errorf("physical sends %d != 2 * virtual sends %d at degree 2", p, v)
	}
	if m.Gauge("simmpi_mailbox_depth_hwm") <= 0 {
		t.Error("mailbox high-water mark not recorded")
	}
}

func TestExternalRegistryReceivesJobCounters(t *testing.T) {
	reg := obs.NewRegistry()
	res, err := Run(Config{
		Ranks:          4,
		Degree:         1,
		AttemptTimeout: time.Minute,
		Obs:            reg,
	}, cgFactory(t, 6, 20))
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("runner_attempts_total").Value(); got != 1 {
		t.Errorf("runner_attempts_total = %d, want 1", got)
	}
	if reg.Counter("simmpi_sends_total").Value() == 0 {
		t.Error("caller-supplied registry missing folded simmpi counters")
	}
	if res.Metrics.Counter("simmpi_sends_total") !=
		reg.Counter("simmpi_sends_total").Value() {
		t.Error("Result.Metrics disagrees with caller-supplied registry")
	}
}

func TestScheduleOnceForcesExactlyOneRestart(t *testing.T) {
	// Kill both replicas of sphere 1 at t=0 on attempt 0 only: the job
	// fails once, restarts, and completes cleanly on attempt 1.
	cfg := obsConfig()
	cfg.MaxRestarts = 3
	cfg.ScheduleOnce = true
	cfg.ComputeDelay = 2 * time.Millisecond
	cfg.FailureSchedule = []failure.Kill{{Rank: 2}, {Rank: 3}}
	res, err := Run(cfg, cgFactory(t, 6, 30))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || res.Restarts != 1 {
		t.Fatalf("completed=%v restarts=%d, want completed after exactly 1 restart",
			res.Completed, res.Restarts)
	}
	m := res.Metrics
	if got := m.Counter("runner_restarts_total"); got != 1 {
		t.Errorf("runner_restarts_total = %d, want 1", got)
	}
	if got := m.Counter("runner_job_failures_total"); got != 1 {
		t.Errorf("runner_job_failures_total = %d, want 1", got)
	}
	if got := m.Counter("failure_kills_total"); got != 2 {
		t.Errorf("failure_kills_total = %d, want 2", got)
	}
	if got := m.Counter("failure_sphere_exhausted_total"); got != 1 {
		t.Errorf("failure_sphere_exhausted_total = %d, want 1", got)
	}
}

func TestCorruptRanksSurfaceMismatches(t *testing.T) {
	// Corrupt the second replica of sphere 2: receivers out-vote it on
	// every delivery, so mismatches are detected without wrong results.
	cfg := obsConfig()
	cfg.CorruptRanks = []int{5} // sphere(2) = {4, 5} at 4 ranks, 2x
	res, err := Run(cfg, cgFactory(t, 6, 30))
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Counter("redundancy_mismatches_total") == 0 {
		t.Error("corrupt replica produced no recorded mismatches")
	}
	if res.Redundancy.Mismatches == 0 {
		t.Error("Result.Redundancy missed the mismatches")
	}
}
