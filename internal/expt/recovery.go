package expt

import (
	"fmt"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
)

// RecoveryParams configures the live full-vs-partial restart comparison:
// one deterministic whole-sphere kill schedule replayed under both
// recovery strategies on a Table 5-style dual-redundancy CG run.
type RecoveryParams struct {
	// Ranks is the virtual process count (degree is fixed at 2 so every
	// sphere has a survivor-free death when both replicas are killed).
	Ranks int
	// Grid sizes the CG problem (grid² unknowns).
	Grid int
	// Iterations per run.
	Iterations int
	// StepInterval is the peer-tier checkpoint cadence in steps.
	StepInterval int
	// StableEvery pushes every Nth peer generation to stable storage;
	// the gap between the two cadences is exactly the work a full
	// restart recomputes and a partial restart does not.
	StableEvery int
	// Kills is the step-triggered schedule; the default kills one whole
	// sphere between a peer generation and the next stable one.
	Kills []core.StepKill
	// ComputeDelay emulates per-step computation.
	ComputeDelay time.Duration
}

// DefaultRecoveryParams mirrors the fixed-seed chaos fixture: peer
// generations every 5 steps, stable every 20, sphere 2 (physical ranks
// 4 and 5) killed at step 38 — 3 steps past the freshest peer
// generation but 18 past the freshest stable one.
func DefaultRecoveryParams() RecoveryParams {
	return RecoveryParams{
		Ranks:        4,
		Grid:         6,
		Iterations:   60,
		StepInterval: 5,
		StableEvery:  4,
		Kills:        []core.StepKill{{Step: 38, Rank: 4}, {Step: 38, Rank: 5}},
		ComputeDelay: 200 * time.Microsecond,
	}
}

// Recovery runs the same deterministic sphere kill under a full
// coordinated restart and under sphere-local partial restart from the
// peer tier, and tabulates what each strategy recomputed. The
// recomputed-steps column is deterministic; elapsed is wall clock.
func Recovery(p RecoveryParams) (*Table, error) {
	m, err := apps.Laplacian2D(p.Grid)
	if err != nil {
		return nil, err
	}
	factory := func() apps.App { return &apps.CG{Matrix: m, Iterations: p.Iterations} }
	t := &Table{
		ID:    "recovery",
		Title: "Full vs partial restart on one deterministic sphere kill (live)",
		Header: []string{
			"Strategy", "Full restarts", "Partial restarts", "Recomputed steps", "Elapsed",
		},
	}
	for _, strat := range []struct {
		name    string
		partial bool
	}{
		{"full restart", false},
		{"partial restart", true},
	} {
		res, err := core.Run(core.Config{
			Ranks:               p.Ranks,
			Degree:              2,
			StepInterval:        p.StepInterval,
			PeerDataShards:      1,
			PeerParityShards:    1,
			StableEvery:         p.StableEvery,
			PartialRestart:      strat.partial,
			PartialRestartLimit: 2,
			StepKills:           p.Kills,
			MaxRestarts:         3,
			AttemptTimeout:      5 * time.Minute,
			ComputeDelay:        p.ComputeDelay,
		}, factory)
		if err != nil {
			return nil, fmt.Errorf("recovery %s: %w", strat.name, err)
		}
		if !res.Completed {
			return nil, fmt.Errorf("recovery %s: job did not complete", strat.name)
		}
		t.Rows = append(t.Rows, []string{
			strat.name,
			fmt.Sprintf("%d", res.Restarts),
			fmt.Sprintf("%d", res.PartialRestarts),
			fmt.Sprintf("%d", res.RecomputedSteps),
			res.Elapsed.Round(time.Millisecond).String(),
		})
	}
	t.Notes = append(t.Notes,
		"same kill schedule: partial restart rolls back to the peer generation, full restart to the sparser stable one",
		"the recomputed-steps gap is the ReStore-style win the peer tier buys")
	return t, nil
}
