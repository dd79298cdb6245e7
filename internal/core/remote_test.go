package core

import (
	"reflect"
	"testing"

	"repro/internal/failure"
	"repro/internal/obs"
	"repro/internal/redundancy"
)

// killLog is a failure.KillTarget that records what it was told to kill.
type killLog struct{ ranks []int }

func (k *killLog) Kill(rank int) { k.ranks = append(k.ranks, rank) }

// TestRelayedStepKillsFireAtJobWideLine pins how step reports from
// worker processes drive step kills: a report names a physical rank,
// counts for its virtual rank, and a kill fires only once every
// reporting virtual rank has reached its step — however far ahead one
// replica's virtual rank runs — and at most once per Run.
func TestRelayedStepKillsFireAtJobWideLine(t *testing.T) {
	rankMap, err := redundancy.NewRankMap(3, 2) // spheres {0,1} {2,3} {4,5}
	if err != nil {
		t.Fatal(err)
	}
	spheres := [][]int{{0, 1}, {2, 3}, {4, 5}}
	target := &killLog{}
	inj, err := failure.New(target, spheres, failure.Config{Schedule: []failure.Kill{}})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	acct := newStepAccounting(3, []StepKill{{Step: 5, Rank: 4}, {Step: 8, Rank: 2}}, reg, nil)
	report := func(p int, steps ...int) {
		for _, s := range steps {
			acct.relay(rankMap, inj, p, s)
		}
	}
	wantKills := func(want ...int) {
		t.Helper()
		if !reflect.DeepEqual(target.ranks, want) {
			t.Fatalf("kills %v, want %v", target.ranks, want)
		}
	}

	// Every virtual rank reports step 1; a rank that never reports (a
	// task farm's workers) does not hold the line back.
	report(0, 1)
	report(2, 1)
	report(4, 1)
	report(0, 2, 3, 4, 5, 6, 7) // virtual rank 0 runs ahead
	report(1, 7)                // its twin reports too
	report(2, 2, 3, 4, 5, 6, 7)
	report(4, 2, 3, 4) // virtual rank 2 lags
	report(99, 50)     // not a rank of this job
	wantKills()
	report(5, 5) // virtual rank 2's other replica reaches the line
	wantKills(4)
	report(4, 6, 7)
	report(0, 8)
	report(2, 8)
	wantKills(4)
	report(5, 8)
	wantKills(4, 2)

	// A restart replays the steps: rework is counted, nothing fires again.
	acct.newEpoch()
	for p := 0; p < 6; p += 2 {
		report(p, 6, 7, 8, 9)
	}
	wantKills(4, 2)
	if got := reg.Snapshot().Gauge("runner_recomputed_steps"); got != 9 {
		t.Errorf("runner_recomputed_steps = %d, want 9 (steps 6-8 of 3 virtual ranks)", got)
	}
}
