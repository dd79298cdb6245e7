package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/golden")

// TestGoldenMetricsSnapshot locks down the metrics snapshot of a small
// fixed-seed job that exercises every subsystem: a deterministic
// first-attempt sphere kill forces one restart, and one corrupt replica
// forces mismatch voting. Every run of this command line must produce
// exactly these counters.
func TestGoldenMetricsSnapshot(t *testing.T) {
	metricsPath := filepath.Join(t.TempDir(), "metrics.json")
	args := []string{
		"-app", "cg", "-np", "4", "-r", "2",
		"-grid", "6", "-iters", "30",
		"-interval", "10", "-compute", "2ms",
		"-max-restarts", "3",
		"-kill", "2,3", "-kill-once",
		"-corrupt", "5",
		"-metrics", metricsPath,
	}
	if err := run(args); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}

	data, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("metrics file is not valid JSON: %v", err)
	}

	// Spot-check the acceptance counters before golden comparison, so a
	// stale golden file cannot mask a dead counter.
	for _, name := range []string{
		"simmpi_sends_total", "redundancy_votes_total",
		"redundancy_mismatches_total", "checkpoint_committed_total",
		"runner_restarts_total", "failure_kills_total",
	} {
		if snap.Counter(name) == 0 {
			t.Errorf("%s = 0, want nonzero", name)
		}
	}

	// Wall-time derived counters (_ms gauges, _ns stall/overlap totals)
	// are the only nondeterministic ones; everything else must be
	// byte-identical run to run.
	got := snap.FilterCounters(func(name string) bool {
		return !strings.Contains(name, "_ms") && !strings.Contains(name, "_ns")
	}).Format()

	path := filepath.Join("testdata", "golden", "metrics.txt")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with: go test ./cmd/redmpirun -run TestGolden -update)", err)
	}
	if got != string(want) {
		t.Errorf("metrics snapshot drifted from golden:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestFlightOutputParsesAndIsOrdered checks the -flight dump as a
// whole-run log: every line is a JSON record, records are sorted by
// (rank, seq), and a cap large enough for the run keeps every kind the
// forced restart produces, from the first attempt's kills to run_end.
func TestFlightOutputParsesAndIsOrdered(t *testing.T) {
	flightPath := filepath.Join(t.TempDir(), "flight.jsonl")
	args := []string{
		"-app", "cg", "-np", "4", "-r", "2",
		"-grid", "6", "-iters", "30",
		"-interval", "10", "-compute", "2ms",
		"-max-restarts", "3",
		"-kill", "2,3", "-kill-once",
		"-flight", flightPath, "-flight-cap", "65536",
	}
	var runErr error
	stderr := captureStderr(t, func() { runErr = run(args) })
	if runErr != nil {
		t.Fatalf("run(%v): %v", args, runErr)
	}
	if strings.Contains(stderr, "truncated") {
		t.Fatalf("whole-run dump reported truncation: %q", stderr)
	}
	data, err := os.ReadFile(flightPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	var recs []obs.Record
	for i, line := range lines {
		var r obs.Record
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("flight line %d is not JSON: %v", i, err)
		}
		recs = append(recs, r)
	}
	kinds := map[string]bool{}
	for i, r := range recs {
		kinds[r.Kind+r.Ev] = true
		if r.Kind == "run_end" && r.Arg != 1 {
			t.Errorf("run_end arg = %d, want 1 for a completed job", r.Arg)
		}
		if i == 0 {
			continue
		}
		prev := recs[i-1]
		if r.Rank < prev.Rank || (r.Rank == prev.Rank && r.Seq <= prev.Seq) {
			t.Errorf("records out of order at line %d: %+v after %+v", i, r, prev)
		}
	}
	for _, want := range []string{"attempt" + obs.EvBegin, "attempt" + obs.EvEnd,
		"kill", "job_failed", "ckpt_commit", "run_end"} {
		if !kinds[want] {
			t.Errorf("flight dump missing %q records (saw %v)", want, kinds)
		}
	}
}

// TestFlightTruncationIsReported: a ring too small for the run still
// dumps, and says how many records it overwrote and which flag to raise.
func TestFlightTruncationIsReported(t *testing.T) {
	flightPath := filepath.Join(t.TempDir(), "flight.jsonl")
	args := []string{
		"-app", "cg", "-np", "2", "-r", "1", "-grid", "4", "-iters", "10",
		"-compute", "0s", "-flight", flightPath, "-flight-cap", "4",
	}
	var runErr error
	stderr := captureStderr(t, func() { runErr = run(args) })
	if runErr != nil {
		t.Fatalf("run(%v): %v", args, runErr)
	}
	if !strings.Contains(stderr, "truncated") || !strings.Contains(stderr, "raise -flight-cap (now 4)") {
		t.Fatalf("stderr %q does not report the truncated dump", stderr)
	}
	if n := strings.Count(stderr, "\n"); n != 1 {
		t.Fatalf("stderr has %d lines, want 1: %q", n, stderr)
	}
}

// captureStderr runs fn with os.Stderr redirected to a file and returns
// what fn wrote there.
func captureStderr(t *testing.T, fn func()) string {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stderr")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stderr
	os.Stderr = f
	defer func() { os.Stderr = saved }()
	fn()
	data, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func TestParseKillList(t *testing.T) {
	kills, err := parseKillList("2@0s, 3@50ms,7")
	if err != nil {
		t.Fatal(err)
	}
	if len(kills) != 3 || kills[0].Rank != 2 || kills[1].After.Milliseconds() != 50 || kills[2].Rank != 7 {
		t.Fatalf("parsed %+v", kills)
	}
	for _, bad := range []string{"", "x", "2@", "2@x"} {
		if _, err := parseKillList(bad); err == nil {
			t.Errorf("parseKillList(%q) accepted", bad)
		}
	}
}

func TestParseStepKills(t *testing.T) {
	kills, err := parseStepKills("4@38, 5@38,6@40")
	if err != nil {
		t.Fatal(err)
	}
	if len(kills) != 3 || kills[0].Rank != 4 || kills[0].Step != 38 || kills[2].Step != 40 {
		t.Fatalf("parsed %+v", kills)
	}
	for _, bad := range []string{"", "4", "4@", "@38", "x@38", "4@x"} {
		if _, err := parseStepKills(bad); err == nil {
			t.Errorf("parseStepKills(%q) accepted", bad)
		}
	}
}

// TestPartialRestartFlagsSmoke exercises the -peer-shards /
// -partial-restart / -kill-at-step flags end to end with full copies
// (1+1): a whole-sphere kill at step 38 must be absorbed in place, the
// survivors restoring from their own copies and the revived ranks
// fetching theirs from a buddy. Recomputed steps are not pinned: they
// depend on how far the survivors got before the interrupt.
func TestPartialRestartFlagsSmoke(t *testing.T) {
	metricsPath := filepath.Join(t.TempDir(), "metrics.json")
	args := []string{
		"-app", "cg", "-np", "4", "-r", "2",
		"-grid", "6", "-iters", "60",
		"-interval", "5", "-compute", "0s",
		"-peer-shards", "1+1", "-stable-every", "4", "-partial-restart",
		"-kill-at-step", "4@38,5@38",
		"-max-restarts", "3",
		"-metrics", metricsPath,
	}
	if err := run(args); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	data, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]uint64{
		"runner_restarts_total":      0,
		"partial_restarts_total":     1,
		"peer_fetch_exhausted_total": 0,
		"peer_fetch_local_total":     6,
		"peer_fetch_remote_total":    2,
		"peerstore_replicas_total":   48,
	} {
		if got := snap.Counter(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if got := snap.Gauge("peer_store_resident_bytes"); got != 6336 {
		t.Errorf("peer_store_resident_bytes = %d, want 6336", got)
	}
}

// TestPeerShardsFlagValidation pins the -peer-shards contract: k and m
// must both be at least 1, and k+m spheres must exist.
func TestPeerShardsFlagValidation(t *testing.T) {
	for _, spec := range []string{"1+1", "1+3", "4+2"} {
		if _, _, err := parseShardSpec(spec); err != nil {
			t.Errorf("parseShardSpec(%q): %v", spec, err)
		}
	}
	for _, spec := range []string{"0+1", "2+0", "0+0", "-1+2", "2", "x+1", "1+y"} {
		if _, _, err := parseShardSpec(spec); err == nil {
			t.Errorf("parseShardSpec(%q) accepted", spec)
		}
	}
	args := []string{"-app", "cg", "-np", "4", "-r", "1", "-grid", "4", "-iters", "4",
		"-interval", "2", "-compute", "0s", "-peer-shards", "3+2"}
	if err := run(args); err == nil {
		t.Error("-peer-shards 3+2 over 4 spheres accepted")
	}
}

// TestShrinkRecoveryFlagSmoke exercises -recovery shrink end to end on
// the sim transport: a worker sphere killed mid-taskfarm must be
// survived in place — completion with zero restarts and zero restores —
// and the flight dump must carry the shrink span.
func TestShrinkRecoveryFlagSmoke(t *testing.T) {
	dir := t.TempDir()
	metricsPath := filepath.Join(dir, "metrics.json")
	flightPath := filepath.Join(dir, "flight.jsonl")
	args := []string{
		"-app", "taskfarm", "-np", "4", "-r", "1",
		"-iters", "25", "-compute", "0s",
		"-recovery", "shrink",
		"-kill-at-step", "2@5",
		"-metrics", metricsPath,
		"-flight", flightPath,
	}
	if err := run(args); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	data, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	if got := snap.Counter("shrink_episodes_total"); got == 0 {
		t.Error("shrink_episodes_total = 0")
	}
	for _, name := range []string{"checkpoint_restores_total", "runner_restarts_total"} {
		if got := snap.Counter(name); got != 0 {
			t.Errorf("%s = %d, want 0", name, got)
		}
	}
	flight, err := os.ReadFile(flightPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(flight), `"kind":"shrink"`) {
		t.Error("flight dump has no shrink span")
	}
}

// TestShrinkRejectsRollbackFlags pins the CLI contract: explicitly
// combining -recovery shrink with any rollback flag is an error, not a
// silent override.
func TestShrinkRejectsRollbackFlags(t *testing.T) {
	for _, extra := range [][]string{
		{"-interval", "5"},
		{"-max-restarts", "2"},
		{"-peer-shards", "1+1"},
		{"-partial-restart"},
		{"-kill-once"},
	} {
		args := append([]string{"-app", "taskfarm", "-np", "3", "-r", "1",
			"-iters", "4", "-compute", "0s", "-recovery", "shrink"}, extra...)
		if err := run(args); err == nil {
			t.Errorf("run with %v accepted under -recovery shrink", extra)
		}
	}
	if err := run([]string{"-app", "cg", "-np", "2", "-r", "1", "-iters", "4",
		"-grid", "4", "-compute", "0s", "-recovery", "rewind"}); err == nil {
		t.Error("unknown -recovery value accepted")
	}
}

// TestExhaustionExitCode pins the CI-smoke contract: a job that burns
// through its restart budget exits with the distinct code 3, anything
// else with 1.
func TestExhaustionExitCode(t *testing.T) {
	args := []string{
		"-app", "cg", "-np", "4", "-r", "2",
		"-grid", "6", "-iters", "30",
		"-interval", "10", "-compute", "0s",
		"-max-restarts", "0",
		"-kill", "2,3",
	}
	err := run(args)
	if !errors.Is(err, core.ErrRestartsExhausted) {
		t.Fatalf("err = %v, want ErrRestartsExhausted", err)
	}
	if code := exitCode(err); code != 3 {
		t.Fatalf("exitCode = %d, want 3", code)
	}
	if msg := errorMessage(err); !strings.Contains(msg, "job unrecoverable") {
		t.Fatalf("message %q not distinct for exhaustion", msg)
	}
	if code := exitCode(errors.New("usage")); code != 1 {
		t.Fatalf("generic exitCode = %d, want 1", code)
	}
}

func TestMainSmokeAllApps(t *testing.T) {
	for _, app := range []string{"cg", "stencil", "taskfarm"} {
		app := app
		t.Run(app, func(t *testing.T) {
			args := []string{"-app", app, "-np", "2", "-r", "1", "-iters", "4", "-grid", "4", "-compute", "0s"}
			if err := run(args); err != nil {
				t.Fatalf("%s: %v", app, err)
			}
		})
	}
}

func Example_metricsShape() {
	// Document the snapshot JSON shape the -metrics flag emits.
	reg := obs.NewRegistry()
	reg.Counter("simmpi_sends_total").Add(3)
	data, _ := json.Marshal(reg.Snapshot())
	fmt.Println(string(data))
	// Output: {"counters":[{"name":"simmpi_sends_total","value":3}]}
}
