package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestMain lets the test binary stand in for redmpirun's worker
// processes: -transport proc re-execs the running executable with the
// parent's arguments plus -proc-worker-rank, and those invocations run
// one physical rank instead of the test suite.
func TestMain(m *testing.M) {
	for _, arg := range os.Args[1:] {
		if arg == "-proc-worker-rank" {
			if err := run(os.Args[1:]); err != nil {
				fmt.Fprintln(os.Stderr, "redmpirun:", errorMessage(err))
				os.Exit(exitCode(err))
			}
			os.Exit(0)
		}
	}
	os.Exit(m.Run())
}

// procJob is one redmpirun invocation running in the background with
// its stdout (and its workers' stdout) captured to a file.
type procJob struct {
	t    *testing.T
	path string
	done chan error
}

// startJob runs redmpirun with args while os.Stdout points at a file.
// Tests run one job at a time, so the swap is not shared.
func startJob(t *testing.T, args ...string) *procJob {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = f
	j := &procJob{t: t, path: f.Name(), done: make(chan error, 1)}
	go func() {
		err := run(args)
		os.Stdout = saved
		f.Close()
		j.done <- err
	}()
	return j
}

// wait returns the job's error and everything it printed.
func (j *procJob) wait() (string, error) {
	j.t.Helper()
	var err error
	select {
	case err = <-j.done:
	case <-time.After(3 * time.Minute):
		j.t.Fatal("job did not finish")
	}
	return j.output(), err
}

func (j *procJob) output() string {
	data, err := os.ReadFile(j.path)
	if err != nil {
		j.t.Fatal(err)
	}
	return string(data)
}

// pid waits for the spawn line of (attempt, rank) and returns its PID.
func (j *procJob) pid(attempt, rank int) int {
	j.t.Helper()
	re := regexp.MustCompile(fmt.Sprintf(`(?m)^proc: attempt %d rank %d pid=(\d+)$`, attempt, rank))
	deadline := time.Now().Add(time.Minute)
	for time.Now().Before(deadline) {
		if m := re.FindStringSubmatch(j.output()); m != nil {
			pid, _ := strconv.Atoi(m[1])
			return pid
		}
		time.Sleep(20 * time.Millisecond)
	}
	j.t.Fatalf("no spawn line for attempt %d rank %d", attempt, rank)
	return 0
}

// gone reports whether process pid has exited: it is a zombie or
// already reaped (Linux /proc).
func gone(pid int) bool {
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return true
	}
	// The state follows the parenthesised command name.
	i := strings.LastIndexByte(string(stat), ')')
	return i < 0 || strings.HasPrefix(string(stat[i+1:]), " Z")
}

func readMetrics(t *testing.T, path string) obs.Snapshot {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	return snap
}

func runJob(t *testing.T, args ...string) (string, error) {
	t.Helper()
	return startJob(t, args...).wait()
}

// cgProcArgs is the proc-smoke job: dual CG over eight worker processes,
// slow enough (20 ms a step) for wall-clock kills to land mid-run.
func cgProcArgs(extra ...string) []string {
	return append([]string{"-transport", "proc", "-app", "cg", "-np", "4", "-r", "2",
		"-grid", "6", "-iters", "60", "-compute", "20ms"}, extra...)
}

func mustContain(t *testing.T, out string, wants ...string) {
	t.Helper()
	for _, want := range wants {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
}

// TestProcRestartFromSharedCkptDir: losing both replicas of sphere 0 in
// the first attempt restarts every process from the shared checkpoint
// directory, and the second attempt completes.
func TestProcRestartFromSharedCkptDir(t *testing.T) {
	out, err := runJob(t, cgProcArgs("-interval", "10", "-ckpt-dir", t.TempDir(),
		"-timeout", "30s", "-max-restarts", "2", "-kill", "0@300ms,1@500ms", "-kill-once")...)
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	mustContain(t, out, "completed=true", "attempts=2")
}

// TestProcExhaustionExitCode: a sphere exhausted with no restart budget
// left ends the job with exit code 3.
func TestProcExhaustionExitCode(t *testing.T) {
	out, err := runJob(t, cgProcArgs("-timeout", "30s", "-max-restarts", "0",
		"-kill", "0@200ms,1@400ms")...)
	if code := exitCode(err); code != 3 {
		t.Fatalf("exit code %d (err %v), want 3\n%s", code, err, out)
	}
}

// TestProcShrinkTaskfarm: under -recovery shrink a sphere killed at a
// step is survived in place by the remaining worker processes.
func TestProcShrinkTaskfarm(t *testing.T) {
	out, err := runJob(t, "-transport", "proc", "-app", "taskfarm", "-np", "4", "-r", "2",
		"-iters", "100", "-recovery", "shrink", "-kill-at-step", "2@5,3@5",
		"-compute", "2ms", "-timeout", "60s")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	mustContain(t, out, "completed=true", "shrink episodes=1 restarts=0")
}

// TestProcExternalKill: a SIGKILL from outside the job (nothing in the
// job is told about it) of one replica is masked by its twin.
func TestProcExternalKill(t *testing.T) {
	j := startJob(t, cgProcArgs("-timeout", "60s", "-max-restarts", "0")...)
	victim := j.pid(0, 2)
	time.Sleep(500 * time.Millisecond)
	if err := syscall.Kill(victim, syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	out, err := j.wait()
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	mustContain(t, out, "completed=true", "failures=1")
}

// TestProcMixedExhaustion: sphere 0 = {0, 1} loses rank 0 to the
// injector and then rank 1 to an external SIGKILL. The two deaths
// together exhaust it, so the job ends with exit code 3 (not by its
// watchdog), and both count as failures.
func TestProcMixedExhaustion(t *testing.T) {
	if _, err := os.Stat("/proc/self/stat"); err != nil {
		t.Skip("needs /proc to see the injected kill land")
	}
	j := startJob(t, cgProcArgs("-timeout", "30s", "-max-restarts", "0", "-kill", "0@300ms")...)
	injected, victim := j.pid(0, 0), j.pid(0, 1)
	for deadline := time.Now().Add(time.Minute); !gone(injected); time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the injected kill of rank 0 never landed")
		}
	}
	if err := syscall.Kill(victim, syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	out, err := j.wait()
	if code := exitCode(err); code != 3 {
		t.Fatalf("exit code %d (err %v), want 3\n%s", code, err, out)
	}
	mustContain(t, out, "failures=2")
}

// TestProcRecoveryMatchesSim runs one step-pinned recovery — dual CG
// checkpointing every 10 steps, sphere 0 killed at step 15 — on the
// simulated transport and over worker processes on a unix socket and on
// TCP. Every transport must restart once and print the same answer. A
// proc kill rides an asynchronous step report and can land a step late,
// so proc may recompute more steps than sim, never fewer.
func TestProcRecoveryMatchesSim(t *testing.T) {
	resultRE := regexp.MustCompile(`(?m)^result: .*$`)
	type outcome struct {
		result     string
		attempts   uint64
		recomputed int64
	}
	runOn := func(t *testing.T, transport ...string) outcome {
		metrics := filepath.Join(t.TempDir(), "metrics.json")
		args := append([]string{"-app", "cg", "-np", "4", "-r", "2", "-grid", "6", "-iters", "30",
			"-compute", "20ms", "-interval", "10", "-ckpt-dir", t.TempDir(), "-max-restarts", "2",
			"-timeout", "60s", "-kill-at-step", "0@15,1@15", "-metrics", metrics}, transport...)
		out, err := runJob(t, args...)
		if err != nil {
			t.Fatalf("%v\n%s", err, out)
		}
		results := resultRE.FindAllString(out, -1)
		if len(results) != 1 {
			t.Fatalf("want one result line, got %q\n%s", results, out)
		}
		snap := readMetrics(t, metrics)
		return outcome{results[0], snap.Counter("runner_attempts_total"), snap.Gauge("runner_recomputed_steps")}
	}
	sim := runOn(t)
	if sim.attempts != 2 || sim.recomputed <= 0 {
		t.Fatalf("sim: %+v, want 2 attempts and recomputed steps", sim)
	}
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"unix", []string{"-transport", "proc"}},
		{"tcp", []string{"-transport", "proc", "-listen", "127.0.0.1:0"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := runOn(t, tc.args...)
			t.Logf("recomputed steps: sim %d, proc-%s %d", sim.recomputed, tc.name, got.recomputed)
			if got.result != sim.result || got.attempts != sim.attempts {
				t.Errorf("proc-%s %+v, sim %+v", tc.name, got, sim)
			}
			if got.recomputed < sim.recomputed {
				t.Errorf("proc-%s recomputed %d steps, fewer than sim's %d", tc.name, got.recomputed, sim.recomputed)
			}
		})
	}
}

// TestProcRejectsSharedMemoryFeatures: what worker processes cannot
// carry is refused with a reason before any process starts.
func TestProcRejectsSharedMemoryFeatures(t *testing.T) {
	for _, tc := range []struct {
		extra []string
		want  string
	}{
		{[]string{"-peer-shards", "1+1", "-interval", "5", "-ckpt-dir", t.TempDir()}, "-peer-shards is not supported"},
		{[]string{"-partial-restart"}, "-partial-restart is not supported"},
		{[]string{"-async-checkpoint", "-interval", "5", "-ckpt-dir", t.TempDir()}, "-async-checkpoint is not supported"},
		{[]string{"-send-latency", "1ms"}, "-send-latency is not supported"},
		{[]string{"-interval", "5"}, "requires -ckpt-dir"},
		{[]string{"-interval", "5", "-compress"}, "requires -ckpt-dir"},
	} {
		out, err := runJob(t, append([]string{"-transport", "proc", "-app", "cg", "-np", "2", "-r", "1"}, tc.extra...)...)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: err %v, want %q", tc.extra, err, tc.want)
		}
		if strings.Contains(out, "pid=") {
			t.Errorf("%v: a worker was spawned:\n%s", tc.extra, out)
		}
	}
}
