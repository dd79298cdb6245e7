// Command redmpirun launches one of the bundled applications under the
// combined redundancy + checkpoint/restart runtime with failure
// injection — the in-process analogue of `mpirun` with the RedMPI
// library, BLCR checkpointing, and the paper's failure injector attached.
//
// Examples:
//
//	redmpirun -app cg -np 8 -r 2 -mtbf 5s -interval 10 -max-restarts 5
//	redmpirun -app stencil -np 4 -r 1.5
//	redmpirun -app taskfarm -np 6 -r 3 -mode hash
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"

	"repro/internal/apps"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/obs"
	"repro/internal/redundancy"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "redmpirun:", errorMessage(err))
		os.Exit(exitCode(err))
	}
}

// exitCode maps run errors to distinct process exit codes so CI smoke
// steps can tell a job that exhausted its restart budget (3) apart from
// usage or I/O errors (1).
func exitCode(err error) int {
	if errors.Is(err, core.ErrRestartsExhausted) {
		return 3
	}
	return 1
}

func errorMessage(err error) string {
	if errors.Is(err, core.ErrRestartsExhausted) {
		return "job unrecoverable: " + err.Error()
	}
	return err.Error()
}

func run(args []string) error {
	fs := flag.NewFlagSet("redmpirun", flag.ContinueOnError)
	var (
		transport = fs.String("transport", "sim", "message-passing backend: sim (in-process goroutine ranks) | proc (one OS process per physical rank)")
		listenAt  = fs.String("listen", "", "proc transport: rendezvous over TCP on this listen address instead of a Unix socket")

		procRank    = fs.Int("proc-worker-rank", -1, "internal: run as the proc-transport worker for this physical rank")
		procConnect = fs.String("proc-connect", "", "internal: coordinator address for -proc-worker-rank")
		procNetwork = fs.String("proc-network", "unix", "internal: coordinator network for -proc-worker-rank")

		appName  = fs.String("app", "cg", "application: cg, stencil, taskfarm")
		np       = fs.Int("np", 8, "virtual process count N")
		degree   = fs.Float64("r", 2, "redundancy degree (1, 1.5, 2, 2.5, 3, ...)")
		mode     = fs.String("mode", "all", "replica comparison mode: all | hash")
		mtbf     = fs.Duration("mtbf", 0, "per-node MTBF for Poisson failure injection (0 = none)")
		interval = fs.Int("interval", 0, "checkpoint every N steps (0 = no checkpointing)")
		restarts = fs.Int("max-restarts", 10, "restart budget")
		recovery = fs.String("recovery", "restart", "recovery policy: restart (attempt loop from checkpoints) | shrink (ULFM-style survivor recovery: the job shrinks onto the survivors, no restarts, no checkpoints)")
		seed     = fs.Int64("seed", 1, "failure-injection seed")
		ckptDir  = fs.String("ckpt-dir", "", "persist checkpoints to this directory (default: in-memory)")
		grid     = fs.Int("grid", 10, "cg: Laplacian grid (grid^2 unknowns); stencil: width")
		iters    = fs.Int("iters", 100, "iterations (cg/stencil) or tasks (taskfarm)")
		compute  = fs.Duration("compute", time.Millisecond, "emulated per-step compute time")
		sendLat  = fs.Duration("send-latency", 0, "emulated per-message wire latency")
		timeout  = fs.Duration("timeout", 2*time.Minute, "per-attempt watchdog")
		compress = fs.Bool("compress", false, "DEFLATE-compress checkpoint images")
		shards   = fs.Int("compress-shards", 0, "compress checkpoint images in N parallel shards (with -compress; 0/1 = single stream)")

		asyncCkpt = fs.Bool("async-checkpoint", false, "pipeline checkpoint compress+write onto background workers (overlap with compute)")
		asyncWkrs = fs.Int("async-workers", 0, "background writer pool size for -async-checkpoint (0 = GOMAXPROCS)")

		kill     = fs.String("kill", "", "deterministic kill list rank[@offset],... (e.g. 2@0s,3@50ms); replaces -mtbf draws")
		killOnce = fs.Bool("kill-once", false, "apply -kill to the first attempt only (forces exactly one restart cycle)")
		killStep = fs.String("kill-at-step", "", "deterministic step-triggered kill list rank@step,... (e.g. 4@38,5@38)")
		corrupt  = fs.String("corrupt", "", "physical ranks injecting silent data corruption, comma-separated")

		peerSh   = fs.String("peer-shards", "", "keep checkpoints in peer memory as k+m Reed-Solomon shards spread across k+m spheres: any m sphere losses recoverable at (k+m)/k memory (e.g. 4+2); 1+r is full copies in r buddy spheres (empty = peer tier off)")
		peerBudg = fs.Int64("peer-budget-bytes", 0, "cap the peer tier's resident bytes per rank, evicting whole oldest generations when exceeded (0 = unlimited)")
		stableEv = fs.Int("stable-every", 1, "push every Nth peer generation to the stable tier (with -peer-shards)")
		partialR = fs.Bool("partial-restart", false, "recover sphere deaths in place from the peer tier (requires -peer-shards and -interval)")

		metricsF = fs.String("metrics", "", "write the job metrics snapshot as JSON to this file and print the rendered table")
		obsAddr  = fs.String("obs-addr", "", "serve live introspection (/metrics, /healthz, /ranks, /timeline) on this address for the run's duration")
		flightF  = fs.String("flight", "", "write the flight recorder's event stream as JSONL to this file at exit (success or failure): each rank's last -flight-cap records")
		flightC  = fs.Int("flight-cap", obs.DefaultFlightCap, "per-rank flight-recorder ring capacity (raise it until the dump reports nothing overwritten for a whole-run log)")
		flightCk = fs.String("flight-clock", "logical", "flight-recorder clock: logical (deterministic) | mono (wall-time phase durations)")
		pprofA   = fs.String("pprof", "", "serve net/http/pprof on this address for the run's duration")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = fs.String("memprofile", "", "write a heap profile to this file at exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	factory, describe, err := buildApp(*appName, *grid, *iters)
	if err != nil {
		return err
	}
	if *transport != "sim" && *transport != "proc" {
		return fmt.Errorf("unknown -transport %q (sim | proc)", *transport)
	}
	switch *recovery {
	case "restart":
	case "shrink":
		// Shrink-and-continue excludes the whole rollback machinery; an
		// explicitly requested piece of it is a contradiction, while the
		// defaults are simply neutralised.
		set := map[string]bool{}
		fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
		for _, name := range []string{"interval", "max-restarts", "peer-shards", "peer-budget-bytes", "partial-restart", "async-checkpoint", "kill-once"} {
			if set[name] {
				return fmt.Errorf("-%s is meaningless with -recovery shrink (the job never restarts or restores)", name)
			}
		}
		*interval, *restarts, *partialR = 0, 0, false
		*peerSh, *peerBudg = "", 0
	default:
		return fmt.Errorf("unknown -recovery %q (restart | shrink)", *recovery)
	}
	peerData, peerParity := 0, 0
	if *peerSh != "" {
		var perr error
		peerData, peerParity, perr = parseShardSpec(*peerSh)
		if perr != nil {
			return perr
		}
	}
	if *procRank >= 0 && *procConnect == "" {
		return fmt.Errorf("-proc-worker-rank requires -proc-connect")
	}
	cfg := core.Config{
		Ranks:            *np,
		Degree:           *degree,
		RecoveryPolicy:   core.RecoveryPolicy(*recovery),
		StepInterval:     *interval,
		NodeMTBF:         *mtbf,
		Seed:             *seed,
		MaxRestarts:      *restarts,
		AttemptTimeout:   *timeout,
		ComputeDelay:     *compute,
		SendDelay:        *sendLat,
		ScheduleOnce:     *killOnce,
		PeerDataShards:   peerData,
		PeerParityShards: peerParity,
		PeerBudgetBytes:  *peerBudg,
		StableEvery:      *stableEv,
		PartialRestart:   *partialR,

		AsyncCheckpoint: *asyncCkpt,
		AsyncWorkers:    *asyncWkrs,
	}
	if *kill != "" {
		schedule, err := parseKillList(*kill)
		if err != nil {
			return err
		}
		cfg.FailureSchedule = schedule
	}
	if *killStep != "" {
		kills, err := parseStepKills(*killStep)
		if err != nil {
			return err
		}
		cfg.StepKills = kills
	}
	if *corrupt != "" {
		ranks, err := parseRankList(*corrupt)
		if err != nil {
			return err
		}
		cfg.CorruptRanks = ranks
	}

	reg := obs.NewRegistry()
	cfg.Obs = reg
	switch *mode {
	case "all":
		cfg.Mode = redundancy.AllToAll
	case "hash":
		cfg.Mode = redundancy.MsgPlusHash
	default:
		return fmt.Errorf("unknown mode %q", *mode)
	}
	if *ckptDir != "" {
		store, err := checkpoint.NewFileStorage(*ckptDir)
		if err != nil {
			return err
		}
		cfg.Storage = store
	}
	if *compress {
		inner := cfg.Storage
		if inner == nil {
			inner = checkpoint.NewMemStorage()
		}
		cfg.Storage = &checkpoint.CompressedStorage{Inner: inner, Obs: reg, Shards: *shards}
	} else if *shards > 1 {
		return fmt.Errorf("-compress-shards requires -compress")
	}
	if *procRank >= 0 {
		// Worker re-exec path: this process is one physical rank of the
		// parent's job, built from the same flags.
		return core.RunRank(cfg, *procRank, *procNetwork, *procConnect, factory, func(app apps.App) {
			fmt.Println("result:", describe(app))
		})
	}
	if *transport == "proc" {
		exe, err := os.Executable()
		if err != nil {
			return err
		}
		cfg.Listen = *listenAt
		cfg.Spawn = func(attempt, rank int, network, addr string) (*os.Process, error) {
			// A worker runs with this run's own arguments (not os.Args,
			// so a test binary can stand in for redmpirun) plus its
			// identity; its output goes where ours does.
			argv := append(args[:len(args):len(args)], "-proc-worker-rank", strconv.Itoa(rank),
				"-proc-connect", addr, "-proc-network", network)
			cmd := exec.Command(exe, argv...)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Start(); err != nil {
				return nil, err
			}
			// Scripts that SIGKILL a worker from outside read its PID here.
			fmt.Printf("proc: attempt %d rank %d pid=%d\n", attempt, rank, cmd.Process.Pid)
			return cmd.Process, nil
		}
	}
	if *flightCk != "logical" && *flightCk != "mono" {
		return fmt.Errorf("unknown -flight-clock %q (logical | mono)", *flightCk)
	}
	var rec *obs.Recorder
	if *flightF != "" || *obsAddr != "" {
		rec = obs.NewRecorder(*flightC, *flightCk == "mono")
		cfg.Recorder = rec
	}
	if *obsAddr != "" {
		srv := obs.NewServer(reg, rec)
		cfg.RankView = srv.SetRankView
		bound, serr := srv.Start(*obsAddr)
		if serr != nil {
			return serr
		}
		defer srv.Stop() //nolint:errcheck // best-effort teardown
		fmt.Printf("introspection: http://%s/metrics\n", bound)
	}
	if *pprofA != "" || *cpuProf != "" || *memProf != "" {
		stop, perr := obs.StartProfiling(obs.ProfileConfig{
			Addr: *pprofA, CPUFile: *cpuProf, HeapFile: *memProf,
		})
		if perr != nil {
			return perr
		}
		defer func() {
			if serr := stop(); serr != nil {
				fmt.Fprintln(os.Stderr, "redmpirun: profiling:", serr)
			}
		}()
	}
	fmt.Printf("launching %s: N=%d r=%g (%d physical ranks under Eq. 8)\n",
		*appName, *np, *degree, mustPhysical(*np, *degree))
	start := time.Now()
	res, runErr := core.Run(cfg, factory)
	// Checkpoint and redundancy-layer counts live in the worker processes
	// of a proc job; the parent prints no zeros for them.
	local := cfg.Spawn == nil
	fmt.Printf("completed=%v wallclock=%v attempts=%d failures=%d",
		res.Completed, time.Since(start).Round(time.Millisecond),
		len(res.Attempts), res.TotalFailures)
	if local {
		fmt.Printf(" checkpoints=%d", res.TotalCheckpoints)
	}
	fmt.Println()
	for _, at := range res.Attempts {
		fmt.Printf("  attempt %d: elapsed=%v failures=%d jobFailed=%v",
			at.Index, at.Elapsed.Round(time.Millisecond), at.Failures, at.JobFailed)
		if local {
			fmt.Printf(" restored=%v checkpoints=%d partials=%d", at.Restored, at.Checkpoints, at.PartialRestarts)
		}
		fmt.Println()
	}
	switch {
	case cfg.PeerTier():
		fmt.Printf("recovery: partial-restarts=%d full-restarts=%d recomputed-steps=%d\n",
			res.PartialRestarts, res.Restarts, res.RecomputedSteps)
	case cfg.RecoveryPolicy == core.RecoverShrink:
		fmt.Printf("recovery: shrink episodes=%d restarts=0\n", res.ShrinkEpisodes)
	default:
		fmt.Printf("recovery: full-restarts=%d recomputed-steps=%d\n", res.Restarts, res.RecomputedSteps)
	}
	if local {
		fmt.Printf("redundancy layer: %d physical sends, %d deliveries, %d mismatches, %d corrections\n",
			res.Redundancy.PhysicalSends, res.Redundancy.Deliveries,
			res.Redundancy.Mismatches, res.Redundancy.Corrections)
	}
	if *metricsF != "" {
		if err := writeMetrics(*metricsF, res.Metrics); err != nil {
			return err
		}
		fmt.Print(res.Metrics.Format())
	}
	// The black box dumps on both success and failure — a failed run is
	// exactly when the forensic timeline matters.
	if *flightF != "" {
		if err := writeFlight(*flightF, rec); err != nil {
			return err
		}
	}
	if runErr != nil {
		return runErr
	}
	if len(res.CompletedApps) > 0 {
		fmt.Println("result:", describe(res.CompletedApps[0]))
	}
	return nil
}

// writeFlight dumps the flight recorder's retained records as JSONL. A
// dump whose rings overwrote older records says so on stderr, so one
// meant as a whole-run log is never silently partial.
func writeFlight(path string, rec *obs.Recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.WriteJSONL(f); err != nil {
		f.Close()
		return fmt.Errorf("writing flight dump: %w", err)
	}
	if n := rec.Dropped(); n > 0 {
		fmt.Fprintf(os.Stderr, "redmpirun: flight dump %s is truncated: %d older records overwritten; raise -flight-cap (now %d) to keep the whole run\n",
			path, n, rec.Cap())
	}
	return f.Close()
}

// writeMetrics serialises the snapshot as indented JSON.
func writeMetrics(path string, snap obs.Snapshot) error {
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// parseKillList parses "rank[@offset],..." into a deterministic kill
// schedule; a bare rank kills at t=0.
func parseKillList(spec string) ([]failure.Kill, error) {
	var out []failure.Kill
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		rankStr, afterStr, hasAt := strings.Cut(part, "@")
		rank, err := strconv.Atoi(rankStr)
		if err != nil {
			return nil, fmt.Errorf("bad -kill entry %q: %w", part, err)
		}
		k := failure.Kill{Rank: rank}
		if hasAt {
			after, err := time.ParseDuration(afterStr)
			if err != nil {
				return nil, fmt.Errorf("bad -kill offset %q: %w", part, err)
			}
			k.After = after
		}
		out = append(out, k)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty -kill list %q", spec)
	}
	return out, nil
}

// parseStepKills parses "rank@step,..." into a step-triggered kill
// schedule (steps are 1-based checkpointing steps of the virtual app).
func parseStepKills(spec string) ([]core.StepKill, error) {
	var out []core.StepKill
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		rankStr, stepStr, hasAt := strings.Cut(part, "@")
		if !hasAt {
			return nil, fmt.Errorf("bad -kill-at-step entry %q: want rank@step", part)
		}
		rank, err := strconv.Atoi(rankStr)
		if err != nil {
			return nil, fmt.Errorf("bad -kill-at-step rank %q: %w", part, err)
		}
		step, err := strconv.Atoi(stepStr)
		if err != nil {
			return nil, fmt.Errorf("bad -kill-at-step step %q: %w", part, err)
		}
		out = append(out, core.StepKill{Rank: rank, Step: step})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty -kill-at-step list %q", spec)
	}
	return out, nil
}

// parseShardSpec parses "k+m" into the peer tier's data/parity shard
// counts, both at least 1.
func parseShardSpec(spec string) (data, parity int, err error) {
	kStr, mStr, hasPlus := strings.Cut(spec, "+")
	if !hasPlus {
		return 0, 0, fmt.Errorf("bad -peer-shards %q: want k+m (e.g. 4+2)", spec)
	}
	data, err = strconv.Atoi(strings.TrimSpace(kStr))
	if err != nil {
		return 0, 0, fmt.Errorf("bad -peer-shards data count %q: %w", spec, err)
	}
	parity, err = strconv.Atoi(strings.TrimSpace(mStr))
	if err != nil {
		return 0, 0, fmt.Errorf("bad -peer-shards parity count %q: %w", spec, err)
	}
	if data < 1 || parity < 1 {
		return 0, 0, fmt.Errorf("bad -peer-shards %q: k and m must both be >= 1 (1+r is full copies)", spec)
	}
	return data, parity, nil
}

// parseRankList parses a comma-separated physical rank list.
func parseRankList(spec string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		rank, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("bad -corrupt entry %q: %w", part, err)
		}
		out = append(out, rank)
	}
	return out, nil
}

func mustPhysical(n int, degree float64) int {
	m, err := redundancy.NewRankMap(n, degree)
	if err != nil {
		return -1
	}
	return m.PhysicalSize()
}

func buildApp(name string, grid, iters int) (func() apps.App, func(apps.App) string, error) {
	switch name {
	case "cg":
		m, err := apps.Laplacian2D(grid)
		if err != nil {
			return nil, nil, err
		}
		return func() apps.App { return &apps.CG{Matrix: m, Iterations: iters} },
			func(a apps.App) string {
				cg := a.(*apps.CG)
				return fmt.Sprintf("residual=%.3e checksum=%.6f", cg.ResidualNorm, cg.Checksum)
			}, nil
	case "stencil":
		return func() apps.App {
				return &apps.Stencil{Width: grid, Height: 3 * grid, Iterations: iters, HotBoundary: 100}
			},
			func(a apps.App) string {
				return fmt.Sprintf("heat=%.6f", a.(*apps.Stencil).Heat)
			}, nil
	case "taskfarm":
		return func() apps.App { return &apps.TaskFarm{Tasks: iters} },
			func(a apps.App) string {
				return fmt.Sprintf("total=%d", a.(*apps.TaskFarm).Total)
			}, nil
	default:
		return nil, nil, fmt.Errorf("unknown app %q (cg, stencil, taskfarm)", name)
	}
}
