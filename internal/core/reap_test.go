package core

import (
	"os"
	"os/exec"
	"strconv"
	"testing"
	"time"

	"repro/internal/failure"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/procmpi"
	"repro/internal/redundancy"
)

// TestHelperRemoteWorker is not a test: it is the body of the worker
// process TestLaunchReapsWorkerThatNeverDials spawns (the test binary
// re-execs itself with -test.run pinned here). It dials the hub,
// reports its PID, and parks in a receive until the world is torn down.
func TestHelperRemoteWorker(t *testing.T) {
	if os.Getenv("CORE_REMOTE_HELPER") != "1" {
		t.Skip("helper process entry point")
	}
	rank, _ := strconv.Atoi(os.Getenv("CORE_REMOTE_RANK"))
	w, err := procmpi.Dial(procmpi.WorkerConfig{
		Network: os.Getenv("CORE_REMOTE_NETWORK"),
		Addr:    os.Getenv("CORE_REMOTE_ADDR"),
		Rank:    rank,
		Size:    2,
		PID:     os.Getpid(),
	})
	if err != nil {
		os.Exit(2)
	}
	_, _ = w.Recv(mpi.AnySource, 1)
	w.Close()
	os.Exit(0)
}

// TestLaunchReapsWorkerThatNeverDials: rank 0's process exits at once,
// before it dials the hub, so no lost connection ever marks it dead.
// Its reaper must, and the rendezvous must then complete with rank 1
// alone instead of waiting out rendezvousTimeout.
func TestLaunchReapsWorkerThatNeverDials(t *testing.T) {
	spawn := func(attempt, rank int, network, addr string) (*os.Process, error) {
		cmd := exec.Command(os.Args[0], "-test.run=^$") // runs no test: exits without dialing
		if rank == 1 {
			cmd = exec.Command(os.Args[0], "-test.run=^TestHelperRemoteWorker$")
			cmd.Env = append(os.Environ(),
				"CORE_REMOTE_HELPER=1",
				"CORE_REMOTE_NETWORK="+network,
				"CORE_REMOTE_ADDR="+addr,
				"CORE_REMOTE_RANK=1",
			)
		}
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		return cmd.Process, nil
	}
	cfg := Config{Spawn: spawn}
	reg := obs.NewRegistry()
	r, err := listenRemote(cfg, 2, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	rankMap, err := redundancy.NewRankMap(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	inj, err := failure.New(r, [][]int{{0}, {1}}, failure.Config{Schedule: []failure.Kill{}})
	if err != nil {
		t.Fatal(err)
	}
	g := newPartialGate(cfg, r, rankMap, nil, nil, nil, inj, reg, newStepAccounting(2, nil, reg, nil), nil)

	start := time.Now()
	rendezvous, err := r.launch(g, 0)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("launch took %v: a worker that never dialed held up the rendezvous", elapsed.Round(time.Millisecond))
	}
	if !rendezvous {
		t.Fatal("rendezvous did not complete")
	}
	if r.Alive(0) {
		t.Fatal("rank 0 exited before its hello but is not dead")
	}
	if !r.Alive(1) {
		t.Fatal("rank 1 dialed in but is dead")
	}
}
