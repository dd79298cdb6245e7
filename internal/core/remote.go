package core

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/procmpi"
)

// remoteRanks is the world of an attempt whose ranks run in child
// processes (Config.Spawn): the procmpi hub they dial back to, and the
// processes themselves. The parent hosts no endpoint. It hears how each
// rank ends — a bye, a casualty's departure, a death, an application
// error — through the hub's callbacks and hands that to the attempt's
// gate, so the attempt loop, the supervisor and the injector's sphere
// accounting are the ones the in-process transport uses.
type remoteRanks struct {
	*procmpi.Coordinator
	spawn   func(attempt, rank int, network, addr string) (*os.Process, error)
	network string
	cleanup func()
	procs   []*os.Process
	reapers sync.WaitGroup

	mu   sync.Mutex
	gate *partialGate // nil before launch and after close: callbacks outside the attempt are dropped
}

var _ mpi.Transport = (*remoteRanks)(nil)

// rendezvousTimeout bounds how long an attempt waits for its worker
// processes to dial in.
const rendezvousTimeout = 30 * time.Second

// listenRemote opens the attempt's hub for n worker processes: on
// cfg.Listen over TCP, or on a unix socket in a fresh temp dir.
func listenRemote(cfg Config, n int, reg *obs.Registry) (*remoteRanks, error) {
	r := &remoteRanks{spawn: cfg.Spawn, network: "unix", procs: make([]*os.Process, n)}
	if cfg.Listen != "" {
		r.network = "tcp"
	}
	ln, cleanup, err := procmpi.Listen(r.network, cfg.Listen)
	if err != nil {
		return nil, err
	}
	r.cleanup = cleanup
	r.Coordinator, err = procmpi.NewCoordinator(ln, procmpi.CoordinatorConfig{
		Size:   n,
		Obs:    reg,
		Flight: cfg.Recorder,
		OnDeath: func(p int) {
			if g := r.current(); g != nil {
				// Account the death before the rank ends, so a supervisor
				// that sees the attempt drain finds the exhaustion it caused.
				g.inj.NoteDeath(p)
				g.remoteEnd(p, false, nil)
			}
		},
		OnBye: func(p int, completed bool) {
			if g := r.current(); g != nil {
				g.remoteEnd(p, completed, nil)
			}
		},
		OnStep: func(p, step int) {
			if g := r.current(); g != nil {
				g.acct.relay(g.rankMap, g.inj, p, step)
			}
		},
		OnAppErr: func(p int, msg string) {
			if g := r.current(); g != nil {
				g.remoteEnd(p, false, errors.New(msg))
			}
		},
	})
	if err != nil {
		ln.Close()
		cleanup()
		return nil, err
	}
	return r, nil
}

func (r *remoteRanks) current() *partialGate {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.gate
}

// Endpoint implements mpi.Transport: no rank lives in the parent.
func (r *remoteRanks) Endpoint(rank int) (mpi.Comm, error) {
	return nil, fmt.Errorf("core: rank %d runs in a worker process: %w", rank, mpi.ErrInvalidRank)
}

// launch hands the hub's callbacks to g, starts one worker process per
// rank through Config.Spawn, and returns once the rendezvous is over:
// every rank has dialed in or died. rendezvous reports whether it
// completed in time.
func (r *remoteRanks) launch(g *partialGate, attempt int) (rendezvous bool, err error) {
	g.expectRemote()
	r.mu.Lock()
	r.gate = g
	r.mu.Unlock()
	addr := r.Addr().String()
	for p := range r.procs {
		if r.procs[p], err = r.spawn(attempt, p, r.network, addr); err != nil {
			return false, fmt.Errorf("core: spawning rank %d: %w", p, err)
		}
		r.reapers.Add(1)
		go r.reap(p, r.procs[p])
	}
	// A worker that never dials in fails the attempt like any other
	// failure; the restart budget decides what follows.
	return r.WaitConnected(rendezvousTimeout) == nil, nil
}

// reap waits for rank p's process to exit. A process that exits before
// its hello never had a connection whose loss would mark it dead, so
// the reaper kills the rank at the hub, and the rendezvous stops
// waiting for it.
func (r *remoteRanks) reap(p int, proc *os.Process) {
	defer r.reapers.Done()
	_, _ = proc.Wait()
	if _, helloed := r.PID(p); !helloed {
		r.Kill(p)
	}
}

// close ends the attempt: callbacks stop reaching the gate, the hub
// closes (so no teardown exit reads as a death), and every child is
// killed and reaped.
func (r *remoteRanks) close() {
	r.mu.Lock()
	r.gate = nil
	r.mu.Unlock()
	r.Coordinator.Close()
	for _, p := range r.procs {
		if p != nil {
			_ = p.Kill()
		}
	}
	r.reapers.Wait()
	r.cleanup()
}
