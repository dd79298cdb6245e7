package procmpi

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/mpi"
	"repro/internal/obs"
)

// LocalConfig configures an in-process proc world.
type LocalConfig struct {
	// Network is "unix" (default) or "tcp"; the harness picks the
	// address (a socket in a fresh temp dir, or a loopback port).
	Network string
	// HeartbeatTimeout and HeartbeatInterval thread through to the
	// coordinator and workers (zero means defaults).
	HeartbeatTimeout  time.Duration
	HeartbeatInterval time.Duration
	// Obs and Flight thread through to the coordinator.
	Obs    *obs.Registry
	Flight *obs.Recorder
}

// Local hosts a complete proc-transport world in one process: a real
// coordinator listening on a real socket, and one dialed Worker per
// rank. Message bytes travel through the kernel exactly as they do
// between processes — only the process boundary is elided — which makes
// it the conformance and benchmark harness for the socket transport,
// and the reference implementation of reconnect-on-revive (Revive dials
// a replacement incarnation before flipping the liveness bit).
type Local struct {
	coord   *Coordinator
	cfg     LocalConfig
	addr    string
	cleanup func() // removes the unix socket's temp dir

	mu      sync.Mutex
	workers []*Worker
}

var _ mpi.Transport = (*Local)(nil)

// NewLocal builds a proc world of n in-process workers.
func NewLocal(n int, cfg LocalConfig) (*Local, error) {
	ln, cleanup, err := Listen(cfg.Network, "")
	if err != nil {
		return nil, err
	}
	coord, err := NewCoordinator(ln, CoordinatorConfig{
		Size:             n,
		HeartbeatTimeout: cfg.HeartbeatTimeout,
		Obs:              cfg.Obs,
		Flight:           cfg.Flight,
	})
	if err != nil {
		ln.Close()
		cleanup()
		return nil, err
	}
	l := &Local{
		coord:   coord,
		cfg:     cfg,
		addr:    ln.Addr().String(),
		cleanup: cleanup,
		workers: make([]*Worker, n),
	}
	// Dial concurrently: rendezvous is a barrier, so no welcome arrives
	// until every rank has connected.
	var wg sync.WaitGroup
	errs := make([]error, n)
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			w, derr := l.dial(rank)
			if derr != nil {
				errs[rank] = derr
				return
			}
			l.mu.Lock()
			l.workers[rank] = w
			l.mu.Unlock()
		}(r)
	}
	wg.Wait()
	for _, derr := range errs {
		if derr != nil {
			l.Close()
			return nil, derr
		}
	}
	if err := coord.WaitConnected(10 * time.Second); err != nil {
		l.Close()
		return nil, err
	}
	return l, nil
}

func (l *Local) dial(rank int) (*Worker, error) {
	network := l.cfg.Network
	if network == "" {
		network = "unix"
	}
	return Dial(WorkerConfig{
		Network:           network,
		Addr:              l.addr,
		Rank:              rank,
		Size:              l.coord.Size(),
		HeartbeatInterval: l.cfg.HeartbeatInterval,
		Flight:            l.cfg.Flight,
	})
}

// Coordinator exposes the hub (PIDs, byes) to tests.
func (l *Local) Coordinator() *Coordinator { return l.coord }

// Close tears the world down: workers first, then the hub.
func (l *Local) Close() {
	l.mu.Lock()
	ws := append([]*Worker(nil), l.workers...)
	l.mu.Unlock()
	for _, w := range ws {
		if w != nil {
			w.Close()
		}
	}
	l.coord.Close()
	l.cleanup()
}

// Listen opens a hub listener. Network "unix" (or "") listens on a
// socket in a fresh temp dir, which cleanup removes; "tcp" listens on
// addr, or on a free loopback port when addr is empty.
func Listen(network, addr string) (ln net.Listener, cleanup func(), err error) {
	cleanup = func() {}
	switch network {
	case "", "unix":
		dir, err := os.MkdirTemp("", "procmpi")
		if err != nil {
			return nil, nil, err
		}
		cleanup = func() { os.RemoveAll(dir) }
		ln, err = net.Listen("unix", filepath.Join(dir, "hub.sock"))
	case "tcp":
		if addr == "" {
			addr = "127.0.0.1:0"
		}
		ln, err = net.Listen("tcp", addr)
	default:
		err = fmt.Errorf("procmpi: unsupported network %q", network)
	}
	if err != nil {
		cleanup()
		return nil, nil, err
	}
	return ln, cleanup, nil
}

// Size implements mpi.Transport.
func (l *Local) Size() int { return l.coord.Size() }

// Endpoint implements mpi.Transport: the rank's current worker
// incarnation.
func (l *Local) Endpoint(rank int) (mpi.Comm, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if rank < 0 || rank >= len(l.workers) {
		return nil, fmt.Errorf("procmpi: rank %d of %d: %w", rank, len(l.workers), mpi.ErrInvalidRank)
	}
	return l.workers[rank], nil
}

// Alive implements mpi.Liveness (the coordinator's authoritative view).
func (l *Local) Alive(rank int) bool { return l.coord.Alive(rank) }

// AliveCount implements mpi.Transport.
func (l *Local) AliveCount() int { return l.coord.AliveCount() }

// ForEachDead implements mpi.Transport.
func (l *Local) ForEachDead(fn func(rank int)) { l.coord.ForEachDead(fn) }

// ForEachLive implements mpi.Transport.
func (l *Local) ForEachLive(fn func(rank int)) { l.coord.ForEachLive(fn) }

// Kill implements mpi.Transport.
func (l *Local) Kill(rank int) { l.coord.Kill(rank) }

// Abort implements mpi.Transport.
func (l *Local) Abort() { l.coord.Abort() }

// Aborted implements mpi.Transport.
func (l *Local) Aborted() bool { return l.coord.Aborted() }

// Interrupt implements mpi.Transport.
func (l *Local) Interrupt() { l.coord.Interrupt() }

// Interrupted implements mpi.Transport.
func (l *Local) Interrupted() bool { return l.coord.Interrupted() }

// Revive implements mpi.Transport: reconnect-on-revive. A replacement
// incarnation dials in (taking over the dead rank's slot), then the
// liveness bit flips and peers learn of the revival — the same order a
// respawned process follows.
func (l *Local) Revive(rank int) {
	if rank < 0 || rank >= l.coord.Size() || l.coord.Alive(rank) {
		return
	}
	w, err := l.dial(rank)
	if err != nil {
		return
	}
	l.mu.Lock()
	old := l.workers[rank]
	l.workers[rank] = w
	l.mu.Unlock()
	if old != nil {
		old.Close()
	}
	l.coord.Revive(rank)
}

// Resume implements mpi.Transport.
func (l *Local) Resume() { l.coord.Resume() }
