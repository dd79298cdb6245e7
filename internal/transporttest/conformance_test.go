package transporttest

import (
	"testing"

	"repro/internal/mpi"
	"repro/internal/procmpi"
	"repro/internal/simmpi"
)

func simFactory(t testing.TB, n int) mpi.Transport {
	w, err := simmpi.NewWorld(n)
	if err != nil {
		t.Fatalf("simmpi.NewWorld(%d): %v", n, err)
	}
	return w
}

// procFactory hosts a proc world on the given network ("unix" or "tcp").
func procFactory(network string) Factory {
	return func(t testing.TB, n int) mpi.Transport {
		l, err := procmpi.NewLocal(n, procmpi.LocalConfig{Network: network})
		if err != nil {
			t.Fatalf("procmpi.NewLocal(%d, %s): %v", n, network, err)
		}
		t.Cleanup(l.Close)
		return l
	}
}

func TestSimTransportConformance(t *testing.T) { RunSuite(t, simFactory) }

func TestProcTransportConformance(t *testing.T) { RunSuite(t, procFactory("unix")) }

func TestProcTransportConformanceTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	RunSuite(t, procFactory("tcp"))
}
