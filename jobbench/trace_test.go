package main

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/redundancy"
)

// TestTracedJobCountersMatchPlain runs the failure-free cg-dual job with
// no wrappers and again fully traced, with and without checkpoints. The
// counters below only match if the wrappers forward the zero-copy
// fan-out (mpi.SharedSender) and the bookmark protocol's inputs; a
// wrapper that hid a capability would make the trace measure a
// different program.
func TestTracedJobCountersMatchPlain(t *testing.T) {
	ws, err := newWorkloads()
	if err != nil {
		t.Fatal(err)
	}
	w := ws["cg-dual"]
	rm, err := redundancy.NewRankMap(w.ranks, w.degree)
	if err != nil {
		t.Fatal(err)
	}
	names := []string{
		"simmpi_copies_elided_total",
		"redundancy_physical_sends_total",
		"checkpoint_bytes_written_total",
	}
	for _, interval := range []int{0, ckptEvery} {
		var got [2]map[string]uint64
		for i, tr := range []*jobTrace{nil, newJobTrace(true, rm)} {
			cfg, factory, cleanup, err := w.jobConfig(tr, nil, time.Minute)
			if err != nil {
				t.Fatal(err)
			}
			cfg.StepInterval = interval
			res, err := core.Run(cfg, factory)
			cleanup()
			if err != nil {
				t.Fatalf("interval %d, traced %v: %v", interval, tr != nil, err)
			}
			got[i] = map[string]uint64{}
			for _, n := range names {
				got[i][n] = res.Metrics.Counter(n)
			}
		}
		plain, traced := got[0], got[1]
		for _, n := range names {
			if plain[n] != traced[n] {
				t.Errorf("interval %d: %s plain %d, traced %d", interval, n, plain[n], traced[n])
			}
		}
		if plain["simmpi_copies_elided_total"] == 0 {
			t.Errorf("interval %d: no copies elided; the dual job should fan out zero-copy", interval)
		}
		if interval > 0 && plain["checkpoint_bytes_written_total"] == 0 {
			t.Errorf("interval %d: nothing checkpointed", interval)
		}
	}
}

// TestWrappersForwardCapabilities checks each optional capability the
// program probes for: SharedSender and CountTracker on endpoints,
// CountTracker and Physical on the application's communicator, and
// Shrink's *mpi.Shrunk rebuilt over the traced communicator.
func TestWrappersForwardCapabilities(t *testing.T) {
	rm, err := redundancy.NewRankMap(2, 2) // virtual 0 = phys {0,1}, virtual 1 = phys {2,3}
	if err != nil {
		t.Fatal(err)
	}
	tr := newJobTrace(true, rm)
	world, err := tr.newTransportFactory()(rm.PhysicalSize())
	if err != nil {
		t.Fatal(err)
	}
	ep, err := world.Endpoint(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ep.(mpi.SharedSender); !ok {
		t.Fatal("endpoint lost mpi.SharedSender")
	}
	inner, err := world.(*transport).inner.Endpoint(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := ep.Send(2, 7, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if got, want := ep.(mpi.CountTracker).SentCounts(), inner.(mpi.CountTracker).SentCounts(); got[2] != 1 || want[2] != 1 {
		t.Fatalf("SentCounts through wrapper %v, endpoint %v", got, want)
	}
	if tr.sends.Load() != 1 {
		t.Fatalf("traced sends = %d, want 1", tr.sends.Load())
	}

	// Kill sphere 1; both replicas of virtual rank 0 shrink through
	// their traced application communicators.
	world.Kill(2)
	world.Kill(3)
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for p := 0; p < 2; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			errs[p] = shrinkThroughApp(tr, world, rm, p)
		}(p)
	}
	wg.Wait()
	for p, err := range errs {
		if err != nil {
			t.Errorf("replica %d: %v", p, err)
		}
	}
}

func shrinkThroughApp(tr *jobTrace, world mpi.Transport, rm *redundancy.RankMap, p int) error {
	pc, err := world.Endpoint(p)
	if err != nil {
		return err
	}
	rc, err := redundancy.Wrap(pc, rm, mpi.WithDegree(2), mpi.WithLiveness(world))
	if err != nil {
		return err
	}
	ac, err := newAppComm(rc, &appRun{t: tr, rc: &tr.ranks[p]})
	if err != nil {
		return err
	}
	if ac.Physical() != p {
		return fmt.Errorf("Physical() = %d, want %d", ac.Physical(), p)
	}
	if len(ac.SentCounts()) != rm.VirtualSize() {
		return fmt.Errorf("SentCounts has %d entries, want %d", len(ac.SentCounts()), rm.VirtualSize())
	}
	ac.SetErrhandler(func(mpi.FailureInfo) {})
	ac.FailureAck()
	sc, err := ac.Shrink()
	if err != nil {
		return err
	}
	sh, ok := sc.(*mpi.Shrunk)
	if !ok {
		return fmt.Errorf("Shrink returned %T, want *mpi.Shrunk", sc)
	}
	if sh.Base() != mpi.Comm(ac) || sh.Size() != 1 {
		return fmt.Errorf("shrunk over %T with %d ranks, want the traced comm with 1", sh.Base(), sh.Size())
	}
	return nil
}
