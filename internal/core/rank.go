package core

import (
	"errors"
	"fmt"
	"os"

	"repro/internal/apps"
	"repro/internal/checkpoint"
	"repro/internal/mpi"
	"repro/internal/procmpi"
	"repro/internal/redundancy"
)

// newRank wires physical endpoint pc for one execution of the
// application: the redundancy interposition layer (liveness from live),
// the checkpoint client over ccfg at the job's StepInterval (none under
// shrink: nothing ever rolls back, so nothing is stored or restored),
// and the context the application runs in, whose step reports reach
// noteStep as (virtual rank, step). The in-process runner
// (partialGate.runEpoch) and a worker process (RunRank) both build their
// ranks here.
func newRank(cfg Config, pc mpi.Comm, live mpi.Liveness, rankMap *redundancy.RankMap,
	ccfg checkpoint.Config, noteStep func(v, step int),
) (*redundancy.Comm, *apps.Context, error) {
	rc, err := redundancy.Wrap(pc, rankMap,
		mpi.WithDegree(cfg.Degree),
		mpi.WithHashCompare(cfg.Mode == redundancy.MsgPlusHash),
		mpi.WithLiveness(live),
		mpi.WithCorruptRanks(cfg.CorruptRanks))
	if err != nil {
		return nil, nil, err
	}
	v := rc.Rank()
	ctx := &apps.Context{
		Comm:           rc,
		IsWriter:       rc.IsLead,
		ComputeDelay:   cfg.ComputeDelay,
		NoteStep:       func(step int) { noteStep(v, step) },
		ShrinkRecovery: cfg.RecoveryPolicy == RecoverShrink,
	}
	if !ctx.ShrinkRecovery {
		ccfg.StepInterval = cfg.StepInterval
		if ctx.Ckpt, err = checkpoint.NewClient(rc, ccfg); err != nil {
			return nil, nil, err
		}
	}
	return rc, ctx, nil
}

// RunRank is the worker side of a multi-process job (Config.Spawn): it
// runs physical rank `rank` in this process. It dials the hub at
// network/addr, builds the rank from cfg exactly as the in-process
// runner does (shared checkpoints need a file-backed cfg.Storage), runs
// the application once, and tells the hub how the rank ended: Bye on
// completion; Leave when it stopped as the casualty of a failure it
// observed, whose death the parent has already accounted; an error
// report otherwise. On the lead replica of virtual rank 0, the one that
// holds the job's answer, result is called with the finished
// application before the hub hears the bye (and may tear this process
// down).
func RunRank(cfg Config, rank int, network, addr string, factory func() apps.App, result func(apps.App)) error {
	rankMap, err := redundancy.NewRankMap(cfg.Ranks, cfg.Degree)
	if err != nil {
		return err
	}
	w, err := procmpi.Dial(procmpi.WorkerConfig{
		Network: network,
		Addr:    addr,
		Rank:    rank,
		Size:    rankMap.PhysicalSize(),
		PID:     os.Getpid(),
	})
	if err != nil {
		return fmt.Errorf("worker %d: %w", rank, err)
	}
	defer w.Close()

	store := cfg.Storage
	if store == nil {
		store = checkpoint.NewMemStorage()
	}
	rc, ctx, err := newRank(cfg, w, w, rankMap, checkpoint.Config{Storage: store, Obs: cfg.Obs},
		func(_, step int) { _ = w.NoteStep(step) })
	if err != nil {
		return err
	}
	// Peer deaths are observed through the fault-notification API, not by
	// sniffing error identities: the handler fires once per failed
	// virtual rank, from inside the observing call. Under shrink the
	// application installs its own handler over this one and does its
	// own classification (it repairs instead of exiting).
	peerFailures := 0
	rc.SetErrhandler(func(mpi.FailureInfo) { peerFailures++ })

	app := factory()
	if runErr := app.Run(ctx); runErr != nil {
		if peerFailures > 0 || isProcTeardown(runErr) {
			_ = w.Leave()
			return nil
		}
		_ = w.ReportError(runErr.Error())
		return fmt.Errorf("worker %d: %w", rank, runErr)
	}
	if rc.Rank() == 0 && rc.IsLead() && result != nil {
		result(app)
	}
	return w.Bye()
}

// isProcTeardown reports errors that are local consequences of this
// worker's own fail-stop or the job's teardown. Peer failures are not
// classified here by error identity: the errhandler RunRank installs is
// the one observation path for those.
func isProcTeardown(err error) bool {
	return errors.Is(err, mpi.ErrKilled) ||
		errors.Is(err, mpi.ErrAborted) ||
		errors.Is(err, mpi.ErrInterrupted) ||
		errors.Is(err, checkpoint.ErrIncomplete) ||
		errors.Is(err, checkpoint.ErrNotQuiescent)
}
