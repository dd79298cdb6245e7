// Package apps contains the benchmark applications the reproduction runs
// under combined redundancy + checkpoint/restart: a distributed
// conjugate-gradient solver standing in for the NPB CG kernel the paper
// modified ("irregular long distance communication", allreduce-heavy), a
// 2-D Jacobi heat stencil (halo exchange), and a master/worker task farm
// (exercises MPI_ANY_SOURCE and hence the wildcard-receive protocol).
//
// Applications are written against mpi.Comm only, so the same code runs
// unreplicated or at any partial-redundancy degree — the paper's "no
// change is needed in the application source code" requirement. They must
// be deterministic (no wall-clock or randomness in results): replicas of
// a rank must produce bit-identical messages.
package apps

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/mpi"
)

// Context is what the runtime hands each application process.
type Context struct {
	// Comm is the (virtual) communicator.
	Comm mpi.Comm
	// Ckpt coordinates snapshots; nil disables checkpointing.
	Ckpt *checkpoint.Client
	// IsWriter reports whether this process should persist its rank's
	// checkpoint state right now (the lowest alive replica of the rank).
	// Always true for unreplicated runs. May be nil, meaning true.
	IsWriter func() bool
	// ComputeDelay emulates per-iteration computation time. The paper's
	// cluster spends (1-α) of its time computing; in-process message
	// passing is so fast that α would otherwise be ≈1.
	ComputeDelay time.Duration
	// NoteStep, when non-nil, is invoked by the writer replica once per
	// application step with the global step number — the runner's hook
	// for recomputed-work accounting and step-triggered failure
	// injection.
	NoteStep func(step int)
	// ShrinkRecovery tells the application that the runtime never
	// restarts: process failures must be survived in place through the
	// communicator's fault-notification API (SetErrhandler, FailureAck,
	// Agree, Shrink). Checkpointing is disabled under this policy (Ckpt
	// is nil). Applications that do not implement shrink-and-continue
	// simply fail when a peer dies, exactly as they would without the
	// flag.
	ShrinkRecovery bool
}

func (ctx *Context) writer() bool {
	if ctx.IsWriter == nil {
		return true
	}
	return ctx.IsWriter()
}

// maybeCheckpoint snapshots at the client's step schedule, if enabled.
// It also reports step progress through NoteStep — once per virtual rank
// per step, because only the writer replica reports.
//
// snapshot encodes the rank's state; it runs only on a step the schedule
// makes a checkpoint (never when Ckpt is nil), so the applications pay
// for the encode once per interval rather than once per step. The writer
// query, by contrast, runs on every step of every replica whether or not
// the step checkpoints: runtimes hook IsWriter to mark the checkpoint
// line of each step.
func (ctx *Context) maybeCheckpoint(step int, snapshot func() []byte) (bool, error) {
	if ctx.NoteStep != nil && ctx.writer() {
		ctx.NoteStep(step)
	}
	if ctx.Ckpt == nil {
		return false, nil
	}
	return ctx.Ckpt.MaybeCheckpoint(step, snapshot, ctx.writer())
}

// restore loads this rank's state if a checkpoint exists.
func (ctx *Context) restore() ([]byte, bool, error) {
	if ctx.Ckpt == nil {
		return nil, false, nil
	}
	return ctx.Ckpt.Restore()
}

// compute burns the configured emulated computation time.
func (ctx *Context) compute() {
	if ctx.ComputeDelay > 0 {
		time.Sleep(ctx.ComputeDelay)
	}
}

// shrinkComm runs Comm.Shrink and narrows the result to *mpi.Shrunk,
// the concrete type every backend's Shrink builds (the apps need its
// rank-translation accessors to carry bookkeeping across a repair).
func shrinkComm(c mpi.Comm) (*mpi.Shrunk, error) {
	sc, err := c.Shrink()
	if err != nil {
		return nil, err
	}
	sh, ok := sc.(*mpi.Shrunk)
	if !ok {
		return nil, fmt.Errorf("apps: Shrink returned %T, want *mpi.Shrunk", sc)
	}
	return sh, nil
}

// shrinkRemap translates a rank of the pre-shrink communicator old into
// the post-shrink communicator sh; ok is false when the rank did not
// survive. Shrunk communicators stack one level deep over a common
// base, so the translation goes through base-rank space.
func shrinkRemap(old mpi.Comm, sh *mpi.Shrunk, rank int) (int, bool) {
	base := rank
	if os, isShrunk := old.(*mpi.Shrunk); isShrunk {
		br, err := os.BaseRank(rank)
		if err != nil {
			return 0, false
		}
		base = br
	}
	return sh.NewRank(base)
}

// App is a deterministic distributed application.
type App interface {
	// Name identifies the application in logs and results.
	Name() string
	// Run executes this process's part of the computation. It is invoked
	// once per process per job attempt; after a restart it must resume
	// from the last checkpoint via the Context.
	Run(ctx *Context) error
}

// --- small binary state codec shared by the applications ---

// stateWriter builds length-delimited binary snapshots.
type stateWriter struct {
	buf []byte
}

func (w *stateWriter) uint64(v uint64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, v)
}

func (w *stateWriter) int(v int) { w.uint64(uint64(int64(v))) }

// float64s writes the length, then the values. The buffer grows once
// and each value is stored in place.
func (w *stateWriter) float64s(xs []float64) {
	w.int(len(xs))
	at := len(w.buf)
	w.buf = slices.Grow(w.buf, 8*len(xs))[:at+8*len(xs)]
	out := w.buf[at:]
	for i, x := range xs {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(x))
	}
}

func (w *stateWriter) bytes() []byte { return w.buf }

// stateReader parses snapshots written by stateWriter.
type stateReader struct {
	buf []byte
}

func (r *stateReader) uint64() (uint64, error) {
	if len(r.buf) < 8 {
		return 0, fmt.Errorf("apps: truncated state (%d bytes left)", len(r.buf))
	}
	v := binary.LittleEndian.Uint64(r.buf)
	r.buf = r.buf[8:]
	return v, nil
}

func (r *stateReader) int() (int, error) {
	v, err := r.uint64()
	return int(int64(v)), err
}

func (r *stateReader) float64s() ([]float64, error) {
	n, err := r.int()
	if err != nil {
		return nil, err
	}
	if n < 0 || len(r.buf) < 8*n {
		return nil, fmt.Errorf("apps: state declares %d floats, %d bytes left", n, len(r.buf))
	}
	xs := make([]float64, n)
	decodeFloats(xs, r.buf)
	r.buf = r.buf[8*n:]
	return xs, nil
}

// decodeFloats fills dst from the little-endian words at the head of src,
// which must hold at least len(dst) of them.
func decodeFloats(dst []float64, src []byte) {
	src = src[:8*len(dst)]
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
	}
}

func (r *stateReader) done() error {
	if len(r.buf) != 0 {
		return fmt.Errorf("apps: %d trailing state bytes", len(r.buf))
	}
	return nil
}
