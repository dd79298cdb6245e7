package apps

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/mpi"
)

// CG is the conjugate-gradient benchmark: it solves A·x = b for a sparse
// SPD matrix with rows partitioned contiguously across ranks — the
// communication-heavy pattern the paper picked NPB CG for. Each
// iteration runs two allreduces for the dot products and one
// point-to-point halo exchange for the matrix-vector product: as in NPB
// CG, a rank sends each peer only the entries of its block of the search
// direction that the peer's rows reference, and receives only the
// entries its own rows reference (see haloPlan). The plan comes from the
// matrix, built once per Run from one allgather of every rank's column
// window: a banded matrix gives each rank a couple of neighbours, and a
// matrix whose rows reach every column degenerates to every rank sending
// its whole block to every other. Like the paper's modified benchmark,
// the solve is repeated Repeats times to extend the run ("repeating the
// computation performed between MPI_Init() and MPI_Finalize() n number
// of times").
//
// The result is bit-deterministic for a fixed virtual size: reductions
// run over a fixed radix-8 tree with the binomial combine order, so every
// replica and every redundancy degree produces the identical iterate.
type CG struct {
	// Matrix is the system matrix; every rank holds the full structure
	// (as NPB CG does) but computes only its row block.
	Matrix *CSRMatrix
	// Iterations is the CG iteration count per solve.
	Iterations int
	// Repeats re-runs the solve to extend execution time. Zero means 1.
	Repeats int

	// Result, populated on rank 0 after Run: the final residual norm and
	// a solution checksum (sum of entries), used by tests to verify that
	// runs at different degrees agree bit-for-bit.
	ResidualNorm float64
	Checksum     float64
}

var _ App = (*CG)(nil)

// Name implements App.
func (cg *CG) Name() string { return "cg" }

// cgState is the checkpointable inter-iteration state of one rank.
type cgState struct {
	repeat int // current solve
	iter   int // next iteration within the solve
	x      []float64
	r      []float64
	p      []float64
	rho    float64
}

func (s *cgState) encode() []byte {
	// Six words of counters, lengths and rho, then the three vectors.
	w := stateWriter{buf: make([]byte, 0, 8*(6+len(s.x)+len(s.r)+len(s.p)))}
	w.int(s.repeat)
	w.int(s.iter)
	w.float64s(s.x)
	w.float64s(s.r)
	w.float64s(s.p)
	w.uint64(math.Float64bits(s.rho))
	return w.bytes()
}

func decodeCGState(buf []byte) (*cgState, error) {
	r := stateReader{buf: buf}
	var s cgState
	var err error
	if s.repeat, err = r.int(); err != nil {
		return nil, err
	}
	if s.iter, err = r.int(); err != nil {
		return nil, err
	}
	if s.x, err = r.float64s(); err != nil {
		return nil, err
	}
	if s.r, err = r.float64s(); err != nil {
		return nil, err
	}
	if s.p, err = r.float64s(); err != nil {
		return nil, err
	}
	bits, err := r.uint64()
	if err != nil {
		return nil, err
	}
	s.rho = math.Float64frombits(bits)
	if err := r.done(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Run implements App.
func (cg *CG) Run(ctx *Context) error {
	if cg.Matrix == nil || cg.Iterations <= 0 {
		return fmt.Errorf("cg: need Matrix and positive Iterations")
	}
	c := ctx.Comm
	n := cg.Matrix.N
	lo, hi := RowRange(n, c.Rank(), c.Size())
	local := hi - lo

	// b = A·ones, so the exact solution is all-ones — verifiable.
	ones := make([]float64, n)
	for i := range ones {
		ones[i] = 1
	}
	b := make([]float64, local)
	if err := cg.Matrix.MulRows(lo, hi, ones, b); err != nil {
		return err
	}

	state := &cgState{
		x: make([]float64, local),
		r: append([]float64(nil), b...), // r0 = b - A·0 = b
		p: append([]float64(nil), b...),
	}
	var err error
	state.rho, err = dot(c, state.r, state.r)
	if err != nil {
		return err
	}

	// Resume from checkpoint if one exists.
	if snap, ok, rerr := ctx.restore(); rerr != nil {
		return rerr
	} else if ok {
		if state, err = decodeCGState(snap); err != nil {
			return fmt.Errorf("cg: restoring: %w", err)
		}
		if len(state.x) != local {
			return fmt.Errorf("cg: checkpoint for %d rows, rank now owns %d", len(state.x), local)
		}
	}

	repeats := cg.Repeats
	if repeats <= 0 {
		repeats = 1
	}
	halo, err := newHaloPlan(c, cg.Matrix, lo, hi)
	if err != nil {
		return err
	}
	ap := make([]float64, local)
	snapshot := func() []byte { return snapshotCG(state) }
	globalStep := state.repeat*cg.Iterations + state.iter
	for ; state.repeat < repeats; state.repeat++ {
		for ; state.iter < cg.Iterations; state.iter++ {
			// Assemble the search direction's column window for the matvec.
			full, herr := halo.exchange(c, state.p)
			if herr != nil {
				return herr
			}
			if merr := cg.Matrix.MulRows(lo, hi, full, ap); merr != nil {
				return merr
			}
			ctx.compute()

			pap, derr := dot2(c, state.p, ap)
			if derr != nil {
				return derr
			}
			if pap == 0 {
				break // converged to machine precision
			}
			alpha := state.rho / pap
			for i := range state.x {
				state.x[i] += alpha * state.p[i]
				state.r[i] -= alpha * ap[i]
			}
			rhoNew, derr2 := dot(c, state.r, state.r)
			if derr2 != nil {
				return derr2
			}
			beta := rhoNew / state.rho
			state.rho = rhoNew
			for i := range state.p {
				state.p[i] = state.r[i] + beta*state.p[i]
			}

			globalStep++
			if _, cerr := ctx.maybeCheckpoint(globalStep, snapshot); cerr != nil {
				return cerr
			}
		}
		state.iter = 0
		if state.repeat+1 < repeats {
			// Reset the solve but keep the repeat counter moving, exactly
			// like the paper's outer repetition loop.
			copy(state.x, make([]float64, local))
			copy(state.r, b)
			copy(state.p, b)
			if state.rho, err = dot(c, state.r, state.r); err != nil {
				return err
			}
		}
	}

	// Final reporting (every rank computes them; they are identical).
	norm, err := dot(c, state.r, state.r)
	if err != nil {
		return err
	}
	cg.ResidualNorm = math.Sqrt(norm)
	sum, err := mpi.AllreduceFloat64s(c, []float64{kahanSum(state.x)}, mpi.OpSum)
	if err != nil {
		return err
	}
	cg.Checksum = sum[0]
	return nil
}

// snapshotCG freezes the state after the just-finished iteration; iter
// points at the next iteration to run.
func snapshotCG(s *cgState) []byte {
	snap := *s
	snap.iter = s.iter + 1
	return snap.encode()
}

// dot computes the global dot product of two distributed vectors.
func dot(c mpi.Comm, a, b []float64) (float64, error) {
	return dot2(c, a, b)
}

func dot2(c mpi.Comm, a, b []float64) (float64, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("cg: dot length mismatch %d vs %d", len(a), len(b))
	}
	var local float64
	for i := range a {
		local += a[i] * b[i]
	}
	out, err := mpi.AllreduceFloat64s(c, []float64{local}, mpi.OpSum)
	if err != nil {
		return 0, err
	}
	return out[0], nil
}

func kahanSum(xs []float64) float64 {
	var sum, comp float64
	for _, x := range xs {
		y := x - comp
		t := sum + y
		comp = (t - sum) - y
		sum = t
	}
	return sum
}

func encodeVec(xs []float64) []byte {
	return appendEncodedVec(nil, xs)
}

// appendEncodedVec appends xs's length-prefixed encoding (the
// stateWriter.float64s layout) to dst, so a per-step send can reuse one
// buffer.
func appendEncodedVec(dst []byte, xs []float64) []byte {
	w := stateWriter{buf: dst}
	w.float64s(xs)
	return w.bytes()
}

func decodeVec(buf []byte) ([]float64, error) {
	return appendDecodedVec(nil, buf)
}

// vecPayload checks an encodeVec payload's length header against its
// size and returns the entry count and the encoded entries.
func vecPayload(buf []byte) (int, []byte, error) {
	r := stateReader{buf: buf}
	n, err := r.int()
	if err != nil {
		return 0, nil, err
	}
	if n < 0 || len(r.buf) != 8*n {
		return 0, nil, fmt.Errorf("apps: vector declares %d floats in %d bytes", n, len(r.buf))
	}
	return n, r.buf, nil
}

// appendDecodedVec decodes an encodeVec payload straight onto dst,
// without the intermediate slice decodeVec returns. dst grows once to
// its final length and the floats are stored in place.
func appendDecodedVec(dst []float64, buf []byte) ([]float64, error) {
	n, src, err := vecPayload(buf)
	if err != nil {
		return dst, err
	}
	dst = slices.Grow(dst, n)
	decodeFloats(dst[len(dst):len(dst)+n], src)
	return dst[:len(dst)+n], nil
}
