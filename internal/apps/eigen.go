package apps

import (
	"fmt"
	"math"

	"repro/internal/mpi"
)

// Eigen estimates the smallest eigenvalue of a sparse SPD matrix via
// inverse power iteration with inner CG solves — exactly what the NPB CG
// benchmark the paper runs actually computes ("It is used to compute an
// approximation to the smallest eigenvalue of a large sparse symmetric
// positive definite matrix"). Each outer iteration solves A·z = x with
// CG, normalises z, and updates the Rayleigh-quotient estimate; outer
// iterations are the checkpoint boundary.
type Eigen struct {
	// Matrix is the SPD system matrix.
	Matrix *CSRMatrix
	// OuterIterations is the inverse-power-iteration count.
	OuterIterations int
	// InnerIterations is the CG iteration budget per solve.
	InnerIterations int

	// Eigenvalue is the smallest-eigenvalue estimate after Run
	// (identical on every rank).
	Eigenvalue float64
}

var _ App = (*Eigen)(nil)

// Name implements App.
func (e *Eigen) Name() string { return "eigen" }

// eigenState is the checkpointable outer-iteration state.
type eigenState struct {
	outer    int
	estimate float64
	x        []float64 // current normalised iterate (local rows)
}

func (s *eigenState) encode() []byte {
	var w stateWriter
	w.int(s.outer)
	w.uint64(math.Float64bits(s.estimate))
	w.float64s(s.x)
	return w.bytes()
}

func decodeEigenState(buf []byte) (*eigenState, error) {
	r := stateReader{buf: buf}
	var s eigenState
	var err error
	if s.outer, err = r.int(); err != nil {
		return nil, err
	}
	bits, err := r.uint64()
	if err != nil {
		return nil, err
	}
	s.estimate = math.Float64frombits(bits)
	if s.x, err = r.float64s(); err != nil {
		return nil, err
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Run implements App.
func (e *Eigen) Run(ctx *Context) error {
	if e.Matrix == nil || e.OuterIterations <= 0 || e.InnerIterations <= 0 {
		return fmt.Errorf("eigen: need Matrix and positive iteration counts")
	}
	c := ctx.Comm
	n := e.Matrix.N
	lo, hi := RowRange(n, c.Rank(), c.Size())
	local := hi - lo

	state := &eigenState{x: make([]float64, local)}
	// Deterministic non-degenerate start vector: x_i = 1 + i/n.
	for i := range state.x {
		state.x[i] = 1 + float64(lo+i)/float64(n)
	}
	if err := normalize(c, state.x); err != nil {
		return err
	}

	if snap, ok, err := ctx.restore(); err != nil {
		return err
	} else if ok {
		restored, derr := decodeEigenState(snap)
		if derr != nil {
			return fmt.Errorf("eigen: restoring: %w", derr)
		}
		if len(restored.x) != local {
			return fmt.Errorf("eigen: checkpoint for %d rows, rank owns %d", len(restored.x), local)
		}
		state = restored
	}

	halo, err := newHaloPlan(c, e.Matrix, lo, hi)
	if err != nil {
		return err
	}
	snapshot := func() []byte { return snapshotEigen(state) }
	for ; state.outer < e.OuterIterations; state.outer++ {
		// Solve A·z = x with CG (inner iterations, warm zero start).
		z, err := e.cgSolve(ctx, halo, state.x)
		if err != nil {
			return err
		}
		// Rayleigh-quotient update for the smallest eigenvalue:
		// λ_min ≈ (x·x)/(x·z) with z = A⁻¹x and ‖x‖ = 1.
		xz, err := dot(c, state.x, z)
		if err != nil {
			return err
		}
		if xz == 0 {
			return fmt.Errorf("eigen: degenerate iterate at outer %d", state.outer)
		}
		state.estimate = 1 / xz
		copy(state.x, z)
		if err := normalize(c, state.x); err != nil {
			return err
		}
		ctx.compute()
		if _, err := ctx.maybeCheckpoint(state.outer+1, snapshot); err != nil {
			return err
		}
	}
	e.Eigenvalue = state.estimate
	return nil
}

func snapshotEigen(s *eigenState) []byte {
	snap := eigenState{outer: s.outer + 1, estimate: s.estimate, x: s.x}
	return snap.encode()
}

// cgSolve runs InnerIterations of CG for A·z = b (local row block b),
// exchanging the search direction through the Run's halo plan.
func (e *Eigen) cgSolve(ctx *Context, halo *haloPlan, b []float64) ([]float64, error) {
	c := ctx.Comm
	lo, hi := halo.lo, halo.hi
	local := hi - lo
	z := make([]float64, local)
	r := append([]float64(nil), b...)
	p := append([]float64(nil), b...)
	rho, err := dot(c, r, r)
	if err != nil {
		return nil, err
	}
	ap := make([]float64, local)
	for iter := 0; iter < e.InnerIterations && rho > 1e-28; iter++ {
		full, err := halo.exchange(c, p)
		if err != nil {
			return nil, err
		}
		if err := e.Matrix.MulRows(lo, hi, full, ap); err != nil {
			return nil, err
		}
		pap, err := dot(c, p, ap)
		if err != nil {
			return nil, err
		}
		if pap == 0 {
			break
		}
		alpha := rho / pap
		for i := range z {
			z[i] += alpha * p[i]
			r[i] -= alpha * ap[i]
		}
		rhoNew, err := dot(c, r, r)
		if err != nil {
			return nil, err
		}
		beta := rhoNew / rho
		rho = rhoNew
		for i := range p {
			p[i] = r[i] + beta*p[i]
		}
	}
	return z, nil
}

// normalize scales the distributed vector to unit 2-norm in place.
func normalize(c mpi.Comm, x []float64) error {
	nrm2, err := dot(c, x, x)
	if err != nil {
		return err
	}
	if nrm2 <= 0 {
		return fmt.Errorf("eigen: zero iterate")
	}
	inv := 1 / math.Sqrt(nrm2)
	for i := range x {
		x[i] *= inv
	}
	return nil
}
