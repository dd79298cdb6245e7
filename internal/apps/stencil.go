package apps

import (
	"fmt"
	"math"

	"repro/internal/mpi"
)

// Stencil is a 2-D Jacobi heat-diffusion kernel: the grid is partitioned
// into horizontal slabs, and each iteration exchanges halo rows with the
// two neighbouring ranks then relaxes every interior point. It is the
// nearest-neighbour communication pattern complementing CG's global
// reductions.
type Stencil struct {
	// Width and Height are the global grid dimensions (including the
	// fixed boundary).
	Width, Height int
	// Iterations is the relaxation count.
	Iterations int
	// HotBoundary is the temperature applied along the top edge; the
	// other edges are held at zero.
	HotBoundary float64

	// Heat is the global heat sum after Run (identical on all ranks).
	Heat float64
}

var _ App = (*Stencil)(nil)

// Name implements App.
func (st *Stencil) Name() string { return "stencil" }

const (
	tagHaloUp   = 101
	tagHaloDown = 102
	tagRedist   = 103 // post-shrink row redistribution
)

// stencilState is the checkpointable state: the owned slab (with halo
// rows) and the iteration counter.
type stencilState struct {
	iter int
	grid []float64 // (rows+2) × width, including halo rows
}

func (s *stencilState) encode() []byte {
	var w stateWriter
	w.int(s.iter)
	w.float64s(s.grid)
	return w.bytes()
}

func decodeStencilState(buf []byte) (*stencilState, error) {
	r := stateReader{buf: buf}
	var s stencilState
	var err error
	if s.iter, err = r.int(); err != nil {
		return nil, err
	}
	if s.grid, err = r.float64s(); err != nil {
		return nil, err
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Run implements App.
func (st *Stencil) Run(ctx *Context) error {
	if st.Width < 3 || st.Height < 3 || st.Iterations <= 0 {
		return fmt.Errorf("stencil: need ≥3×3 grid and positive iterations")
	}
	if ctx.ShrinkRecovery {
		return st.runShrink(ctx)
	}
	c := ctx.Comm
	lo, hi := RowRange(st.Height, c.Rank(), c.Size())
	rows := hi - lo
	if rows == 0 {
		return fmt.Errorf("stencil: rank %d owns no rows (height %d, ranks %d)",
			c.Rank(), st.Height, c.Size())
	}
	w := st.Width

	state := &stencilState{grid: make([]float64, (rows+2)*w)}
	// Apply the hot top boundary if this rank owns global row 0.
	if lo == 0 {
		for x := 0; x < w; x++ {
			state.grid[1*w+x] = st.HotBoundary
		}
	}

	if snap, ok, err := ctx.restore(); err != nil {
		return err
	} else if ok {
		restored, derr := decodeStencilState(snap)
		if derr != nil {
			return fmt.Errorf("stencil: restoring: %w", derr)
		}
		if len(restored.grid) != len(state.grid) {
			return fmt.Errorf("stencil: checkpoint grid %d cells, want %d",
				len(restored.grid), len(state.grid))
		}
		state = restored
	}

	up := c.Rank() - 1
	down := c.Rank() + 1
	next := make([]float64, len(state.grid))
	var sendBuf []byte
	snapshot := func() []byte { return snapshotStencil(state) }
	for ; state.iter < st.Iterations; state.iter++ {
		// Halo exchange: send my first owned row up, last owned row down.
		// Sends copy at the transport boundary, so one encode buffer
		// serves both; received halos decode straight into the ghost rows.
		if up >= 0 {
			sendBuf = appendEncodedVec(sendBuf[:0], state.grid[w:2*w])
			if err := c.Send(up, tagHaloUp, sendBuf); err != nil {
				return err
			}
		}
		if down < c.Size() {
			sendBuf = appendEncodedVec(sendBuf[:0], state.grid[rows*w:(rows+1)*w])
			if err := c.Send(down, tagHaloDown, sendBuf); err != nil {
				return err
			}
		}
		if down < c.Size() {
			if err := recvHalo(c, down, tagHaloUp, state.grid[(rows+1)*w:]); err != nil {
				return err
			}
		}
		if up >= 0 {
			if err := recvHalo(c, up, tagHaloDown, state.grid[:w]); err != nil {
				return err
			}
		}

		// Relax interior points; global boundary rows/columns stay fixed.
		for r := 1; r <= rows; r++ {
			globalRow := lo + r - 1
			if globalRow == 0 || globalRow == st.Height-1 {
				copy(next[r*w:(r+1)*w], state.grid[r*w:(r+1)*w])
				continue
			}
			next[r*w] = state.grid[r*w]
			next[r*w+w-1] = state.grid[r*w+w-1]
			for x := 1; x < w-1; x++ {
				idx := r*w + x
				next[idx] = 0.25 * (state.grid[idx-w] + state.grid[idx+w] +
					state.grid[idx-1] + state.grid[idx+1])
			}
		}
		copy(state.grid[w:(rows+1)*w], next[w:(rows+1)*w])
		ctx.compute()

		if _, err := ctx.maybeCheckpoint(state.iter+1, snapshot); err != nil {
			return err
		}
	}

	// Global heat: sum of owned cells, allreduced.
	var local float64
	for r := 1; r <= rows; r++ {
		for x := 0; x < w; x++ {
			local += state.grid[r*w+x]
		}
	}
	out, err := mpi.AllreduceFloat64s(c, []float64{local}, mpi.OpSum)
	if err != nil {
		return err
	}
	st.Heat = out[0]
	if math.IsNaN(st.Heat) {
		return fmt.Errorf("stencil: heat diverged to NaN")
	}
	return nil
}

// recvHalo receives one halo row from src and decodes it into row (which
// must match the row length exactly), releasing the transport buffer.
func recvHalo(c mpi.Comm, src, tag int, row []float64) error {
	msg, err := c.Recv(src, tag)
	if err != nil {
		return err
	}
	defer msg.Release()
	halo, err := appendDecodedVec(row[:0:len(row)], msg.Data)
	if err != nil {
		return err
	}
	if len(halo) != len(row) {
		return fmt.Errorf("stencil: halo of %d cells, want %d", len(halo), len(row))
	}
	return nil
}

func snapshotStencil(s *stencilState) []byte {
	snap := stencilState{iter: s.iter + 1, grid: s.grid}
	return snap.encode()
}

// runShrink is the fault-tolerant stencil: every iteration is a round
// of eager halo sends, failure-tolerant receives, and a fault-tolerant
// Agree that keeps the survivors in lockstep. When any rank observes a
// failure (through the errhandler, the single fault-observation path)
// the agreement fails on every survivor, all of them meet at the Shrink
// collective, and the global grid is re-decomposed over the shrunk
// communicator: surviving rows are redistributed to their new owners
// and the dead rank's rows restart cold (boundary values reapplied).
// The failed iteration is then redone on the new decomposition, so the
// relaxation never mixes pre- and post-shrink neighbourhoods.
func (st *Stencil) runShrink(ctx *Context) error {
	c := ctx.Comm
	w := st.Width
	failed, handled := 0, 0
	install := func(comm mpi.Comm) {
		comm.SetErrhandler(func(mpi.FailureInfo) { failed++ })
	}
	install(c)

	size, rank := c.Size(), c.Rank()
	lo, hi := RowRange(st.Height, rank, size)
	rows := hi - lo
	if rows == 0 {
		return fmt.Errorf("stencil: rank %d owns no rows (height %d, ranks %d)",
			rank, st.Height, size)
	}
	grid := make([]float64, (rows+2)*w)
	if lo == 0 {
		for x := 0; x < w; x++ {
			grid[1*w+x] = st.HotBoundary
		}
	}
	next := make([]float64, len(grid))

	for iter := 0; iter < st.Iterations; {
		ok := true
		// A failure-class error marks the round failed but must not abort:
		// the handler has been notified, and the Agree below routes every
		// survivor into the same repair. Errors with no notification behind
		// them (own death, abort, genuine bugs) stay fatal.
		tolerate := func(err error) bool {
			if failed > handled {
				ok = false
				return true
			}
			return false
		}
		// Eager sends first: a failed receive below must never starve a
		// neighbour of this rank's halo (sends to the dead are dropped).
		if rank > 0 {
			if err := c.Send(rank-1, tagHaloUp, encodeVec(grid[w:2*w])); err != nil {
				return err
			}
		}
		if rank < size-1 {
			if err := c.Send(rank+1, tagHaloDown, encodeVec(grid[rows*w:(rows+1)*w])); err != nil {
				return err
			}
		}
		// Both receives are always attempted, each tolerated individually,
		// so every survivor-to-survivor halo of a failed round is consumed
		// — otherwise a stale halo would desynchronise the redone round.
		if rank < size-1 {
			msg, err := c.Recv(rank+1, tagHaloUp)
			if err == nil {
				halo, derr := decodeVec(msg.Data)
				if derr != nil {
					return derr
				}
				copy(grid[(rows+1)*w:], halo)
			} else if !tolerate(err) {
				return err
			}
		}
		if rank > 0 {
			msg, err := c.Recv(rank-1, tagHaloDown)
			if err == nil {
				halo, derr := decodeVec(msg.Data)
				if derr != nil {
					return derr
				}
				copy(grid[:w], halo)
			} else if !tolerate(err) {
				return err
			}
		}

		agreed, err := c.Agree(ok)
		if err != nil {
			return err
		}
		if !agreed {
			// Watermark to the count observed BEFORE the repair: a failure
			// the errhandler delivers during the repair's own collectives
			// arrived too late for the shrink's survivor agreement and is
			// still pending — it must fail the next round and trigger
			// another repair, not be absorbed by this one.
			observed := failed
			nc, nsize, nrank, nlo, nhi, ngrid, rerr := st.shrinkRepair(c, size, rank, lo, hi, grid)
			if rerr != nil {
				return rerr
			}
			c, size, rank, lo, hi, grid = nc, nsize, nrank, nlo, nhi, ngrid
			rows = hi - lo
			next = make([]float64, len(grid))
			install(c)
			handled = observed
			continue // redo this iteration on the new decomposition
		}

		for r := 1; r <= rows; r++ {
			globalRow := lo + r - 1
			if globalRow == 0 || globalRow == st.Height-1 {
				copy(next[r*w:(r+1)*w], grid[r*w:(r+1)*w])
				continue
			}
			next[r*w] = grid[r*w]
			next[r*w+w-1] = grid[r*w+w-1]
			for x := 1; x < w-1; x++ {
				idx := r*w + x
				next[idx] = 0.25 * (grid[idx-w] + grid[idx+w] +
					grid[idx-1] + grid[idx+1])
			}
		}
		copy(grid[w:(rows+1)*w], next[w:(rows+1)*w])
		ctx.compute()
		iter++
		if ctx.NoteStep != nil && ctx.writer() {
			ctx.NoteStep(iter)
		}
	}

	var local float64
	for r := 1; r <= rows; r++ {
		for x := 0; x < w; x++ {
			local += grid[r*w+x]
		}
	}
	out, err := mpi.AllreduceFloat64s(c, []float64{local}, mpi.OpSum)
	if err != nil {
		return err
	}
	st.Heat = out[0]
	if math.IsNaN(st.Heat) {
		return fmt.Errorf("stencil: heat diverged to NaN")
	}
	return nil
}

// shrinkRepair shrinks the communicator and re-decomposes the grid over
// the survivors. Rows that survived move (eagerly, then received in
// ascending-row order per sender) to their new owners; rows owned by a
// dead rank are reinitialised with the fixed boundary values. A second
// failure landing during the redistribution itself is not repaired —
// it surfaces as an error and fails the job.
func (st *Stencil) shrinkRepair(c mpi.Comm, size, rank, lo, hi int, grid []float64,
) (nc mpi.Comm, nsize, nrank, nlo, nhi int, ngrid []float64, err error) {
	w := st.Width
	sh, err := shrinkComm(c)
	if err != nil {
		return nil, 0, 0, 0, 0, nil, err
	}
	nsize, nrank = sh.Size(), sh.Rank()
	nlo, nhi = RowRange(st.Height, nrank, nsize)
	ngrid = make([]float64, (nhi-nlo+2)*w)

	// Ship away the rows this rank keeps no claim on.
	for r := lo; r < hi; r++ {
		owner := rowOwner(st.Height, nsize, r)
		if owner == nrank {
			continue
		}
		var enc stateWriter
		enc.int(r)
		enc.float64s(grid[(r-lo+1)*w : (r-lo+2)*w])
		if serr := sh.Send(owner, tagRedist, enc.bytes()); serr != nil {
			return nil, 0, 0, 0, 0, nil, serr
		}
	}
	// Assemble the new slab: local copy, peer receive, or cold restart
	// for rows lost with the failed rank.
	for r := nlo; r < nhi; r++ {
		dst := ngrid[(r-nlo+1)*w : (r-nlo+2)*w]
		old := rowOwner(st.Height, size, r)
		if old == rank {
			copy(dst, grid[(r-lo+1)*w:(r-lo+2)*w])
			continue
		}
		if from, alive := shrinkRemap(c, sh, old); alive {
			msg, rerr := sh.Recv(from, tagRedist)
			if rerr != nil {
				return nil, 0, 0, 0, 0, nil, rerr
			}
			dec := stateReader{buf: msg.Data}
			gotRow, derr := dec.int()
			if derr != nil {
				return nil, 0, 0, 0, 0, nil, derr
			}
			vec, derr := dec.float64s()
			if derr != nil {
				return nil, 0, 0, 0, 0, nil, derr
			}
			msg.Release()
			if gotRow != r || len(vec) != w {
				return nil, 0, 0, 0, 0, nil, fmt.Errorf(
					"stencil: redistribution row %d (%d cells), want row %d (%d cells)",
					gotRow, len(vec), r, w)
			}
			copy(dst, vec)
		} else if r == 0 {
			for x := 0; x < w; x++ {
				dst[x] = st.HotBoundary
			}
		}
	}
	return sh, nsize, nrank, nlo, nhi, ngrid, nil
}

// rowOwner inverts RowRange: the rank owning global row r when height
// rows are decomposed over size ranks.
func rowOwner(height, size, r int) int {
	per := height / size
	rem := height % size
	wide := (per + 1) * rem // rows covered by the ranks holding per+1 rows
	if r < wide {
		return r / (per + 1)
	}
	if per == 0 {
		return size - 1
	}
	return rem + (r-wide)/per
}
