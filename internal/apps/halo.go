package apps

import (
	"fmt"

	"repro/internal/mpi"
)

// tagHalo carries the halo parts CG and eigen exchange every step.
const tagHalo = 301

// haloSpan is a run [lo, hi) of vector entries moving between this rank
// and peer: out of this rank's block to peer, or out of peer's block into
// this rank's column window.
type haloSpan struct {
	peer, lo, hi int
}

// haloPlan is one rank's point-to-point exchange of a row-distributed
// vector ahead of a matvec. The matvec of rows [lo, hi) reads only the
// columns [clo, chi) those rows reference (CSRMatrix.ColumnSpan), so the
// rank needs only the part of each peer's block inside that window, and
// sends each peer only the part of its own block inside the peer's
// window. A banded matrix gives each rank a few neighbours; a matrix
// whose windows cover the whole vector gives p−1 sends and p−1 receives
// per rank, every block whole. Either way the matvec reads the same
// values, so its results are bit-identical to assembling the whole
// vector.
type haloPlan struct {
	lo, hi   int // this rank's block
	clo, chi int // the column window its matvec reads
	sends    []haloSpan
	recvs    []haloSpan

	// full is the assembled vector, length n; entries outside [clo, chi)
	// are unspecified and nothing may read them. buf is the send encode
	// scratch: sends copy at the transport boundary, so one buffer serves
	// every part.
	full []float64
	buf  []byte
}

// newHaloPlan builds the plan for rows [lo, hi) of m: one Allgather of
// every rank's column window, so no rank scans another rank's rows. It
// is a collective; every rank of c calls it once per Run.
func newHaloPlan(c mpi.Comm, m *CSRMatrix, lo, hi int) (*haloPlan, error) {
	clo, chi := m.ColumnSpan(lo, hi)
	w := stateWriter{buf: make([]byte, 0, 16)}
	w.int(clo)
	w.int(chi)
	windows := make([][2]int, c.Size())
	err := mpi.Allgather(c, w.bytes(), func(parts [][]byte) error {
		for q, part := range parts {
			r := stateReader{buf: part}
			var err error
			if windows[q][0], err = r.int(); err != nil {
				return err
			}
			if windows[q][1], err = r.int(); err != nil {
				return err
			}
			if err := r.done(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("apps: halo plan: %w", err)
	}
	return planHalo(m.N, c.Rank(), windows)
}

// planHalo lays out rank's sends and receives from every rank's column
// window (windows[q] for rank q, whose block is RowRange(n, q, p)). A
// sender and its receiver compute the same span from the same windows.
func planHalo(n, rank int, windows [][2]int) (*haloPlan, error) {
	p := len(windows)
	lo, hi := RowRange(n, rank, p)
	h := &haloPlan{lo: lo, hi: hi, clo: windows[rank][0], chi: windows[rank][1], full: make([]float64, n)}
	for q, win := range windows {
		if win[0] < 0 || win[0] > win[1] || win[1] > n {
			return nil, fmt.Errorf("apps: rank %d's column window [%d, %d) outside [0, %d)", q, win[0], win[1], n)
		}
		if q == rank {
			continue
		}
		if a, b := max(lo, win[0]), min(hi, win[1]); a < b {
			h.sends = append(h.sends, haloSpan{peer: q, lo: a, hi: b})
		}
		qlo, qhi := RowRange(n, q, p)
		if a, b := max(qlo, h.clo), min(qhi, h.chi); a < b {
			h.recvs = append(h.recvs, haloSpan{peer: q, lo: a, hi: b})
		}
	}
	return h, nil
}

// exchange sends each peer its span of x (this rank's block), then lays
// x's own span and every received span over the window of the plan's
// full vector, which it returns for the matvec. Each part's length is
// checked against the plan, and each message is released once decoded.
func (h *haloPlan) exchange(c mpi.Comm, x []float64) ([]float64, error) {
	for _, s := range h.sends {
		h.buf = appendEncodedVec(h.buf[:0], x[s.lo-h.lo:s.hi-h.lo])
		if err := c.Send(s.peer, tagHalo, h.buf); err != nil {
			return nil, fmt.Errorf("apps: halo send to %d: %w", s.peer, err)
		}
	}
	if a, b := max(h.lo, h.clo), min(h.hi, h.chi); a < b {
		copy(h.full[a:b], x[a-h.lo:b-h.lo])
	}
	for _, s := range h.recvs {
		if err := h.recv(c, s); err != nil {
			return nil, err
		}
	}
	return h.full, nil
}

// recv decodes the part s names straight into the full vector.
func (h *haloPlan) recv(c mpi.Comm, s haloSpan) error {
	msg, err := c.Recv(s.peer, tagHalo)
	if err != nil {
		return fmt.Errorf("apps: halo recv from %d: %w", s.peer, err)
	}
	defer msg.Release()
	m, src, err := vecPayload(msg.Data)
	if err != nil {
		return fmt.Errorf("apps: halo part from %d: %w", s.peer, err)
	}
	if m != s.hi-s.lo {
		return fmt.Errorf("apps: halo part from %d holds %d entries, want %d", s.peer, m, s.hi-s.lo)
	}
	decodeFloats(h.full[s.lo:s.hi], src)
	return nil
}
