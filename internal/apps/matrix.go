package apps

import (
	"fmt"
	"sort"

	"repro/internal/stats"
)

// CSRMatrix is a sparse matrix in compressed-sparse-row form.
type CSRMatrix struct {
	N      int
	RowPtr []int
	ColIdx []int
	Values []float64
}

// Laplacian2D builds the standard 5-point finite-difference Laplacian on
// a g×g grid (n = g² unknowns): symmetric positive definite with known
// conditioning, the canonical CG test matrix.
func Laplacian2D(g int) (*CSRMatrix, error) {
	if g <= 0 {
		return nil, fmt.Errorf("apps: grid size %d", g)
	}
	n := g * g
	m := &CSRMatrix{N: n, RowPtr: make([]int, 0, n+1)}
	m.RowPtr = append(m.RowPtr, 0)
	for row := 0; row < n; row++ {
		i, j := row/g, row%g
		add := func(col int, v float64) {
			m.ColIdx = append(m.ColIdx, col)
			m.Values = append(m.Values, v)
		}
		// Emit in ascending column order for determinism.
		if i > 0 {
			add(row-g, -1)
		}
		if j > 0 {
			add(row-1, -1)
		}
		add(row, 4)
		if j < g-1 {
			add(row+1, -1)
		}
		if i < g-1 {
			add(row+g, -1)
		}
		m.RowPtr = append(m.RowPtr, len(m.ColIdx))
	}
	return m, nil
}

// RandomSPD builds a random sparse symmetric diagonally-dominant matrix
// in the spirit of NPB CG's randomly structured input: nnzPerRow random
// off-diagonal entries per row (symmetrised), with diagonals large enough
// to guarantee positive definiteness. The seed makes it reproducible.
func RandomSPD(n, nnzPerRow int, seed int64) (*CSRMatrix, error) {
	if n <= 0 || nnzPerRow < 0 || nnzPerRow >= n {
		return nil, fmt.Errorf("apps: RandomSPD(%d, %d)", n, nnzPerRow)
	}
	rng := stats.NewStream(seed)
	// Accumulate entries in a dense-ish map per row, then CSR-ify sorted.
	entries := make([]map[int]float64, n)
	for i := range entries {
		entries[i] = make(map[int]float64, nnzPerRow*2+1)
	}
	for i := 0; i < n; i++ {
		for k := 0; k < nnzPerRow; k++ {
			j := rng.Intn(n)
			if j == i {
				continue
			}
			v := -(rng.Float64() + 0.1)
			entries[i][j] = v
			entries[j][i] = v // symmetrise
		}
	}
	m := &CSRMatrix{N: n, RowPtr: make([]int, 0, n+1)}
	m.RowPtr = append(m.RowPtr, 0)
	for i := 0; i < n; i++ {
		cols := make([]int, 0, len(entries[i])+1)
		for j := range entries[i] {
			cols = append(cols, j)
		}
		cols = append(cols, i)
		sort.Ints(cols)
		// Diagonal dominance: |a_ii| > Σ|a_ij|, accumulated in sorted
		// column order so the same seed yields bit-identical matrices.
		var offSum float64
		for _, j := range cols {
			if j != i {
				offSum += -entries[i][j]
			}
		}
		diag := offSum + 1
		for _, j := range cols {
			if j == i {
				m.ColIdx = append(m.ColIdx, i)
				m.Values = append(m.Values, diag)
			} else {
				m.ColIdx = append(m.ColIdx, j)
				m.Values = append(m.Values, entries[i][j])
			}
		}
		m.RowPtr = append(m.RowPtr, len(m.ColIdx))
	}
	return m, nil
}

// RowRange returns the contiguous row block owned by rank of size ranks,
// balancing remainders across the leading ranks.
func RowRange(n, rank, ranks int) (lo, hi int) {
	per := n / ranks
	rem := n % ranks
	lo = rank*per + min(rank, rem)
	hi = lo + per
	if rank < rem {
		hi++
	}
	return lo, hi
}

// ColumnSpan returns the half-open range [clo, chi) of the columns that
// rows [lo, hi) reference: all MulRows(lo, hi, ...) reads of x. A banded
// matrix gives a narrow window; a block with no entries gives [0, 0).
func (m *CSRMatrix) ColumnSpan(lo, hi int) (clo, chi int) {
	clo, chi = m.N, 0
	for _, col := range m.ColIdx[m.RowPtr[lo]:m.RowPtr[hi]] {
		clo = min(clo, col)
		chi = max(chi, col+1)
	}
	if clo >= chi {
		return 0, 0
	}
	return clo, chi
}

// MulRows computes y = A[lo:hi) · x for the owned row block against the
// full vector x.
func (m *CSRMatrix) MulRows(lo, hi int, x, y []float64) error {
	if lo < 0 || hi > m.N || len(x) != m.N || len(y) != hi-lo {
		return fmt.Errorf("apps: MulRows bounds lo=%d hi=%d len(x)=%d len(y)=%d n=%d",
			lo, hi, len(x), len(y), m.N)
	}
	for row := lo; row < hi; row++ {
		var sum float64
		for k := m.RowPtr[row]; k < m.RowPtr[row+1]; k++ {
			sum += m.Values[k] * x[m.ColIdx[k]]
		}
		y[row-lo] = sum
	}
	return nil
}

// Dense returns the dense form, for small-matrix verification in tests.
func (m *CSRMatrix) Dense() [][]float64 {
	out := make([][]float64, m.N)
	for i := range out {
		out[i] = make([]float64, m.N)
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			out[i][m.ColIdx[k]] = m.Values[k]
		}
	}
	return out
}
