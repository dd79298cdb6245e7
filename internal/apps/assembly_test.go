package apps

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"testing"
)

// testVec is a deterministic vector with no two entries alike, so a
// misplaced entry changes a product.
func testVec(n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(float64(i)) + float64(i)*1e-3
	}
	return x
}

// encodeParts encodes each rank's block of x, as the ranks send them.
func encodeParts(x []float64, ranks int) [][]byte {
	parts := make([][]byte, ranks)
	for r := range parts {
		lo, hi := RowRange(len(x), r, ranks)
		parts[r] = encodeVec(x[lo:hi])
	}
	return parts
}

func TestColumnSpan(t *testing.T) {
	m, err := Laplacian2D(96)
	if err != nil {
		t.Fatal(err)
	}
	// 1152 rows per rank, each reaching one grid row (96) either way.
	want := [][2]int{{0, 1248}, {1056, 2400}, {2208, 3552}, {3360, 4704},
		{4512, 5856}, {5664, 7008}, {6816, 8160}, {7968, 9216}}
	for r, w := range want {
		lo, hi := RowRange(m.N, r, 8)
		if clo, chi := m.ColumnSpan(lo, hi); clo != w[0] || chi != w[1] {
			t.Errorf("rank %d: span [%d, %d), want [%d, %d)", r, clo, chi, w[0], w[1])
		}
	}
	if clo, chi := m.ColumnSpan(5, 5); clo != 0 || chi != 0 {
		t.Errorf("empty block spans [%d, %d), want [0, 0)", clo, chi)
	}
}

func TestWindowedAssemblyMatchesFull(t *testing.T) {
	lap, err := Laplacian2D(12)
	if err != nil {
		t.Fatal(err)
	}
	// Every row of this matrix references far-apart columns, so each
	// rank's window is the whole vector.
	random, err := RandomSPD(48, 12, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name       string
		m          *CSRMatrix
		fullWindow bool
	}{{"laplacian", lap, false}, {"random", random, true}} {
		x := testVec(tc.m.N)
		for ranks := 1; ranks <= 8; ranks++ {
			parts := encodeParts(x, ranks)
			for r := 0; r < ranks; r++ {
				t.Run(fmt.Sprintf("%s/%d-ranks/rank-%d", tc.name, ranks, r), func(t *testing.T) {
					lo, hi := RowRange(tc.m.N, r, ranks)
					clo, chi := tc.m.ColumnSpan(lo, hi)
					if tc.fullWindow && (clo != 0 || chi != tc.m.N) {
						t.Fatalf("window [%d, %d), want the full [0, %d)", clo, chi, tc.m.N)
					}
					windowed := make([]float64, tc.m.N)
					for i := range windowed {
						windowed[i] = math.NaN() // outside the window: must go unread
					}
					full := make([]float64, tc.m.N)
					if err := assembleVec(parts, clo, chi, windowed); err != nil {
						t.Fatal(err)
					}
					if err := assembleVec(parts, 0, tc.m.N, full); err != nil {
						t.Fatal(err)
					}
					got := make([]float64, hi-lo)
					want := make([]float64, hi-lo)
					if err := tc.m.MulRows(lo, hi, windowed, got); err != nil {
						t.Fatal(err)
					}
					if err := tc.m.MulRows(lo, hi, full, want); err != nil {
						t.Fatal(err)
					}
					for i := range got {
						if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
							t.Fatalf("row %d: windowed %v, full %v", lo+i, got[i], want[i])
						}
					}
				})
			}
		}
	}
}

func TestAssemblyRejectsBadParts(t *testing.T) {
	m, err := Laplacian2D(12) // 144 unknowns
	if err != nil {
		t.Fatal(err)
	}
	const ranks = 4
	x := testVec(m.N)
	// Rank 0's window ends at row 48; rank 3's part lies wholly outside.
	clo, chi := m.ColumnSpan(RowRange(m.N, 0, ranks))
	if lo, _ := RowRange(m.N, 3, ranks); chi > lo {
		t.Fatalf("window [%d, %d) reaches rank 3's block at %d", clo, chi, lo)
	}
	lo3, hi3 := RowRange(m.N, 3, ranks)
	for _, tc := range []struct {
		name string
		last []byte // rank 3's part
		want string
	}{
		{"header-over", overwriteHeader(encodeVec(x[lo3:hi3]), hi3-lo3+1), "declares"},
		{"header-negative", overwriteHeader(encodeVec(x[lo3:hi3]), -1), "declares"},
		{"truncated", []byte{1, 2, 3}, "truncated"},
		{"total-short", encodeVec(x[lo3 : hi3-1]), "assembled 143 of 144"},
		{"total-long", encodeVec(append(x[lo3:hi3:hi3], 0)), "assembled 145 of 144"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			parts := encodeParts(x, ranks)
			parts[3] = tc.last
			err := assembleVec(parts, clo, chi, make([]float64, m.N))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want one naming %q", err, tc.want)
			}
		})
	}
}

// overwriteHeader replaces an encoded vector's length header.
func overwriteHeader(buf []byte, n int) []byte {
	binary.LittleEndian.PutUint64(buf, uint64(int64(n)))
	return buf
}

func TestAppendEncodedVecAllocs(t *testing.T) {
	xs := testVec(1152)
	buf := make([]byte, 0, 8+8*len(xs))
	if allocs := testing.AllocsPerRun(100, func() {
		buf = appendEncodedVec(buf[:0], xs)
	}); allocs != 0 {
		t.Fatalf("appendEncodedVec with room made %v allocations, want 0", allocs)
	}
}

func TestEncodingLayoutUnchanged(t *testing.T) {
	// The length, then each value's IEEE bits, all little-endian words.
	want := []byte{
		0xaa, 0, 0, 0, 0, 0, 0, 0, // prefix already in the buffer
		3, 0, 0, 0, 0, 0, 0, 0,
		0, 0, 0, 0, 0, 0, 0xf8, 0x3f, // 1.5
		0, 0, 0, 0, 0, 0, 0x02, 0xc0, // -2.25
		0, 0, 0, 0, 0, 0, 0, 0x80, // -0
	}
	got := appendEncodedVec([]byte{0xaa, 0, 0, 0, 0, 0, 0, 0}, []float64{1.5, -2.25, math.Copysign(0, -1)})
	if !bytes.Equal(got, want) {
		t.Fatalf("encoding\n got %x\nwant %x", got, want)
	}

	// A snapshot is the same words end to end: counters, then each
	// vector as above, then rho.
	s := &cgState{repeat: 2, iter: 7, x: []float64{1}, r: []float64{-1, 0.5}, p: nil, rho: 0.25}
	var ref []byte
	word := func(v uint64) { ref = binary.LittleEndian.AppendUint64(ref, v) }
	vec := func(xs []float64) {
		word(uint64(len(xs)))
		for _, x := range xs {
			word(math.Float64bits(x))
		}
	}
	word(2)
	word(7)
	vec(s.x)
	vec(s.r)
	vec(s.p)
	word(math.Float64bits(0.25))
	if got := s.encode(); !bytes.Equal(got, ref) {
		t.Fatalf("cg snapshot\n got %x\nwant %x", got, ref)
	}
}

// assembleVec is the halo exchange's oracle, the assembly CG ran before
// it exchanged point to point: it lays the encoded parts, in rank order,
// end to end over full (length n), decoding only the column window
// [clo, chi); entries of full outside it are unspecified. Every part's
// length header, and their total against n, are checked, so a malformed
// part is rejected wherever it lies.
func assembleVec(parts [][]byte, clo, chi int, full []float64) error {
	n := len(full)
	off := 0
	for _, part := range parts {
		m, src, err := vecPayload(part)
		if err != nil {
			return err
		}
		if lo, hi := max(off, clo), min(off+m, chi, n); lo < hi {
			decodeFloats(full[lo:hi], src[8*(lo-off):])
		}
		off += m
	}
	if off != n {
		return fmt.Errorf("apps: assembled %d of %d entries", off, n)
	}
	return nil
}
