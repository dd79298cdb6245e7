package apps

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/mpi"
	"repro/internal/simmpi"
)

// rankLoop starts one long-lived goroutine per rank of w, each running
// its step once per call of the returned round function, so an
// AllocsPerRun measurement or a benchmark of one exchange excludes
// goroutine start-up. The goroutines exit when the test ends.
func rankLoop(tb testing.TB, w *simmpi.World, step func(c mpi.Comm) func() error) (round func()) {
	tb.Helper()
	start := make([]chan struct{}, w.Size())
	done := make(chan error, w.Size())
	for r := range start {
		start[r] = make(chan struct{})
		c, err := w.Comm(r)
		if err != nil {
			tb.Fatal(err)
		}
		run := step(c)
		go func(start <-chan struct{}) {
			for range start {
				done <- run()
			}
		}(start[r])
	}
	tb.Cleanup(func() {
		for _, ch := range start {
			close(ch)
		}
	})
	return func() {
		for _, ch := range start {
			ch <- struct{}{}
		}
		for range start {
			if err := <-done; err != nil {
				tb.Fatal(err)
			}
		}
	}
}

// fullWindows is every rank's window covering the whole vector: the
// plan a matrix whose rows reach every column gets.
func fullWindows(n, ranks int) [][2]int {
	w := make([][2]int, ranks)
	for r := range w {
		w[r] = [2]int{0, n}
	}
	return w
}

// TestHaloMatchesAssembly checks the halo exchange against the
// allgather-style assembly at 1–8 ranks: the matvec over the exchanged
// window gives the bits the matvec over the whole assembled vector
// gives, on a banded matrix (neighbours only) and on one whose windows
// span the vector (every peer, every block whole). Two exchanges run
// back to back, so a part left queued from the first would show in the
// second.
func TestHaloMatchesAssembly(t *testing.T) {
	lap, err := Laplacian2D(12)
	if err != nil {
		t.Fatal(err)
	}
	random, err := RandomSPD(48, 12, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		m        *CSRMatrix
		allToAll bool // else banded: neighbours only
	}{{"laplacian", lap, false}, {"random", random, true}} {
		for ranks := 1; ranks <= 8; ranks++ {
			t.Run(fmt.Sprintf("%s/%d-ranks", tc.name, ranks), func(t *testing.T) {
				n := tc.m.N
				xs := [][]float64{testVec(n), make([]float64, n)}
				for i, x := range xs[0] {
					xs[1][i] = 2*x + 1
				}
				w, err := simmpi.NewWorld(ranks)
				if err != nil {
					t.Fatal(err)
				}
				appErr, failures := w.Run(func(c *simmpi.Comm) error {
					lo, hi := RowRange(n, c.Rank(), ranks)
					h, err := newHaloPlan(c, tc.m, lo, hi)
					if err != nil {
						return err
					}
					if tc.allToAll && (len(h.sends) != ranks-1 || len(h.recvs) != ranks-1) {
						return fmt.Errorf("all-to-all plan sends %d and receives %d parts, want %d each", len(h.sends), len(h.recvs), ranks-1)
					}
					if !tc.allToAll && (len(h.sends) > 2 || len(h.recvs) > 2) {
						return fmt.Errorf("banded plan sends %d and receives %d parts, want ≤2 each", len(h.sends), len(h.recvs))
					}
					for _, x := range xs {
						full, err := h.exchange(c, x[lo:hi])
						if err != nil {
							return err
						}
						ref := make([]float64, n)
						if err := assembleVec(encodeParts(x, ranks), 0, n, ref); err != nil {
							return err
						}
						got := make([]float64, hi-lo)
						want := make([]float64, hi-lo)
						if err := tc.m.MulRows(lo, hi, full, got); err != nil {
							return err
						}
						if err := tc.m.MulRows(lo, hi, ref, want); err != nil {
							return err
						}
						for i := range got {
							if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
								return fmt.Errorf("row %d: halo %v, assembled %v", lo+i, got[i], want[i])
							}
						}
					}
					return nil
				})
				if appErr != nil || len(failures) != 0 {
					t.Fatalf("app error %v, failures %v", appErr, failures)
				}
			})
		}
	}
}

// TestHaloPlanPairsSendsWithRecvs checks the plan's two sides agree: for
// every pair of ranks, the span one sends is the span the other
// receives, and each rank receives exactly the part of its window that
// lies outside its own block.
func TestHaloPlanPairsSendsWithRecvs(t *testing.T) {
	m, err := Laplacian2D(96)
	if err != nil {
		t.Fatal(err)
	}
	for _, ranks := range []int{1, 3, 8, 13} {
		windows := make([][2]int, ranks)
		for r := range windows {
			windows[r][0], windows[r][1] = m.ColumnSpan(RowRange(m.N, r, ranks))
		}
		for _, ws := range [][][2]int{windows, fullWindows(m.N, ranks)} {
			plans := make([]*haloPlan, ranks)
			for r := range plans {
				if plans[r], err = planHalo(m.N, r, ws); err != nil {
					t.Fatal(err)
				}
			}
			for r, h := range plans {
				covered := 0
				for _, s := range h.sends {
					found := false
					for _, v := range plans[s.peer].recvs {
						found = found || v == haloSpan{peer: r, lo: s.lo, hi: s.hi}
					}
					if !found {
						t.Fatalf("%d ranks: rank %d sends %+v, which rank %d does not expect", ranks, r, s, s.peer)
					}
				}
				for _, v := range h.recvs {
					covered += v.hi - v.lo
				}
				own := max(0, min(h.hi, h.chi)-max(h.lo, h.clo))
				if covered+own != h.chi-h.clo {
					t.Fatalf("%d ranks: rank %d receives %d and owns %d of its %d-column window", ranks, r, covered, own, h.chi-h.clo)
				}
			}
		}
	}
	if _, err := planHalo(10, 0, [][2]int{{0, 10}, {4, 11}}); err == nil {
		t.Fatal("a window beyond the vector was accepted")
	}
}

// TestHaloRejectsBadParts sends rank 1 a malformed part from rank 0 and
// checks the exchange fails naming it, instead of decoding it.
func TestHaloRejectsBadParts(t *testing.T) {
	m, err := Laplacian2D(12) // 144 unknowns, 72 rows a rank
	if err != nil {
		t.Fatal(err)
	}
	windows := make([][2]int, 2)
	for r := range windows {
		windows[r][0], windows[r][1] = m.ColumnSpan(RowRange(m.N, r, 2))
	}
	h, err := planHalo(m.N, 1, windows)
	if err != nil {
		t.Fatal(err)
	}
	if len(h.recvs) != 1 || h.recvs[0] != (haloSpan{peer: 0, lo: 60, hi: 72}) {
		t.Fatalf("rank 1 receives %+v, want rank 0's rows [60, 72)", h.recvs)
	}
	x := testVec(m.N)
	part := x[60:72]
	for _, tc := range []struct {
		name string
		data []byte
		want string
	}{
		{"header-over", overwriteHeader(encodeVec(part), len(part)+1), "declares"},
		{"header-negative", overwriteHeader(encodeVec(part), -1), "declares"},
		{"truncated", []byte{1, 2, 3}, "truncated"},
		{"short", encodeVec(part[:len(part)-1]), "holds 11 entries, want 12"},
		{"long", encodeVec(append(part[:len(part):len(part)], 0)), "holds 13 entries, want 12"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, err := simmpi.NewWorld(2)
			if err != nil {
				t.Fatal(err)
			}
			c0, err := w.Comm(0)
			if err != nil {
				t.Fatal(err)
			}
			c1, err := w.Comm(1)
			if err != nil {
				t.Fatal(err)
			}
			if err := c0.Send(1, tagHalo, tc.data); err != nil {
				t.Fatal(err)
			}
			_, err = h.exchange(c1, x[72:])
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want one naming %q", err, tc.want)
			}
			if c1.PendingMessages() != 0 {
				t.Fatalf("%d messages left queued", c1.PendingMessages())
			}
		})
	}
}

// TestHaloExchangeSteadyStateAllocs pins CG's per-step exchange: on
// Laplacian2D(96) at 8 ranks each rank sends its neighbours one grid
// row each out of a reused encode buffer, and decodes each received
// part straight into the plan's full vector before releasing it, so a
// warm exchange allocates nothing.
func TestHaloExchangeSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not meaningful under the race detector")
	}
	m, err := Laplacian2D(96)
	if err != nil {
		t.Fatal(err)
	}
	round := haloRound(t, m, 8, false)
	for i := 0; i < 20; i++ {
		round()
	}
	if avg := testing.AllocsPerRun(50, round); avg != 0 {
		t.Errorf("8-rank halo exchange allocates %.2f per step, want 0", avg)
	}
}

// haloRound builds, on a fresh world of the given size, each rank's
// plan for m and returns a function that runs one exchange and matvec
// on every rank. With dense set, every rank's window is the whole
// vector, the plan a matrix whose rows reach every column gets.
func haloRound(tb testing.TB, m *CSRMatrix, ranks int, dense bool) func() {
	tb.Helper()
	w, err := simmpi.NewWorld(ranks)
	if err != nil {
		tb.Fatal(err)
	}
	windows := fullWindows(m.N, ranks)
	if !dense {
		for r := range windows {
			windows[r][0], windows[r][1] = m.ColumnSpan(RowRange(m.N, r, ranks))
		}
	}
	x := testVec(m.N)
	return rankLoop(tb, w, func(c mpi.Comm) func() error {
		h, err := planHalo(m.N, c.Rank(), windows)
		if err != nil {
			tb.Fatal(err)
		}
		p := x[h.lo:h.hi]
		ap := make([]float64, h.hi-h.lo)
		return func() error {
			full, err := h.exchange(c, p)
			if err != nil {
				return err
			}
			return m.MulRows(h.lo, h.hi, full, ap)
		}
	})
}

// BenchmarkHaloExchange times one CG step's vector work on
// Laplacian2D(96) at 8 ranks, all ranks together: every rank exchanges
// its block of the search direction and multiplies its rows. The banded
// case is the plan the matrix gives, one grid row to each neighbour;
// the full-window case is the plan of a matrix whose rows reach every
// column, each rank's whole block to every other rank.
func BenchmarkHaloExchange(b *testing.B) {
	m, err := Laplacian2D(96)
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name  string
		dense bool
	}{{"banded", false}, {"full", true}} {
		b.Run(bc.name, func(b *testing.B) {
			round := haloRound(b, m, 8, bc.dense)
			round()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				round()
			}
		})
	}
}
