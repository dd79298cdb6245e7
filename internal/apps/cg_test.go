package apps

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/mpi"
	"repro/internal/redundancy"
	"repro/internal/simmpi"
)

// runPlain executes app.Run over a plain n-rank world, one app value per
// rank (returned for inspection).
func runPlainCG(t *testing.T, n int, mk func() *CG, ckpt func(rank int, c *simmpi.Comm) *checkpoint.Client) []*CG {
	t.Helper()
	w, err := simmpi.NewWorld(n)
	if err != nil {
		t.Fatal(err)
	}
	apps := make([]*CG, n)
	appErr, failures := w.Run(func(c *simmpi.Comm) error {
		app := mk()
		apps[c.Rank()] = app
		ctx := &Context{Comm: c}
		if ckpt != nil {
			ctx.Ckpt = ckpt(c.Rank(), c)
		}
		return app.Run(ctx)
	})
	if appErr != nil {
		t.Fatalf("app error: %v", appErr)
	}
	if len(failures) != 0 {
		t.Fatalf("failures: %v", failures)
	}
	return apps
}

func TestCGSolvesLaplacian(t *testing.T) {
	m, err := Laplacian2D(8) // 64 unknowns
	if err != nil {
		t.Fatal(err)
	}
	apps := runPlainCG(t, 4, func() *CG {
		return &CG{Matrix: m, Iterations: 120}
	}, nil)
	// b = A·ones, so the solution is ones and the checksum is N.
	for rank, app := range apps {
		if app.ResidualNorm > 1e-8 {
			t.Fatalf("rank %d residual %v", rank, app.ResidualNorm)
		}
		if math.Abs(app.Checksum-64) > 1e-6 {
			t.Fatalf("rank %d checksum %v, want 64", rank, app.Checksum)
		}
	}
}

func TestCGRandomSPD(t *testing.T) {
	m, err := RandomSPD(60, 3, 11)
	if err != nil {
		t.Fatal(err)
	}
	apps := runPlainCG(t, 3, func() *CG {
		return &CG{Matrix: m, Iterations: 100}
	}, nil)
	if apps[0].ResidualNorm > 1e-6 {
		t.Fatalf("residual %v", apps[0].ResidualNorm)
	}
	if math.Abs(apps[0].Checksum-60) > 1e-4 {
		t.Fatalf("checksum %v, want 60", apps[0].Checksum)
	}
}

func TestCGDeterministicAcrossRuns(t *testing.T) {
	m, err := Laplacian2D(6)
	if err != nil {
		t.Fatal(err)
	}
	run := func() (float64, float64) {
		apps := runPlainCG(t, 4, func() *CG {
			return &CG{Matrix: m, Iterations: 25}
		}, nil)
		return apps[0].ResidualNorm, apps[0].Checksum
	}
	r1, c1 := run()
	r2, c2 := run()
	if r1 != r2 || c1 != c2 {
		t.Fatalf("nondeterministic: (%v,%v) vs (%v,%v)", r1, c1, r2, c2)
	}
}

func TestCGRepeats(t *testing.T) {
	m, err := Laplacian2D(5)
	if err != nil {
		t.Fatal(err)
	}
	single := runPlainCG(t, 2, func() *CG {
		return &CG{Matrix: m, Iterations: 60, Repeats: 1}
	}, nil)
	tripled := runPlainCG(t, 2, func() *CG {
		return &CG{Matrix: m, Iterations: 60, Repeats: 3}
	}, nil)
	// Each repeat resets and re-solves: the final state matches a single
	// solve.
	if single[0].Checksum != tripled[0].Checksum {
		t.Fatalf("checksums differ: %v vs %v", single[0].Checksum, tripled[0].Checksum)
	}
}

func TestCGValidation(t *testing.T) {
	w, err := simmpi.NewWorld(1)
	if err != nil {
		t.Fatal(err)
	}
	appErr, _ := w.Run(func(c *simmpi.Comm) error {
		return (&CG{}).Run(&Context{Comm: c})
	})
	if appErr == nil {
		t.Fatal("missing matrix accepted")
	}
}

func TestCGCheckpointRestartEquivalence(t *testing.T) {
	// Run 40 iterations with checkpoints every 10; then simulate a crash
	// by re-running from storage in a fresh world. The resumed run's
	// result must equal an uninterrupted run's bit for bit.
	m, err := Laplacian2D(6)
	if err != nil {
		t.Fatal(err)
	}
	const n = 3
	uninterrupted := runPlainCG(t, n, func() *CG {
		return &CG{Matrix: m, Iterations: 40}
	}, nil)

	store := checkpoint.NewMemStorage()
	mkClient := func(rank int, c *simmpi.Comm) *checkpoint.Client {
		cl, err := checkpoint.NewClient(c, checkpoint.Config{Storage: store, StepInterval: 10})
		if err != nil {
			t.Fatal(err)
		}
		return cl
	}
	// First attempt: runs to completion, leaving checkpoints behind —
	// then the "restarted" world resumes from generation covering step 40.
	runPlainCG(t, n, func() *CG { return &CG{Matrix: m, Iterations: 40} }, mkClient)
	resumed := runPlainCG(t, n, func() *CG { return &CG{Matrix: m, Iterations: 40} }, mkClient)
	if resumed[0].Checksum != uninterrupted[0].Checksum {
		t.Fatalf("resumed checksum %v != uninterrupted %v",
			resumed[0].Checksum, uninterrupted[0].Checksum)
	}
	if resumed[0].ResidualNorm != uninterrupted[0].ResidualNorm {
		t.Fatalf("resumed residual %v != uninterrupted %v",
			resumed[0].ResidualNorm, uninterrupted[0].ResidualNorm)
	}
}

func TestCGMidRunRestore(t *testing.T) {
	// Checkpoint at step 10 of 20, then restore into a world that still
	// has 20 iterations configured: the resume must pick up at step 11,
	// not replay from zero — verified by matching the uninterrupted run.
	m, err := Laplacian2D(6)
	if err != nil {
		t.Fatal(err)
	}
	const n = 2
	want := runPlainCG(t, n, func() *CG {
		return &CG{Matrix: m, Iterations: 20}
	}, nil)

	store := checkpoint.NewMemStorage()
	// Phase 1: run only the first 10 iterations, checkpointing at 10.
	runPlainCG(t, n, func() *CG { return &CG{Matrix: m, Iterations: 10} },
		func(rank int, c *simmpi.Comm) *checkpoint.Client {
			cl, err := checkpoint.NewClient(c, checkpoint.Config{Storage: store, StepInterval: 10})
			if err != nil {
				t.Fatal(err)
			}
			return cl
		})
	// Phase 2: fresh world, full 20-iteration config, restores at step 10.
	resumed := runPlainCG(t, n, func() *CG { return &CG{Matrix: m, Iterations: 20} },
		func(rank int, c *simmpi.Comm) *checkpoint.Client {
			cl, err := checkpoint.NewClient(c, checkpoint.Config{Storage: store})
			if err != nil {
				t.Fatal(err)
			}
			return cl
		})
	if resumed[0].Checksum != want[0].Checksum {
		t.Fatalf("resumed checksum %v, want %v", resumed[0].Checksum, want[0].Checksum)
	}
}

func TestCGIdenticalAcrossRedundancyDegrees(t *testing.T) {
	// The headline transparency property: the same CG at 1x, 1.5x, 2x and
	// 3x produces bit-identical results, and replicas agree.
	m, err := Laplacian2D(6)
	if err != nil {
		t.Fatal(err)
	}
	const n = 4
	results := map[float64][]float64{}
	for _, degree := range []float64{1, 1.5, 2, 3} {
		rm, err := redundancy.NewRankMap(n, degree)
		if err != nil {
			t.Fatal(err)
		}
		w, err := simmpi.NewWorld(rm.PhysicalSize())
		if err != nil {
			t.Fatal(err)
		}
		var mu sync.Mutex
		var sums []float64
		appErr, failures := w.Run(func(pc *simmpi.Comm) error {
			rc, err := redundancy.Wrap(pc, rm, mpi.WithLiveness(w))
			if err != nil {
				return err
			}
			app := &CG{Matrix: m, Iterations: 30}
			if err := app.Run(&Context{Comm: rc}); err != nil {
				return err
			}
			mu.Lock()
			sums = append(sums, app.Checksum)
			mu.Unlock()
			return nil
		})
		if appErr != nil {
			t.Fatalf("degree %v: %v", degree, appErr)
		}
		if len(failures) != 0 {
			t.Fatalf("degree %v failures: %v", degree, failures)
		}
		for _, s := range sums[1:] {
			if s != sums[0] {
				t.Fatalf("degree %v: replicas disagree: %v", degree, sums)
			}
		}
		results[degree] = sums
	}
	base := results[1][0]
	for degree, sums := range results {
		if sums[0] != base {
			t.Fatalf("degree %v checksum %v differs from 1x %v", degree, sums[0], base)
		}
	}
}

func TestStateCodecRejectsCorruption(t *testing.T) {
	s := &cgState{repeat: 1, iter: 2, x: []float64{1}, r: []float64{2}, p: []float64{3}, rho: 4}
	buf := s.encode()
	if _, err := decodeCGState(buf[:len(buf)-1]); err == nil {
		t.Error("truncated state accepted")
	}
	if _, err := decodeCGState(append(buf, 0)); err == nil {
		t.Error("trailing bytes accepted")
	}
	got, err := decodeCGState(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.repeat != 1 || got.iter != 2 || got.rho != 4 || got.x[0] != 1 {
		t.Fatalf("round trip %+v", got)
	}
}

func TestEncodeVecRoundTrip(t *testing.T) {
	for _, xs := range [][]float64{nil, {}, {1.5, -2.25, math.Pi}} {
		got, err := decodeVec(encodeVec(xs))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(xs) {
			t.Fatalf("length %d vs %d", len(got), len(xs))
		}
		for i := range xs {
			if got[i] != xs[i] {
				t.Fatalf("entry %d: %v vs %v", i, got[i], xs[i])
			}
		}
	}
	if _, err := decodeVec([]byte{1, 2, 3}); err == nil {
		t.Error("garbage accepted")
	}
}

func TestAppendDecodedVecKeepsPrefix(t *testing.T) {
	xs := []float64{1.5, -2.25, math.Pi, math.Inf(-1), math.Copysign(0, -1)}
	dst := make([]float64, 2, 3) // too small: the decode must grow it
	dst[0], dst[1] = 7, 8
	got, err := appendDecodedVec(dst, encodeVec(xs))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2+len(xs) || got[0] != 7 || got[1] != 8 {
		t.Fatalf("prefix lost: %v", got)
	}
	for i, x := range xs {
		if math.Float64bits(got[2+i]) != math.Float64bits(x) {
			t.Fatalf("entry %d: %v vs %v", i, got[2+i], x)
		}
	}
	if got, err := appendDecodedVec(dst, []byte{1, 2, 3}); err == nil || len(got) != 2 {
		t.Fatalf("garbage decode = %v, %v; want dst unchanged and an error", got, err)
	}
}

func TestCGUnevenPartition(t *testing.T) {
	// 25 unknowns across 4 ranks: 7/6/6/6 split must still solve.
	m, err := Laplacian2D(5)
	if err != nil {
		t.Fatal(err)
	}
	apps := runPlainCG(t, 4, func() *CG {
		return &CG{Matrix: m, Iterations: 80}
	}, nil)
	if apps[0].ResidualNorm > 1e-8 {
		t.Fatalf("residual %v", apps[0].ResidualNorm)
	}
	if math.Abs(apps[0].Checksum-25) > 1e-6 {
		t.Fatalf("checksum %v", apps[0].Checksum)
	}
}

func TestCGSingleRank(t *testing.T) {
	m, err := Laplacian2D(4)
	if err != nil {
		t.Fatal(err)
	}
	apps := runPlainCG(t, 1, func() *CG {
		return &CG{Matrix: m, Iterations: 60}
	}, nil)
	if math.Abs(apps[0].Checksum-16) > 1e-8 {
		t.Fatalf("checksum %v", apps[0].Checksum)
	}
}

func ExampleCG() {
	m, _ := Laplacian2D(4)
	w, _ := simmpi.NewWorld(2)
	var once sync.Once
	var checksum float64
	w.Run(func(c *simmpi.Comm) error {
		app := &CG{Matrix: m, Iterations: 50}
		if err := app.Run(&Context{Comm: c}); err != nil {
			return err
		}
		once.Do(func() { checksum = app.Checksum })
		return nil
	})
	fmt.Printf("checksum ≈ %.0f\n", checksum)
	// Output: checksum ≈ 16
}

// TestCGAnswersPinned holds CG's answer bits to those of the allgather
// assembly the halo exchange replaced, at redundancy degrees 1 and 2 on
// a banded matrix and on one whose plan is all-to-all.
func TestCGAnswersPinned(t *testing.T) {
	lap, err := Laplacian2D(96)
	if err != nil {
		t.Fatal(err)
	}
	random, err := RandomSPD(300, 12, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name               string
		m                  *CSRMatrix
		ranks, iters       int
		degree             float64
		checksum, residual uint64
	}{
		{"laplacian96/r1", lap, 8, 400, 1, 0x40c1fffffffffffe, 0x3ba6fc813739a0ed},
		{"laplacian96/r2", lap, 8, 400, 2, 0x40c1fffffffffffe, 0x3ba6fc813739a0ed},
		{"random300", random, 5, 50, 1, 0x4072c00000000000, 0x38327ce80b467bb7},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rm, err := redundancy.NewRankMap(tc.ranks, tc.degree)
			if err != nil {
				t.Fatal(err)
			}
			w, err := simmpi.NewWorld(rm.PhysicalSize())
			if err != nil {
				t.Fatal(err)
			}
			appErr, failures := w.Run(func(pc *simmpi.Comm) error {
				rc, err := redundancy.Wrap(pc, rm, mpi.WithLiveness(w))
				if err != nil {
					return err
				}
				app := &CG{Matrix: tc.m, Iterations: tc.iters}
				if err := app.Run(&Context{Comm: rc}); err != nil {
					return err
				}
				if got := math.Float64bits(app.Checksum); got != tc.checksum {
					return fmt.Errorf("checksum %#x, want %#x", got, tc.checksum)
				}
				if got := math.Float64bits(app.ResidualNorm); got != tc.residual {
					return fmt.Errorf("residual norm %#x, want %#x", got, tc.residual)
				}
				return nil
			})
			if appErr != nil || len(failures) != 0 {
				t.Fatalf("app error %v, failures %v", appErr, failures)
			}
		})
	}
}
