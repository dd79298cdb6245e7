package simmpi

import (
	"bytes"
	"fmt"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/mpi"
)

// runAll executes fn on every rank of a fresh n-rank world and fails the
// test on any error.
func runAll(t *testing.T, n int, fn func(c *Comm) error) {
	t.Helper()
	w := newTestWorld(t, n)
	appErr, failures := w.Run(fn)
	if appErr != nil {
		t.Fatalf("app error: %v", appErr)
	}
	if len(failures) != 0 {
		t.Fatalf("failure errors: %v", failures)
	}
}

func TestBarrierAllArrive(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 16} {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			var before, after atomic.Int32
			runAll(t, n, func(c *Comm) error {
				before.Add(1)
				// Give stragglers a chance to expose a broken barrier.
				time.Sleep(time.Duration(c.Rank()) * time.Millisecond)
				if err := mpi.Barrier(c); err != nil {
					return err
				}
				if got := before.Load(); got != int32(n) {
					return fmt.Errorf("passed barrier with only %d/%d arrived", got, n)
				}
				after.Add(1)
				return nil
			})
			if after.Load() != int32(n) {
				t.Fatalf("only %d ranks exited the barrier", after.Load())
			}
		})
	}
}

func TestBarrierRepeated(t *testing.T) {
	runAll(t, 8, func(c *Comm) error {
		for i := 0; i < 20; i++ {
			if err := mpi.Barrier(c); err != nil {
				return fmt.Errorf("barrier %d: %w", i, err)
			}
		}
		return nil
	})
}

func TestBcast(t *testing.T) {
	for _, n := range []int{1, 2, 5, 16} {
		for root := 0; root < n; root += 3 {
			n, root := n, root
			t.Run(fmt.Sprintf("n=%d root=%d", n, root), func(t *testing.T) {
				payload := []byte("broadcast payload")
				runAll(t, n, func(c *Comm) error {
					var data []byte
					if c.Rank() == root {
						data = payload
					}
					got, err := mpi.Bcast(c, root, data)
					if err != nil {
						return err
					}
					if !bytes.Equal(got, payload) {
						return fmt.Errorf("rank %d got %q", c.Rank(), got)
					}
					return nil
				})
			})
		}
	}
}

func TestBcastInvalidRoot(t *testing.T) {
	runAll(t, 2, func(c *Comm) error {
		if _, err := mpi.Bcast(c, 5, nil); err == nil {
			return fmt.Errorf("invalid root accepted")
		}
		return nil
	})
}

func TestGatherScatter(t *testing.T) {
	const n = 9
	runAll(t, n, func(c *Comm) error {
		// Gather rank bytes at root 2.
		parts, err := mpi.Gather(c, 2, []byte{byte(c.Rank())})
		if err != nil {
			return err
		}
		if c.Rank() == 2 {
			for i, p := range parts {
				if len(p) != 1 || p[0] != byte(i) {
					return fmt.Errorf("gathered part %d = %v", i, p)
				}
			}
		} else if parts != nil {
			return fmt.Errorf("non-root got parts %v", parts)
		}
		// Scatter doubled values back out.
		var outParts [][]byte
		if c.Rank() == 2 {
			outParts = make([][]byte, n)
			for i := range outParts {
				outParts[i] = []byte{byte(2 * i)}
			}
		}
		mine, err := mpi.Scatter(c, 2, outParts)
		if err != nil {
			return err
		}
		if len(mine) != 1 || mine[0] != byte(2*c.Rank()) {
			return fmt.Errorf("scattered part %v", mine)
		}
		return nil
	})
}

func TestAllgather(t *testing.T) {
	const n = 6
	runAll(t, n, func(c *Comm) error {
		return mpi.Allgather(c, []byte(fmt.Sprintf("r%d", c.Rank())), func(parts [][]byte) error {
			if len(parts) != n {
				return fmt.Errorf("got %d parts", len(parts))
			}
			for i, p := range parts {
				if string(p) != fmt.Sprintf("r%d", i) {
					return fmt.Errorf("part %d = %q", i, p)
				}
			}
			return nil
		})
	})
}

func TestAlltoall(t *testing.T) {
	const n = 5
	runAll(t, n, func(c *Comm) error {
		parts := make([][]byte, n)
		for i := range parts {
			parts[i] = []byte{byte(c.Rank()), byte(i)}
		}
		got, err := mpi.Alltoall(c, parts)
		if err != nil {
			return err
		}
		for i, p := range got {
			if len(p) != 2 || p[0] != byte(i) || p[1] != byte(c.Rank()) {
				return fmt.Errorf("from %d got %v", i, p)
			}
		}
		return nil
	})
}

func TestAlltoallWrongPartCount(t *testing.T) {
	runAll(t, 2, func(c *Comm) error {
		if _, err := mpi.Alltoall(c, make([][]byte, 3)); err == nil {
			return fmt.Errorf("wrong part count accepted")
		}
		return nil
	})
}

func TestReduceSum(t *testing.T) {
	const n = 8
	runAll(t, n, func(c *Comm) error {
		in := []float64{float64(c.Rank()), 1}
		out, err := mpi.ReduceFloat64s(c, 0, in, mpi.OpSum)
		if err != nil {
			return err
		}
		if c.Rank() != 0 {
			if out != nil {
				return fmt.Errorf("non-root got %v", out)
			}
			return nil
		}
		wantSum := float64(n*(n-1)) / 2
		if out[0] != wantSum || out[1] != n {
			return fmt.Errorf("reduce = %v, want [%v %v]", out, wantSum, float64(n))
		}
		return nil
	})
}

func TestAllreduceOps(t *testing.T) {
	const n = 7
	runAll(t, n, func(c *Comm) error {
		r := float64(c.Rank())
		sum, err := mpi.AllreduceFloat64s(c, []float64{r}, mpi.OpSum)
		if err != nil {
			return err
		}
		if sum[0] != 21 {
			return fmt.Errorf("sum = %v", sum)
		}
		maxV, err := mpi.AllreduceFloat64s(c, []float64{r}, mpi.OpMax)
		if err != nil {
			return err
		}
		if maxV[0] != 6 {
			return fmt.Errorf("max = %v", maxV)
		}
		minV, err := mpi.AllreduceFloat64s(c, []float64{r + 1}, mpi.OpMin)
		if err != nil {
			return err
		}
		if minV[0] != 1 {
			return fmt.Errorf("min = %v", minV)
		}
		prod, err := mpi.AllreduceFloat64s(c, []float64{2}, mpi.OpProd)
		if err != nil {
			return err
		}
		if prod[0] != math.Pow(2, n) {
			return fmt.Errorf("prod = %v", prod)
		}
		return nil
	})
}

func TestAllreduceInt64(t *testing.T) {
	const n = 6
	runAll(t, n, func(c *Comm) error {
		out, err := mpi.AllreduceInt64s(c, []int64{int64(c.Rank()), 10}, mpi.OpSum)
		if err != nil {
			return err
		}
		if out[0] != 15 || out[1] != 60 {
			return fmt.Errorf("got %v", out)
		}
		mx, err := mpi.AllreduceInt64s(c, []int64{int64(-c.Rank())}, mpi.OpMin)
		if err != nil {
			return err
		}
		if mx[0] != int64(-(n - 1)) {
			return fmt.Errorf("min = %v", mx)
		}
		return nil
	})
}

func TestReduceLengthMismatch(t *testing.T) {
	w := newTestWorld(t, 2)
	appErr, _ := w.Run(func(c *Comm) error {
		in := make([]float64, 1+c.Rank()) // deliberately unequal
		_, err := mpi.ReduceFloat64s(c, 0, in, mpi.OpSum)
		return err
	})
	if appErr == nil {
		t.Fatal("length mismatch should surface an error")
	}
}

func TestCollectivesBackToBack(t *testing.T) {
	// Consecutive same-kind collectives must not cross-match.
	const n = 4
	runAll(t, n, func(c *Comm) error {
		for iter := 0; iter < 25; iter++ {
			want := []byte{byte(iter)}
			var data []byte
			if c.Rank() == iter%n {
				data = want
			}
			got, err := mpi.Bcast(c, iter%n, data)
			if err != nil {
				return err
			}
			if !bytes.Equal(got, want) {
				return fmt.Errorf("iter %d: got %v", iter, got)
			}
			sum, err := mpi.AllreduceFloat64s(c, []float64{1}, mpi.OpSum)
			if err != nil {
				return err
			}
			if sum[0] != n {
				return fmt.Errorf("iter %d: sum %v", iter, sum)
			}
		}
		return nil
	})
}

func TestSingleRankCollectives(t *testing.T) {
	runAll(t, 1, func(c *Comm) error {
		if err := mpi.Barrier(c); err != nil {
			return err
		}
		got, err := mpi.Bcast(c, 0, []byte("solo"))
		if err != nil || string(got) != "solo" {
			return fmt.Errorf("bcast: %v %q", err, got)
		}
		sum, err := mpi.AllreduceFloat64s(c, []float64{3}, mpi.OpSum)
		if err != nil || sum[0] != 3 {
			return fmt.Errorf("allreduce: %v %v", err, sum)
		}
		return nil
	})
}

// TestTreeCollectivesMessageCounts pins the traffic of the tree
// collectives: Barrier and both Allreduces send exactly 2(p−1) messages
// (every rank but the root once up the tree, every rank but the root
// once down), Reduce and Bcast p−1, counted by the transport's
// CountTracker.
func TestTreeCollectivesMessageCounts(t *testing.T) {
	collectives := []struct {
		name string
		run  func(c *Comm) error
		msgs func(p int) int
	}{
		{"Barrier", func(c *Comm) error { return mpi.Barrier(c) }, func(p int) int { return 2 * (p - 1) }},
		{"AllreduceFloat64s", func(c *Comm) error {
			_, err := mpi.AllreduceFloat64s(c, []float64{1, 2}, mpi.OpSum)
			return err
		}, func(p int) int { return 2 * (p - 1) }},
		{"AllreduceInt64s", func(c *Comm) error {
			_, err := mpi.AllreduceInt64s(c, []int64{3}, mpi.OpMax)
			return err
		}, func(p int) int { return 2 * (p - 1) }},
		{"ReduceFloat64s", func(c *Comm) error {
			_, err := mpi.ReduceFloat64s(c, c.Size()/2, []float64{1}, mpi.OpSum)
			return err
		}, func(p int) int { return p - 1 }},
		{"Bcast", func(c *Comm) error {
			_, err := mpi.Bcast(c, c.Size()-1, []byte("x"))
			return err
		}, func(p int) int { return p - 1 }},
	}
	for _, p := range []int{1, 2, 3, 7, 8, 9, 15, 16, 17, 63, 64, 65, 100, 513, 4097} {
		for _, coll := range collectives {
			w := newTestWorld(t, p)
			appErr, failures := w.Run(coll.run)
			if appErr != nil || len(failures) != 0 {
				t.Fatalf("%s p=%d: %v %v", coll.name, p, appErr, failures)
			}
			var sent uint64
			for r := 0; r < p; r++ {
				c, err := w.Comm(r)
				if err != nil {
					t.Fatal(err)
				}
				for _, n := range c.SentCounts() {
					sent += n
				}
			}
			if want := coll.msgs(p); sent != uint64(want) {
				t.Errorf("%s p=%d sent %d messages, want %d", coll.name, p, sent, want)
			}
		}
	}
}
