package mpi_test

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/mpi"
	"repro/internal/simmpi"
)

// oracleTag carries the oracle's traffic, apart from every collective tag.
const oracleTag = 1

// binomialReduce is the binomial-tree reduce the radix-8 tree replaced,
// kept as its oracle. Vectors travel as 8-byte words: a rank with
// relative rank rel folds in the block of rel+mask for each mask below
// rel's lowest set bit (its own, lower block on the left of apply), then
// sends its block to rel−mask. Root returns the reduced words, the
// others nil.
func binomialReduce(c mpi.Comm, root int, in []uint64, apply func(a, b uint64) uint64) ([]uint64, error) {
	size := c.Size()
	acc := append([]uint64(nil), in...)
	rel := (c.Rank() - root + size) % size
	for mask := 1; mask < size; mask <<= 1 {
		if rel&mask != 0 {
			return nil, c.Send((rel-mask+root)%size, oracleTag, wordBytes(acc))
		}
		if rel+mask < size {
			msg, err := c.Recv((rel+mask+root)%size, oracleTag)
			if err != nil {
				return nil, err
			}
			for i := range acc {
				acc[i] = apply(acc[i], binary.LittleEndian.Uint64(msg.Data[8*i:]))
			}
			msg.Release()
		}
	}
	return acc, nil
}

func wordBytes(ws []uint64) []byte {
	buf := make([]byte, 8*len(ws))
	for i, w := range ws {
		binary.LittleEndian.PutUint64(buf[8*i:], w)
	}
	return buf
}

// floatApply and intApply are the oracle's operators on words, written
// out independently of mpi.ReduceOp.
func floatApply(op mpi.ReduceOp) func(a, b uint64) uint64 {
	return func(a, b uint64) uint64 {
		x, y := math.Float64frombits(a), math.Float64frombits(b)
		switch op {
		case mpi.OpMax:
			x = math.Max(x, y)
		case mpi.OpMin:
			x = math.Min(x, y)
		case mpi.OpProd:
			x *= y
		default:
			x += y
		}
		return math.Float64bits(x)
	}
}

func intApply(op mpi.ReduceOp) func(a, b uint64) uint64 {
	return func(a, b uint64) uint64 {
		x, y := int64(a), int64(b)
		switch op {
		case mpi.OpMax:
			x = max(x, y)
		case mpi.OpMin:
			x = min(x, y)
		case mpi.OpProd:
			x *= y
		default:
			x += y
		}
		return uint64(x)
	}
}

var treeOps = []mpi.ReduceOp{mpi.OpSum, mpi.OpMax, mpi.OpMin, mpi.OpProd}

// treeInputs draws rank's vectors for one world: floats of either sign
// whose magnitudes span 30 decades (so every sum rounds, and differently
// in every combine order), and int64s that overflow under OpProd.
func treeInputs(size, rank int) (fs []float64, is []int64) {
	r := rand.New(rand.NewSource(int64(size)<<20 | int64(rank)))
	for i := 0; i < 4; i++ {
		f := (1 + r.Float64()) * math.Pow(10, float64(r.Intn(31)-15))
		if r.Intn(2) == 0 {
			f = -f
		}
		fs = append(fs, f)
		is = append(is, r.Int63n(1<<40)-1<<39)
	}
	return fs, is
}

func floatWords(xs []float64) []uint64 {
	ws := make([]uint64, len(xs))
	for i, x := range xs {
		ws[i] = math.Float64bits(x)
	}
	return ws
}

func intWords(xs []int64) []uint64 {
	ws := make([]uint64, len(xs))
	for i, x := range xs {
		ws[i] = uint64(x)
	}
	return ws
}

func sameWords(got, want []uint64) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// oracleAll is the oracle's allreduce: its reduce to rank 0, then a
// bcast of the result.
func oracleAll(c mpi.Comm, in []uint64, apply func(a, b uint64) uint64) ([]uint64, error) {
	res, err := binomialReduce(c, 0, in, apply)
	if err != nil {
		return nil, err
	}
	var buf []byte
	if c.Rank() == 0 {
		buf = wordBytes(res)
	}
	if buf, err = mpi.Bcast(c, 0, buf); err != nil {
		return nil, err
	}
	out := make([]uint64, len(buf)/8)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(buf[8*i:])
	}
	return out, nil
}

// checkTreeAgainstOracle runs, on every rank of a size-rank world, each
// operator's float64 and int64 Allreduce, and for size ≤ 17 its Reduce at
// every root, against the binomial oracle, bit for bit on every rank.
func checkTreeAgainstOracle(t *testing.T, size int) {
	w, err := simmpi.NewWorld(size)
	if err != nil {
		t.Fatal(err)
	}
	appErr, failures := w.Run(func(c *simmpi.Comm) error {
		// A mismatch is kept, not returned, so this rank still takes its
		// part in every later collective and no other rank hangs.
		var mismatch error
		fs, is := treeInputs(size, c.Rank())
		for _, op := range treeOps {
			gotF, err := mpi.AllreduceFloat64s(c, fs, op)
			if err != nil {
				return err
			}
			gotI, err := mpi.AllreduceInt64s(c, is, op)
			if err != nil {
				return err
			}
			wantF, err := oracleAll(c, floatWords(fs), floatApply(op))
			if err != nil {
				return err
			}
			wantI, err := oracleAll(c, intWords(is), intApply(op))
			if err != nil {
				return err
			}
			if mismatch == nil && (!sameWords(floatWords(gotF), wantF) || !sameWords(intWords(gotI), wantI)) {
				mismatch = fmt.Errorf("rank %d op %d: allreduce %v %v, binomial oracle %v %v",
					c.Rank(), op, floatWords(gotF), intWords(gotI), wantF, wantI)
			}
			if size > 17 {
				continue
			}
			for root := 0; root < size; root++ {
				gotF, err := mpi.ReduceFloat64s(c, root, fs, op)
				if err != nil {
					return err
				}
				gotI, err := mpi.ReduceInt64s(c, root, is, op)
				if err != nil {
					return err
				}
				wantF, err := binomialReduce(c, root, floatWords(fs), floatApply(op))
				if err != nil {
					return err
				}
				wantI, err := binomialReduce(c, root, intWords(is), intApply(op))
				if err != nil {
					return err
				}
				switch {
				case mismatch != nil:
				case c.Rank() != root && (gotF != nil || gotI != nil):
					mismatch = fmt.Errorf("rank %d: non-root reduce to %d returned %v %v", c.Rank(), root, gotF, gotI)
				case c.Rank() == root && (!sameWords(floatWords(gotF), wantF) || !sameWords(intWords(gotI), wantI)):
					mismatch = fmt.Errorf("root %d op %d: reduce %v %v, binomial oracle %v %v",
						root, op, floatWords(gotF), intWords(gotI), wantF, wantI)
				}
			}
		}
		return mismatch
	})
	if appErr != nil {
		t.Fatalf("p=%d: %v", size, appErr)
	}
	if len(failures) != 0 {
		t.Fatalf("p=%d: %v", size, failures)
	}
}

// TestTreeReduceMatchesBinomialOracle pins the radix-8 reductions to the
// binomial tree's combine order: the same bits on every rank, for every
// world size up to 300 and, up to 17 ranks, every root.
func TestTreeReduceMatchesBinomialOracle(t *testing.T) {
	for size := 1; size <= 300; size++ {
		checkTreeAgainstOracle(t, size)
	}
}
