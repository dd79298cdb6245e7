package mpi

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Collective tags. Collectives must be called by all ranks in the same
// order (the standard MPI requirement); FIFO matching per (source, tag)
// then keeps back-to-back collectives of the same kind from interfering.
// Each collective gets a 64-tag window so multi-round algorithms
// (the dissemination barrier uses tag base+round) cannot collide with a
// neighbouring collective's tag.
const (
	tagBarrier  = TagCollectiveBase + 0*64
	tagBcast    = TagCollectiveBase + 1*64
	tagReduce   = TagCollectiveBase + 2*64
	tagGather   = TagCollectiveBase + 3*64
	tagScatter  = TagCollectiveBase + 4*64
	tagAlltoall = TagCollectiveBase + 5*64
)

// Barrier blocks until every rank has entered the barrier, using the
// dissemination algorithm (⌈log2 p⌉ rounds, no root bottleneck).
func Barrier(c Comm) error {
	size := c.Size()
	rank := c.Rank()
	for k := 0; 1<<k < size; k++ {
		dist := 1 << k
		dst := (rank + dist) % size
		src := (rank - dist + size) % size
		if err := c.Send(dst, tagBarrier+k, nil); err != nil {
			return fmt.Errorf("barrier round %d: %w", k, err)
		}
		msg, err := c.Recv(src, tagBarrier+k)
		if err != nil {
			return fmt.Errorf("barrier round %d: %w", k, err)
		}
		msg.Release() // round tokens are empty; recycle immediately
	}
	return nil
}

// Bcast distributes root's data to every rank along a binomial tree and
// returns the received copy (root returns data unchanged). The copy a
// non-root rank returns is its own; its transport buffer goes to the GC.
func Bcast(c Comm, root int, data []byte) ([]byte, error) {
	msg, err := bcast(c, root, data)
	if err != nil {
		return nil, err
	}
	if c.Rank() == root {
		return data, nil
	}
	return msg.Data, nil
}

// bcast is Bcast returning the received message itself, so collectives
// that decode the payload and drop it can Release the transport buffer
// back to the arena. Root (and a one-rank world) receives nothing and
// gets a zero Message; its payload is the data it passed in.
func bcast(c Comm, root int, data []byte) (Message, error) {
	size := c.Size()
	rank := c.Rank()
	if root < 0 || root >= size {
		return Message{}, fmt.Errorf("bcast root %d: %w", root, ErrInvalidRank)
	}
	var msg Message
	relative := (rank - root + size) % size
	mask := 1
	for mask < size {
		if relative&mask != 0 {
			src := (relative - mask + root) % size
			m, err := c.Recv(src, tagBcast)
			if err != nil {
				return Message{}, fmt.Errorf("bcast recv: %w", err)
			}
			msg, data = m, m.Data
			break
		}
		mask <<= 1
	}
	mask >>= 1
	for mask > 0 {
		if relative+mask < size {
			dst := (relative + mask + root) % size
			if err := c.Send(dst, tagBcast, data); err != nil {
				msg.Release()
				return Message{}, fmt.Errorf("bcast send: %w", err)
			}
		}
		mask >>= 1
	}
	return msg, nil
}

// Gather collects each rank's data at root. Root receives a slice indexed
// by rank (its own entry aliasing data); other ranks return nil.
func Gather(c Comm, root int, data []byte) ([][]byte, error) {
	size := c.Size()
	rank := c.Rank()
	if root < 0 || root >= size {
		return nil, fmt.Errorf("gather root %d: %w", root, ErrInvalidRank)
	}
	if rank != root {
		if err := c.Send(root, tagGather, data); err != nil {
			return nil, fmt.Errorf("gather send: %w", err)
		}
		return nil, nil
	}
	out := make([][]byte, size)
	out[root] = data
	for i := 0; i < size; i++ {
		if i == root {
			continue
		}
		msg, err := c.Recv(i, tagGather)
		if err != nil {
			return nil, fmt.Errorf("gather recv from %d: %w", i, err)
		}
		out[i] = msg.Data
	}
	return out, nil
}

// Allgather collects every rank's data at every rank, as a gather to
// rank 0 followed by a broadcast of the packed parts, and hands the parts
// (indexed by rank) to fn; fn's error is returned.
//
// The parts alias transport buffers that are released the moment fn
// returns: fn decodes what it needs and must not retain any part. In
// exchange the collective is zero-copy past the transport boundary —
// the gather and bcast buffers go back to the arena instead of the GC,
// and the packed payload root builds comes from the arena too.
func Allgather(c Comm, data []byte, fn func(parts [][]byte) error) error {
	size := c.Size()
	var packed []byte
	if c.Rank() == 0 {
		var pb *PooledBuf
		var err error
		if packed, pb, err = gatherPacked(c, data); err != nil {
			return err
		}
		defer pb.Release()
	} else if err := c.Send(0, tagGather, data); err != nil {
		return fmt.Errorf("gather send: %w", err)
	}
	msg, err := bcast(c, 0, packed)
	if err != nil {
		return err
	}
	defer msg.Release()
	if c.Rank() != 0 {
		packed = msg.Data
	}
	parts, err := unpackParts(packed, size)
	if err != nil {
		return err
	}
	return fn(parts)
}

// gatherPacked is Allgather's root half of the gather: it receives every
// rank's part and packs them (its own data at index 0) into one buffer
// from the shared arena (transports copy at Send, so the buffer is free
// again once Allgather's callback returns), releasing each received
// message as soon as its bytes are packed. The caller releases pb (nil for a payload
// beyond the arena's largest class).
func gatherPacked(c Comm, data []byte) ([]byte, *PooledBuf, error) {
	size := c.Size()
	msgs := make([]Message, size)
	defer func() {
		for i := range msgs {
			msgs[i].Release()
		}
	}()
	parts := make([][]byte, size)
	parts[0] = data
	for i := 1; i < size; i++ {
		msg, err := c.Recv(i, tagGather)
		if err != nil {
			return nil, nil, fmt.Errorf("gather recv from %d: %w", i, err)
		}
		msgs[i], parts[i] = msg, msg.Data
	}
	buf, pb := sharedArena.Acquire(packedLen(parts))
	packPartsInto(buf, parts)
	return buf, pb, nil
}

// Scatter distributes parts[i] from root to rank i and returns this
// rank's part. Only root's parts argument is consulted.
func Scatter(c Comm, root int, parts [][]byte) ([]byte, error) {
	size := c.Size()
	rank := c.Rank()
	if root < 0 || root >= size {
		return nil, fmt.Errorf("scatter root %d: %w", root, ErrInvalidRank)
	}
	if rank == root {
		if len(parts) != size {
			return nil, fmt.Errorf("scatter: %d parts for %d ranks", len(parts), size)
		}
		for i, p := range parts {
			if i == root {
				continue
			}
			if err := c.Send(i, tagScatter, p); err != nil {
				return nil, fmt.Errorf("scatter send to %d: %w", i, err)
			}
		}
		return parts[root], nil
	}
	msg, err := c.Recv(root, tagScatter)
	if err != nil {
		return nil, fmt.Errorf("scatter recv: %w", err)
	}
	return msg.Data, nil
}

// Alltoall performs a personalized all-to-all exchange: rank i receives
// parts[i] from every rank j, returned indexed by source rank.
func Alltoall(c Comm, parts [][]byte) ([][]byte, error) {
	size := c.Size()
	rank := c.Rank()
	if len(parts) != size {
		return nil, fmt.Errorf("alltoall: %d parts for %d ranks", len(parts), size)
	}
	out := make([][]byte, size)
	out[rank] = parts[rank]
	// Eager sends complete immediately, so send everything then receive.
	for i := 0; i < size; i++ {
		if i == rank {
			continue
		}
		if err := c.Send(i, tagAlltoall, parts[i]); err != nil {
			return nil, fmt.Errorf("alltoall send to %d: %w", i, err)
		}
	}
	for i := 0; i < size; i++ {
		if i == rank {
			continue
		}
		msg, err := c.Recv(i, tagAlltoall)
		if err != nil {
			return nil, fmt.Errorf("alltoall recv from %d: %w", i, err)
		}
		out[i] = msg.Data
	}
	return out, nil
}

// ReduceOp is a built-in elementwise reduction operator.
type ReduceOp int

// Supported reduction operators.
const (
	OpSum ReduceOp = iota + 1
	OpMax
	OpMin
	OpProd
)

func (op ReduceOp) applyFloat64(a, b float64) float64 {
	switch op {
	case OpMax:
		return math.Max(a, b)
	case OpMin:
		return math.Min(a, b)
	case OpProd:
		return a * b
	default:
		return a + b
	}
}

func (op ReduceOp) applyInt64(a, b int64) int64 {
	switch op {
	case OpMax:
		if a > b {
			return a
		}
		return b
	case OpMin:
		if a < b {
			return a
		}
		return b
	case OpProd:
		return a * b
	default:
		return a + b
	}
}

// ReduceFloat64s reduces equal-length vectors elementwise onto root along
// a binomial tree. Root returns the reduced vector; others return nil.
// The accumulator stays numeric end to end: each received payload is
// combined elementwise straight out of the wire buffer (released back to
// the arena afterwards), and the single encode happens only when this
// rank forwards its accumulation upward, into an arena scratch buffer
// that goes back to the arena once the (copying) send returns.
func ReduceFloat64s(c Comm, root int, in []float64, op ReduceOp) ([]float64, error) {
	size := c.Size()
	rank := c.Rank()
	if root < 0 || root >= size {
		return nil, fmt.Errorf("reduce root %d: %w", root, ErrInvalidRank)
	}
	acc := append([]float64(nil), in...)
	relative := (rank - root + size) % size
	for mask := 1; mask < size; mask <<= 1 {
		if relative&mask != 0 {
			dst := (relative - mask + root) % size
			scratch, pb := sharedArena.Acquire(8 * len(acc))
			encodeFloat64sInto(scratch, acc)
			err := c.Send(dst, tagReduce, scratch)
			pb.Release()
			if err != nil {
				return nil, fmt.Errorf("reduce send: %w", err)
			}
			return nil, nil
		}
		if relative+mask < size {
			src := (relative + mask + root) % size
			msg, err := c.Recv(src, tagReduce)
			if err != nil {
				return nil, fmt.Errorf("reduce recv from %d: %w", src, err)
			}
			err = combineFloat64s(acc, msg.Data, op)
			msg.Release()
			if err != nil {
				return nil, err
			}
		}
	}
	return acc, nil
}

// AllreduceRDFloat64s is a recursive-doubling allreduce: log2(p) rounds
// of pairwise exchange-and-combine, the latency-optimal algorithm real
// MPI implementations use for short vectors. For non-power-of-two sizes
// the excess ranks fold into partners first and receive the result last.
// Note: unlike the tree-based AllreduceFloat64s, the combine order
// differs per rank, so results are only bit-identical across ranks for
// exactly associative operators (min/max, or sums of exactly
// representable values); CG uses the tree form for bit determinism.
// Every round encodes the accumulator into one reused scratch buffer
// (sends are eager and copy at the transport boundary, so the scratch
// may be overwritten the moment Send returns) and combines straight out
// of the received wire buffer before releasing it — the log2(p) rounds
// allocate nothing beyond the accumulator and scratch.
func AllreduceRDFloat64s(c Comm, in []float64, op ReduceOp) ([]float64, error) {
	size := c.Size()
	rank := c.Rank()
	acc := append([]float64(nil), in...)
	scratch := make([]byte, 8*len(acc))

	// Largest power of two ≤ size.
	pow2 := 1
	for pow2*2 <= size {
		pow2 *= 2
	}
	rem := size - pow2

	// Fold-in phase: ranks [pow2, size) send their vectors to
	// rank - pow2 and sit out the doubling rounds.
	const tagRD = TagCollectiveBase + 6*64
	switch {
	case rank >= pow2:
		encodeFloat64sInto(scratch, acc)
		if err := c.Send(rank-pow2, tagRD, scratch); err != nil {
			return nil, err
		}
	case rank < rem:
		msg, err := c.Recv(rank+pow2, tagRD)
		if err != nil {
			return nil, err
		}
		err = combineFloat64s(acc, msg.Data, op)
		msg.Release()
		if err != nil {
			return nil, err
		}
	}

	if rank < pow2 {
		for mask := 1; mask < pow2; mask <<= 1 {
			partner := rank ^ mask
			encodeFloat64sInto(scratch, acc)
			if err := c.Send(partner, tagRD+1, scratch); err != nil {
				return nil, err
			}
			msg, err := c.Recv(partner, tagRD+1)
			if err != nil {
				return nil, err
			}
			err = combineFloat64s(acc, msg.Data, op)
			msg.Release()
			if err != nil {
				return nil, err
			}
		}
	}

	// Fold-out phase: deliver the result to the excess ranks.
	switch {
	case rank < rem:
		encodeFloat64sInto(scratch, acc)
		if err := c.Send(rank+pow2, tagRD+2, scratch); err != nil {
			return nil, err
		}
	case rank >= pow2:
		msg, err := c.Recv(rank-pow2, tagRD+2)
		if err != nil {
			return nil, err
		}
		if len(msg.Data) != 8*len(acc) {
			return nil, fmt.Errorf("allreduce-rd: result payload of %d bytes for %d elements",
				len(msg.Data), len(acc))
		}
		for i := range acc {
			acc[i] = math.Float64frombits(binary.LittleEndian.Uint64(msg.Data[8*i:]))
		}
		msg.Release()
	}
	return acc, nil
}

// AllreduceFloat64s reduces elementwise and distributes the result to all
// ranks (reduce to rank 0, then broadcast). Rank 0 returns its reduced
// vector; the others decode theirs out of the bcast message and release
// it back to the arena.
func AllreduceFloat64s(c Comm, in []float64, op ReduceOp) ([]float64, error) {
	reduced, err := ReduceFloat64s(c, 0, in, op)
	if err != nil {
		return nil, err
	}
	var scratch []byte
	var pb *PooledBuf
	if c.Rank() == 0 {
		scratch, pb = sharedArena.Acquire(8 * len(reduced))
		encodeFloat64sInto(scratch, reduced)
	}
	msg, err := bcast(c, 0, scratch)
	pb.Release()
	if err != nil {
		return nil, err
	}
	if c.Rank() == 0 {
		return reduced, nil
	}
	defer msg.Release()
	return decodeFloat64s(msg.Data)
}

// ReduceInt64s reduces equal-length int64 vectors elementwise onto root,
// combining in place out of the wire buffers like ReduceFloat64s.
func ReduceInt64s(c Comm, root int, in []int64, op ReduceOp) ([]int64, error) {
	size := c.Size()
	rank := c.Rank()
	if root < 0 || root >= size {
		return nil, fmt.Errorf("reduce root %d: %w", root, ErrInvalidRank)
	}
	acc := append([]int64(nil), in...)
	relative := (rank - root + size) % size
	for mask := 1; mask < size; mask <<= 1 {
		if relative&mask != 0 {
			dst := (relative - mask + root) % size
			scratch, pb := sharedArena.Acquire(8 * len(acc))
			encodeInt64sInto(scratch, acc)
			err := c.Send(dst, tagReduce, scratch)
			pb.Release()
			if err != nil {
				return nil, fmt.Errorf("reduce send: %w", err)
			}
			return nil, nil
		}
		if relative+mask < size {
			src := (relative + mask + root) % size
			msg, err := c.Recv(src, tagReduce)
			if err != nil {
				return nil, fmt.Errorf("reduce recv from %d: %w", src, err)
			}
			err = combineInt64s(acc, msg.Data, op)
			msg.Release()
			if err != nil {
				return nil, err
			}
		}
	}
	return acc, nil
}

// AllreduceInt64s reduces elementwise and distributes the result to all,
// releasing the bcast message like AllreduceFloat64s.
func AllreduceInt64s(c Comm, in []int64, op ReduceOp) ([]int64, error) {
	reduced, err := ReduceInt64s(c, 0, in, op)
	if err != nil {
		return nil, err
	}
	var scratch []byte
	var pb *PooledBuf
	if c.Rank() == 0 {
		scratch, pb = sharedArena.Acquire(8 * len(reduced))
		encodeInt64sInto(scratch, reduced)
	}
	msg, err := bcast(c, 0, scratch)
	pb.Release()
	if err != nil {
		return nil, err
	}
	if c.Rank() == 0 {
		return reduced, nil
	}
	defer msg.Release()
	return decodeInt64s(msg.Data)
}

func encodeFloat64s(xs []float64) []byte {
	buf := make([]byte, 8*len(xs))
	encodeFloat64sInto(buf, xs)
	return buf
}

// encodeFloat64sInto serialises xs into the caller-provided buffer
// (which must hold exactly 8*len(xs) bytes), letting multi-round
// algorithms reuse one scratch buffer instead of allocating per round.
func encodeFloat64sInto(buf []byte, xs []float64) {
	for i, x := range xs {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(x))
	}
}

// combineFloat64s folds an encoded float64 vector into acc elementwise,
// reading straight from the wire buffer without an intermediate slice.
func combineFloat64s(acc []float64, buf []byte, op ReduceOp) error {
	if len(buf) != 8*len(acc) {
		return fmt.Errorf("reduce: payload of %d bytes for %d elements", len(buf), len(acc))
	}
	for i := range acc {
		acc[i] = op.applyFloat64(acc[i], math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:])))
	}
	return nil
}

// combineInt64s is combineFloat64s for int64 vectors.
func combineInt64s(acc []int64, buf []byte, op ReduceOp) error {
	if len(buf) != 8*len(acc) {
		return fmt.Errorf("reduce: payload of %d bytes for %d elements", len(buf), len(acc))
	}
	for i := range acc {
		acc[i] = op.applyInt64(acc[i], int64(binary.LittleEndian.Uint64(buf[8*i:])))
	}
	return nil
}

func decodeFloat64s(buf []byte) ([]float64, error) {
	if len(buf)%8 != 0 {
		return nil, fmt.Errorf("mpi: float64 payload of %d bytes", len(buf))
	}
	xs := make([]float64, len(buf)/8)
	for i := range xs {
		xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
	}
	return xs, nil
}

func encodeInt64s(xs []int64) []byte {
	buf := make([]byte, 8*len(xs))
	encodeInt64sInto(buf, xs)
	return buf
}

// encodeInt64sInto is encodeFloat64sInto for int64 vectors.
func encodeInt64sInto(buf []byte, xs []int64) {
	for i, x := range xs {
		binary.LittleEndian.PutUint64(buf[8*i:], uint64(x))
	}
}

func decodeInt64s(buf []byte) ([]int64, error) {
	if len(buf)%8 != 0 {
		return nil, fmt.Errorf("mpi: int64 payload of %d bytes", len(buf))
	}
	xs := make([]int64, len(buf)/8)
	for i := range xs {
		xs[i] = int64(binary.LittleEndian.Uint64(buf[8*i:]))
	}
	return xs, nil
}

// packParts length-prefixes a slice of byte slices into one payload.
func packParts(parts [][]byte) []byte {
	buf := make([]byte, packedLen(parts))
	packPartsInto(buf, parts)
	return buf
}

// packedLen is the size of parts' packed encoding.
func packedLen(parts [][]byte) int {
	total := 4
	for _, p := range parts {
		total += 4 + len(p)
	}
	return total
}

// packPartsInto writes parts' packed encoding into buf, which must hold
// exactly packedLen(parts) bytes.
func packPartsInto(buf []byte, parts [][]byte) {
	binary.LittleEndian.PutUint32(buf, uint32(len(parts)))
	off := 4
	for _, p := range parts {
		binary.LittleEndian.PutUint32(buf[off:], uint32(len(p)))
		off += 4 + copy(buf[off+4:], p)
	}
}

// unpackParts reverses packParts, checking the count against want.
func unpackParts(buf []byte, want int) ([][]byte, error) {
	if len(buf) < 4 {
		return nil, fmt.Errorf("mpi: truncated packed parts (%d bytes)", len(buf))
	}
	n := int(binary.LittleEndian.Uint32(buf))
	if n != want {
		return nil, fmt.Errorf("mpi: packed %d parts, want %d", n, want)
	}
	buf = buf[4:]
	out := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		if len(buf) < 4 {
			return nil, fmt.Errorf("mpi: truncated part header at %d", i)
		}
		ln := int(binary.LittleEndian.Uint32(buf))
		buf = buf[4:]
		if len(buf) < ln {
			return nil, fmt.Errorf("mpi: truncated part %d: have %d, want %d", i, len(buf), ln)
		}
		out = append(out, buf[:ln:ln])
		buf = buf[ln:]
	}
	if len(buf) != 0 {
		// Strict framing: every byte must be accounted for. Trailing
		// garbage means a corrupt or forged payload, and accepting it
		// would make the encoding ambiguous (two wire images, one part
		// list).
		return nil, fmt.Errorf("mpi: %d trailing bytes after %d packed parts", len(buf), n)
	}
	return out, nil
}
