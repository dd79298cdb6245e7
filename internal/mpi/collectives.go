package mpi

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Collective tags. Collectives must be called by all ranks in the same
// order (the standard MPI requirement); FIFO matching per (source, tag)
// then keeps back-to-back collectives of the same kind from interfering.
// Each collective owns a 64-tag window. Barrier and the reductions use
// two tags of theirs: the base for the tree's up phase (child to parent)
// and base+1 for its down phase (parent to child), so a release travels
// on a tag of its own, apart from the up-phase blocks and from Bcast.
const (
	tagBarrier  = TagCollectiveBase + 0*64
	tagBcast    = TagCollectiveBase + 1*64
	tagReduce   = TagCollectiveBase + 2*64
	tagGather   = TagCollectiveBase + 3*64
	tagScatter  = TagCollectiveBase + 4*64
	tagAlltoall = TagCollectiveBase + 5*64
)

// Tree radices. Reductions and the barrier move at most a few words per
// hop, so their cost is the hops on the critical path: radix 8 makes an
// 8-rank allreduce two hops (up, then down) where the binomial tree took
// six. A bcast hop copies its whole payload (an 8-rank allgather of
// CG-sized blocks is ≈74 KB), and under redundancy compares it replica
// against replica, so Bcast keeps the binomial tree, which spreads those
// copies over the ranks instead of serialising seven of them at the
// root.
const (
	reduceRadix = 8
	bcastRadix  = 2
)

// tree is one rank's place in the radix-k tree rooted at root, over
// ranks relabelled rel = (rank − root) mod size so the root is 0. A
// node's parent clears rel's lowest nonzero base-k digit; its children
// are rel + i·span for i = 1…k−1 at each level span = 1, k, k², … below
// that digit (every level for the root), as long as they are < size.
// Each node at level span thus heads the aligned block [rel, rel+k·span)
// of ranks. Radix 2 is the binomial tree.
type tree struct {
	c                  Comm
	size, root, rel, k int
	parent, span       int // parent's rel; span of rel's lowest nonzero digit (the root's: first power of k ≥ size)
}

func newTree(c Comm, root, k int) (tree, error) {
	size := c.Size()
	if root < 0 || root >= size {
		return tree{}, fmt.Errorf("root %d: %w", root, ErrInvalidRank)
	}
	t := tree{c: c, size: size, root: root, rel: (c.Rank() - root + size) % size, k: k, span: 1}
	for ; t.span < size; t.span *= k {
		if d := t.rel / t.span % k; d != 0 {
			t.parent = t.rel - d*t.span
			break
		}
	}
	return t, nil
}

// rank maps a relative rank back to a rank of c.
func (t tree) rank(rel int) int { return (rel + t.root) % t.size }

// up is the tree's up phase. At each level below its own, a rank takes
// its children's blocks of that level (messages on tag) and folds them
// into acc; then every rank but the root sends acc to its parent. The
// barrier's acc and tokens are empty, so its folds do nothing.
func up[T word](t tree, tag int, acc []byte, wc wordCodec[T], op ReduceOp) error {
	var blocks [reduceRadix - 1]Message
	for span := 1; span < t.span; span *= t.k {
		n := 0
		for i := 1; i < t.k && t.rel+i*span < t.size; i++ {
			msg, err := t.c.Recv(t.rank(t.rel+i*span), tag)
			if err != nil {
				releaseAll(blocks[:n])
				return fmt.Errorf("recv from %d: %w", t.rank(t.rel+i*span), err)
			}
			blocks[n] = msg
			n++
		}
		err := wc.fold(acc, blocks[:n], op)
		releaseAll(blocks[:n])
		if err != nil {
			return err
		}
	}
	if t.rel == 0 {
		return nil
	}
	if err := t.c.Send(t.rank(t.parent), tag, acc); err != nil {
		return fmt.Errorf("send: %w", err)
	}
	return nil
}

// down is the tree's down phase: a non-root rank receives the payload
// from its parent, then every rank forwards it to its children, top
// level first. It returns the received message (the zero Message at the
// root, whose payload is data), which the caller releases.
func (t tree) down(tag int, data []byte) (Message, error) {
	var msg Message
	if t.rel != 0 {
		m, err := t.c.Recv(t.rank(t.parent), tag)
		if err != nil {
			return Message{}, fmt.Errorf("recv: %w", err)
		}
		msg, data = m, m.Data
	}
	for span := t.span / t.k; span >= 1; span /= t.k {
		for i := 1; i < t.k && t.rel+i*span < t.size; i++ {
			if err := t.c.Send(t.rank(t.rel+i*span), tag, data); err != nil {
				msg.Release()
				return Message{}, fmt.Errorf("send: %w", err)
			}
		}
	}
	return msg, nil
}

func releaseAll(msgs []Message) {
	for i := range msgs {
		msgs[i].Release()
	}
}

// Barrier blocks until every rank has entered the barrier. It is the
// allreduce of an empty vector: empty tokens go up the radix-8 tree to
// rank 0 and its release comes back down, 2(p−1) messages in all, and 2
// hops for up to 8 ranks.
func Barrier(c Comm) error {
	if _, err := reduce[int64](c, 0, tagBarrier, nil, OpSum, int64Words, true); err != nil {
		return fmt.Errorf("barrier: %w", err)
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
	t, err := newTree(c, root, bcastRadix)
	if err != nil {
		return Message{}, fmt.Errorf("bcast: %w", err)
	}
	msg, err := t.down(tagBcast, data)
	if err != nil {
		return Message{}, fmt.Errorf("bcast %w", err)
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

// word is an element type of the reductions.
type word interface{ float64 | int64 }

// wordCodec is how one element type meets the wire: one little-endian
// 8-byte word per element, and the reduction operators on values.
type wordCodec[T word] struct {
	bits  func(T) uint64
	value func(uint64) T
	apply func(ReduceOp, T, T) T
}

var (
	float64Words = wordCodec[float64]{math.Float64bits, math.Float64frombits, ReduceOp.applyFloat64}
	int64Words   = wordCodec[int64]{
		func(x int64) uint64 { return uint64(x) },
		func(u uint64) int64 { return int64(u) },
		ReduceOp.applyInt64,
	}
)

// encode writes xs into buf, which must hold exactly 8*len(xs) bytes.
func (wc wordCodec[T]) encode(buf []byte, xs []T) {
	for i, x := range xs {
		binary.LittleEndian.PutUint64(buf[8*i:], wc.bits(x))
	}
}

// decode returns the vector buf encodes, in a slice of its own.
func (wc wordCodec[T]) decode(buf []byte) ([]T, error) {
	if len(buf)%8 != 0 {
		return nil, fmt.Errorf("mpi: payload of %d bytes is not a vector of 8-byte words", len(buf))
	}
	xs := make([]T, len(buf)/8)
	for i := range xs {
		xs[i] = wc.value(binary.LittleEndian.Uint64(buf[8*i:]))
	}
	return xs, nil
}

// fold combines one tree level into acc, elementwise and in place. acc
// holds this rank's block B0 and blocks[i] the block B(i+1) of the child
// i+1 spans further on; they are combined pairwise,
// ((B0+B1)+(B2+B3))+((B4+B5)+(B6+B7)), dropping absent blocks, which is
// the order in which the binomial tree combines the same ranks. So the
// result is the binomial reduce's bit for bit, whatever the radix.
func (wc wordCodec[T]) fold(acc []byte, blocks []Message, op ReduceOp) error {
	for _, b := range blocks {
		if len(b.Data) != len(acc) {
			return fmt.Errorf("reduce: payload of %d bytes for %d elements", len(b.Data), len(acc)/8)
		}
	}
	n := 1 + len(blocks)
	var v [reduceRadix]T
	for off := 0; off < len(acc); off += 8 {
		v[0] = wc.value(binary.LittleEndian.Uint64(acc[off:]))
		for i, b := range blocks {
			v[i+1] = wc.value(binary.LittleEndian.Uint64(b.Data[off:]))
		}
		for s := 1; s < n; s *= 2 {
			for i := 0; i+s < n; i += 2 * s {
				v[i] = wc.apply(op, v[i], v[i+s])
			}
		}
		binary.LittleEndian.PutUint64(acc[off:], wc.bits(v[0]))
	}
	return nil
}

// reduce is every reduction: in goes up the radix-8 tree rooted at
// root on tag, each hop combining into the encoded accumulator in place
// and sending it on as is, so the vector is encoded once on entry and
// decoded once on exit. With all set the root's result comes back down
// the same tree on tag+1 and every rank returns it; otherwise root
// returns it and the others nil. The accumulator is arena scratch, free
// again once the copying sends have returned; an empty vector (the
// barrier's) sends nil tokens and touches no buffer.
func reduce[T word](c Comm, root, tag int, in []T, op ReduceOp, wc wordCodec[T], all bool) ([]T, error) {
	t, err := newTree(c, root, reduceRadix)
	if err != nil {
		return nil, fmt.Errorf("reduce: %w", err)
	}
	var acc []byte
	if len(in) > 0 {
		var pb *PooledBuf
		acc, pb = sharedArena.Acquire(8 * len(in))
		defer pb.Release()
		wc.encode(acc, in)
	}
	if err := up(t, tag, acc, wc, op); err != nil {
		return nil, fmt.Errorf("reduce up: %w", err)
	}
	if !all {
		if t.rel != 0 {
			return nil, nil
		}
		return wc.decode(acc)
	}
	msg, err := t.down(tag+1, acc)
	if err != nil {
		return nil, fmt.Errorf("reduce down: %w", err)
	}
	defer msg.Release()
	if t.rel != 0 {
		acc = msg.Data
	}
	return wc.decode(acc)
}

// The four exported reductions are marked go:noinline: inlined into a
// caller in another package, their call of the generic reduce loses its
// escape information there, and the caller's input slice (typically a
// one-element literal per CG dot product) would move to the heap on
// every call.

// ReduceFloat64s reduces equal-length vectors elementwise onto root.
// Root returns the reduced vector; others return nil. The result is
// bit-identical to a binomial-tree reduce (see wordCodec.fold).
//
//go:noinline
func ReduceFloat64s(c Comm, root int, in []float64, op ReduceOp) ([]float64, error) {
	return reduce(c, root, tagReduce, in, op, float64Words, false)
}

// AllreduceFloat64s reduces elementwise onto rank 0 and returns the
// result on every rank, the same bits everywhere.
//
//go:noinline
func AllreduceFloat64s(c Comm, in []float64, op ReduceOp) ([]float64, error) {
	return reduce(c, 0, tagReduce, in, op, float64Words, true)
}

// ReduceInt64s is ReduceFloat64s for int64 vectors.
//
//go:noinline
func ReduceInt64s(c Comm, root int, in []int64, op ReduceOp) ([]int64, error) {
	return reduce(c, root, tagReduce, in, op, int64Words, false)
}

// AllreduceInt64s is AllreduceFloat64s for int64 vectors.
//
//go:noinline
func AllreduceInt64s(c Comm, in []int64, op ReduceOp) ([]int64, error) {
	return reduce(c, 0, tagReduce, in, op, int64Words, true)
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
