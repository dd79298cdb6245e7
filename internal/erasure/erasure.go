// Package erasure implements systematic Reed-Solomon coding over
// GF(2^8) for the peer checkpoint tier: a snapshot is split into k data
// shards and extended with m parity shards, and the original bytes can
// be reconstructed from any k of the k+m shards. The codec is pure Go
// (log/exp tables plus a 64 KiB per-coefficient product table), so it
// adds no dependencies and no cgo.
//
// The encoding matrix is a Vandermonde matrix normalised so its top k
// rows are the identity (systematic form: data shards are plain slices
// of the input). Any k rows of the normalised matrix remain invertible,
// which is exactly the "any m losses survive" property the peer store's
// shard placement relies on.
package erasure

import (
	"errors"
	"fmt"
)

// polynomial is the primitive polynomial x^8+x^4+x^3+x^2+1 (0x11d)
// generating GF(2^8), the conventional choice for Reed-Solomon codes.
const polynomial = 0x11d

// MaxShards bounds k+m: the Vandermonde evaluation points are the
// distinct powers α^0..α^254 of the field generator.
const MaxShards = 255

var (
	logTable [256]byte
	expTable [510]byte // doubled so gfMulSlow needs no mod 255
	// mulTable[c] is the multiply-by-c table the hot encode loop walks;
	// 64 KiB total, built once at package init.
	mulTable [256][256]byte
)

func init() {
	x := 1
	for i := 0; i < 255; i++ {
		expTable[i] = byte(x)
		expTable[i+255] = byte(x)
		logTable[x] = byte(i)
		x <<= 1
		if x&0x100 != 0 {
			x ^= polynomial
		}
	}
	for c := 1; c < 256; c++ {
		lc := int(logTable[c])
		for a := 1; a < 256; a++ {
			mulTable[c][a] = expTable[lc+int(logTable[a])]
		}
	}
}

func gfMul(a, b byte) byte { return mulTable[a][b] }

func gfInv(a byte) byte {
	if a == 0 {
		panic("erasure: inverse of zero")
	}
	return expTable[255-int(logTable[a])]
}

// addMul computes dst[i] ^= c*src[i] — the inner loop of both encoding
// and reconstruction.
func addMul(dst, src []byte, c byte) {
	if c == 0 {
		return
	}
	mt := &mulTable[c]
	_ = dst[len(src)-1]
	for i, s := range src {
		dst[i] ^= mt[s]
	}
}

// mulInto computes dst[i] = c*src[i].
func mulInto(dst, src []byte, c byte) {
	if c == 1 {
		copy(dst, src)
		return
	}
	mt := &mulTable[c]
	_ = dst[len(src)-1]
	for i, s := range src {
		dst[i] = mt[s]
	}
}

// Codec encodes k data shards into m additional parity shards and
// reconstructs the original data from any k survivors. Codecs are
// immutable and safe for concurrent use.
type Codec struct {
	k, m int
	// rows is the full (k+m) x k systematic encoding matrix; rows[0..k-1]
	// are the identity, rows[k..] generate the parity shards.
	rows [][]byte
}

// New builds a codec with k data and m parity shards.
func New(k, m int) (*Codec, error) {
	if k < 1 || m < 1 || k+m > MaxShards {
		return nil, fmt.Errorf("erasure: bad shard counts k=%d m=%d (need k,m >= 1, k+m <= %d)", k, m, MaxShards)
	}
	n := k + m
	// Vandermonde: V[i][j] = α^(i·j), evaluation points α^0..α^(n-1).
	v := make([][]byte, n)
	for i := range v {
		v[i] = make([]byte, k)
		for j := 0; j < k; j++ {
			v[i][j] = expTable[(i*j)%255]
		}
	}
	// Normalise: M = V · inv(top k rows), making the top identity while
	// preserving the any-k-rows-invertible property.
	top := make([][]byte, k)
	for i := range top {
		top[i] = append([]byte(nil), v[i]...)
	}
	inv, err := invertMatrix(top)
	if err != nil {
		return nil, fmt.Errorf("erasure: degenerate vandermonde: %w", err)
	}
	rows := make([][]byte, n)
	for i := 0; i < n; i++ {
		rows[i] = make([]byte, k)
		for j := 0; j < k; j++ {
			var acc byte
			for t := 0; t < k; t++ {
				acc ^= gfMul(v[i][t], inv[t][j])
			}
			rows[i][j] = acc
		}
	}
	return &Codec{k: k, m: m, rows: rows}, nil
}

// DataShards returns k.
func (c *Codec) DataShards() int { return c.k }

// ParityShards returns m.
func (c *Codec) ParityShards() int { return c.m }

// TotalShards returns k+m.
func (c *Codec) TotalShards() int { return c.k + c.m }

// ShardLen returns the per-shard length for an input of size bytes
// split into k data shards (the last data shard is zero-padded).
func ShardLen(k, size int) int {
	if size <= 0 {
		return 0
	}
	return (size + k - 1) / k
}

// Encode splits data into k data shards and computes m parity shards,
// all of length ShardLen(k, len(data)). scratch, when non-nil, supplies
// reusable backing: shard i aliases scratch[i] whenever cap(scratch[i])
// suffices, so a caller slicing k+m views out of one pooled buffer
// encodes with zero allocations. The returned slice has k+m entries
// (it is scratch itself when scratch has exactly k+m entries).
func (c *Codec) Encode(data []byte, scratch [][]byte) [][]byte {
	n := c.k + c.m
	sl := ShardLen(c.k, len(data))
	shards := scratch
	if len(shards) != n {
		shards = make([][]byte, n)
		copy(shards, scratch)
	}
	for i := range shards {
		if cap(shards[i]) >= sl {
			shards[i] = shards[i][:sl]
		} else {
			shards[i] = make([]byte, sl)
		}
	}
	if sl == 0 {
		return shards
	}
	// Data shards: plain slices of the input, last one zero-padded.
	for i := 0; i < c.k; i++ {
		lo := i * sl
		hi := lo + sl
		if hi > len(data) {
			hi = len(data)
		}
		var got int
		if lo < hi {
			got = copy(shards[i], data[lo:hi])
		}
		for j := got; j < sl; j++ {
			shards[i][j] = 0
		}
	}
	c.EncodeParity(shards)
	return shards
}

// EncodeParity fills the m parity shards shards[k:] from the k data
// shards shards[:k]. All k+m shards must have the same length; the data
// shards may alias the caller's buffer, so a caller whose data shards
// are plain slices of its input encodes without copying them.
func (c *Codec) EncodeParity(shards [][]byte) {
	if len(shards[0]) == 0 {
		return
	}
	for r := 0; r < c.m; r++ {
		row := c.rows[c.k+r]
		out := shards[c.k+r]
		mulInto(out, shards[0], row[0])
		for j := 1; j < c.k; j++ {
			addMul(out, shards[j], row[j])
		}
	}
}

// ErrTooFewShards reports that fewer than k shards survived.
var ErrTooFewShards = errors.New("erasure: fewer than k shards present")

// Reconstruct recovers the original data (of length size) from any k
// present shards. shards must have k+m entries in shard-index order
// with nil marking a missing shard; present shards must all have length
// ShardLen(k, size). The input slice is not modified.
func (c *Codec) Reconstruct(shards [][]byte, size int) ([]byte, error) {
	n := c.k + c.m
	if len(shards) != n {
		return nil, fmt.Errorf("erasure: got %d shards, want %d", len(shards), n)
	}
	sl := ShardLen(c.k, size)
	if sl == 0 {
		return []byte{}, nil
	}
	out := make([]byte, c.k*sl)
	// Fast path: all data shards survived.
	allData := true
	for i := 0; i < c.k; i++ {
		if shards[i] == nil {
			allData = false
			break
		}
	}
	if allData {
		for i := 0; i < c.k; i++ {
			if len(shards[i]) != sl {
				return nil, fmt.Errorf("erasure: shard %d has %d bytes, want %d", i, len(shards[i]), sl)
			}
			copy(out[i*sl:], shards[i])
		}
		return out[:size], nil
	}
	// General path: gather the first k surviving rows, invert the k×k
	// submatrix they span, and multiply it into the survivors.
	rows := make([][]byte, 0, c.k)
	data := make([][]byte, 0, c.k)
	for i := 0; i < n && len(rows) < c.k; i++ {
		if shards[i] == nil {
			continue
		}
		if len(shards[i]) != sl {
			return nil, fmt.Errorf("erasure: shard %d has %d bytes, want %d", i, len(shards[i]), sl)
		}
		rows = append(rows, append([]byte(nil), c.rows[i]...))
		data = append(data, shards[i])
	}
	if len(rows) < c.k {
		return nil, fmt.Errorf("erasure: %d of %d shards present: %w", len(rows), n, ErrTooFewShards)
	}
	dec, err := invertMatrix(rows)
	if err != nil {
		return nil, fmt.Errorf("erasure: singular decode matrix: %w", err)
	}
	for i := 0; i < c.k; i++ {
		seg := out[i*sl : (i+1)*sl]
		mulInto(seg, data[0], dec[i][0])
		for j := 1; j < c.k; j++ {
			addMul(seg, data[j], dec[i][j])
		}
	}
	return out[:size], nil
}

// invertMatrix inverts a square matrix over GF(2^8) by Gauss-Jordan
// elimination with partial pivoting. The input rows are consumed as the
// working area.
func invertMatrix(mat [][]byte) ([][]byte, error) {
	k := len(mat)
	inv := make([][]byte, k)
	for i := range inv {
		if len(mat[i]) != k {
			return nil, fmt.Errorf("row %d has %d columns, want %d", i, len(mat[i]), k)
		}
		inv[i] = make([]byte, k)
		inv[i][i] = 1
	}
	for col := 0; col < k; col++ {
		pivot := -1
		for r := col; r < k; r++ {
			if mat[r][col] != 0 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			return nil, fmt.Errorf("no pivot in column %d", col)
		}
		mat[col], mat[pivot] = mat[pivot], mat[col]
		inv[col], inv[pivot] = inv[pivot], inv[col]
		if p := mat[col][col]; p != 1 {
			pi := gfInv(p)
			mulInto(mat[col], mat[col], pi)
			mulInto(inv[col], inv[col], pi)
		}
		for r := 0; r < k; r++ {
			if r == col || mat[r][col] == 0 {
				continue
			}
			f := mat[r][col]
			addMul(mat[r], mat[col], f)
			addMul(inv[r], inv[col], f)
		}
	}
	return inv, nil
}
