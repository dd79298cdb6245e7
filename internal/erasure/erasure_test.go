package erasure

import (
	"bytes"
	"math/rand"
	"testing"
)

func TestNewRejectsBadShapes(t *testing.T) {
	for _, tc := range [][2]int{{0, 1}, {1, 0}, {-1, 2}, {2, -1}, {200, 56}} {
		if _, err := New(tc[0], tc[1]); err == nil {
			t.Errorf("New(%d, %d): want error", tc[0], tc[1])
		}
	}
	if _, err := New(4, 2); err != nil {
		t.Fatalf("New(4, 2): %v", err)
	}
}

func TestShardLen(t *testing.T) {
	for _, tc := range []struct{ k, size, want int }{
		{2, 0, 0}, {2, 1, 1}, {2, 2, 1}, {2, 3, 2}, {4, 4096, 1024}, {3, 10, 4},
	} {
		if got := ShardLen(tc.k, tc.size); got != tc.want {
			t.Errorf("ShardLen(%d, %d) = %d, want %d", tc.k, tc.size, got, tc.want)
		}
	}
}

func TestRoundTripNoLoss(t *testing.T) {
	c, err := New(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 1000) // not a multiple of k: exercises padding
	rand.New(rand.NewSource(1)).Read(data)
	shards := c.Encode(data, nil)
	if len(shards) != 5 {
		t.Fatalf("got %d shards", len(shards))
	}
	got, err := c.Reconstruct(shards, len(data))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("lossless round trip corrupted data")
	}
}

// TestAllLossCombos is the core property: for every (k, m) in a small
// grid and every way of deleting exactly m shards, the survivors
// reconstruct the original bytes exactly.
func TestAllLossCombos(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, kc := range []struct{ k, m int }{{1, 1}, {1, 2}, {2, 1}, {2, 2}, {3, 2}, {4, 2}, {4, 3}, {5, 1}} {
		c, err := New(kc.k, kc.m)
		if err != nil {
			t.Fatal(err)
		}
		data := make([]byte, 257+kc.k) // odd size: padding in play
		rng.Read(data)
		base := c.Encode(data, nil)
		n := kc.k + kc.m
		// Iterate every subset of shard indices of size m via bitmask.
		for mask := 0; mask < 1<<n; mask++ {
			if popcount(mask) != kc.m {
				continue
			}
			shards := make([][]byte, n)
			for i := range shards {
				if mask&(1<<i) == 0 {
					shards[i] = base[i]
				}
			}
			got, err := c.Reconstruct(shards, len(data))
			if err != nil {
				t.Fatalf("k=%d m=%d mask=%b: %v", kc.k, kc.m, mask, err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("k=%d m=%d mask=%b: reconstructed bytes differ", kc.k, kc.m, mask)
			}
		}
	}
}

func TestTooFewShards(t *testing.T) {
	c, _ := New(3, 2)
	data := []byte("the quick brown fox jumps over the lazy dog")
	shards := c.Encode(data, nil)
	shards[0], shards[2], shards[4] = nil, nil, nil // 2 left < k=3
	if _, err := c.Reconstruct(shards, len(data)); err == nil {
		t.Fatal("want error with fewer than k shards")
	}
}

func TestEncodeReusesScratch(t *testing.T) {
	c, _ := New(2, 1)
	data := make([]byte, 64)
	for i := range data {
		data[i] = byte(i)
	}
	backing := make([]byte, 3*32)
	scratch := [][]byte{backing[0:0:32], backing[32:32:64], backing[64:64:96]}
	shards := c.Encode(data, scratch)
	for i := range shards {
		if &shards[i][0] != &backing[32*i] {
			t.Fatalf("shard %d did not reuse scratch backing", i)
		}
	}
	got, err := c.Reconstruct([][]byte{nil, shards[1], shards[2]}, len(data))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("scratch-encoded shards reconstructed wrong bytes")
	}
}

// TestEncodeParityFromAliasedData checks the zero-copy encode path: data
// shards that are plain slices of the input yield the same parity as
// Encode, and at k=1 every parity shard is the input itself.
func TestEncodeParityFromAliasedData(t *testing.T) {
	data := make([]byte, 96)
	rand.New(rand.NewSource(3)).Read(data)
	for _, kc := range []struct{ k, m int }{{1, 2}, {3, 2}} {
		c, _ := New(kc.k, kc.m)
		want := c.Encode(data, nil)
		sl := ShardLen(kc.k, len(data))
		shards := make([][]byte, kc.k+kc.m)
		for i := range shards {
			if i < kc.k {
				shards[i] = data[i*sl : (i+1)*sl]
			} else {
				shards[i] = make([]byte, sl)
			}
		}
		c.EncodeParity(shards)
		for i := kc.k; i < len(shards); i++ {
			if !bytes.Equal(shards[i], want[i]) {
				t.Fatalf("k=%d m=%d: parity shard %d differs from Encode", kc.k, kc.m, i)
			}
			if kc.k == 1 && !bytes.Equal(shards[i], data) {
				t.Fatalf("k=1: parity shard %d is not a copy of the input", i)
			}
		}
	}
}

func TestEmptyData(t *testing.T) {
	c, _ := New(2, 1)
	shards := c.Encode(nil, nil)
	for i, s := range shards {
		if len(s) != 0 {
			t.Fatalf("shard %d of empty data has %d bytes", i, len(s))
		}
	}
	got, err := c.Reconstruct(shards, 0)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty reconstruct: %v, %d bytes", err, len(got))
	}
}

func TestGFFieldAxioms(t *testing.T) {
	// Multiplicative inverses and distributivity over a sample grid —
	// a cheap sanity net under the table-driven arithmetic.
	for a := 1; a < 256; a++ {
		if gfMul(byte(a), gfInv(byte(a))) != 1 {
			t.Fatalf("a * inv(a) != 1 for a=%d", a)
		}
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 1000; i++ {
		a, b, c := byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))
		if gfMul(a, b^c) != gfMul(a, b)^gfMul(a, c) {
			t.Fatalf("distributivity fails for %d, %d, %d", a, b, c)
		}
		if gfMul(a, b) != gfMul(b, a) {
			t.Fatalf("commutativity fails for %d, %d", a, b)
		}
	}
}

// FuzzReconstruct throws arbitrary data and loss patterns at the codec
// and checks the invariant end to end: with at most m losses the bytes
// come back identical; with more the codec reports an error rather than
// fabricating data.
func FuzzReconstruct(f *testing.F) {
	f.Add([]byte("hello erasure world"), uint8(2), uint8(1), uint8(0b001))
	f.Add([]byte{0xff, 0x00, 0xab}, uint8(3), uint8(2), uint8(0b10100))
	f.Add(bytes.Repeat([]byte{7}, 300), uint8(4), uint8(3), uint8(0b1100001))
	f.Add([]byte{}, uint8(2), uint8(2), uint8(0b11))
	f.Fuzz(func(t *testing.T, data []byte, kRaw, mRaw, lossMask uint8) {
		k := int(kRaw)%8 + 1
		m := int(mRaw)%8 + 1
		c, err := New(k, m)
		if err != nil {
			t.Fatalf("New(%d, %d): %v", k, m, err)
		}
		base := c.Encode(data, nil)
		n := k + m
		shards := make([][]byte, n)
		lost := 0
		for i := 0; i < n; i++ {
			if lossMask&(1<<(i%8)) != 0 && lost < m {
				lost++
				continue
			}
			shards[i] = base[i]
		}
		got, err := c.Reconstruct(shards, len(data))
		if err != nil {
			t.Fatalf("k=%d m=%d lost=%d: %v", k, m, lost, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("k=%d m=%d lost=%d: bytes differ", k, m, lost)
		}
	})
}

func popcount(x int) int {
	n := 0
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}
