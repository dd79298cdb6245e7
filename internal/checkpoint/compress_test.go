package checkpoint

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/simmpi"
)

// The decompression error paths matter operationally: a restart that
// silently restores an empty or truncated image is far worse than one
// that fails loudly and falls back to an older generation. Each case
// must surface a decode error — never a nil-error short read.

func TestCompressedTruncatedStreamIsAnError(t *testing.T) {
	inner := NewMemStorage()
	s := NewCompressedStorage(inner)
	state := bytes.Repeat([]byte("snapshot-data-"), 200)
	if err := s.Write(3, 0, state); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(3, 1); err != nil {
		t.Fatal(err)
	}
	compressed, err := inner.Read(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(compressed) < 8 {
		t.Fatalf("sanity: compressed image only %d bytes", len(compressed))
	}
	// Simulate a partial write: keep only the first half of the stream.
	if err := inner.Write(3, 0, compressed[:len(compressed)/2]); err != nil {
		t.Fatal(err)
	}
	got, err := s.Read(3, 0)
	if err == nil {
		t.Fatalf("truncated stream restored %d bytes with nil error", len(got))
	}
	if !strings.Contains(err.Error(), "decompressing gen 3 rank 0") {
		t.Errorf("error %q does not identify the generation and rank", err)
	}
}

func TestCompressedEmptyStreamIsAnError(t *testing.T) {
	inner := NewMemStorage()
	s := NewCompressedStorage(inner)
	if err := inner.Write(1, 0, []byte{}); err != nil {
		t.Fatal(err)
	}
	if err := inner.Commit(1, 1); err != nil {
		t.Fatal(err)
	}
	if state, err := s.Read(1, 0); err == nil {
		t.Fatalf("empty stream restored %d bytes with nil error", len(state))
	}
}

func TestCompressedSingleBitFlipIsAnError(t *testing.T) {
	inner := NewMemStorage()
	s := NewCompressedStorage(inner)
	// Low-entropy state compresses hard, so a mid-stream bit flip lands
	// inside the Huffman-coded body rather than a stored block.
	state := bytes.Repeat([]byte{0xAB}, 4096)
	if err := s.Write(2, 0, state); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(2, 1); err != nil {
		t.Fatal(err)
	}
	compressed, err := inner.Read(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	flipped := make([]byte, len(compressed))
	copy(flipped, compressed)
	flipped[len(flipped)/2] ^= 0x40
	if err := inner.Write(2, 0, flipped); err != nil {
		t.Fatal(err)
	}
	got, err := s.Read(2, 0)
	if err == nil && bytes.Equal(got, state) {
		t.Skip("bit flip landed in a spot flate tolerates; corruption detection is best-effort")
	}
	if err == nil {
		t.Fatalf("corrupt stream decoded to %d wrong bytes with nil error", len(got))
	}
}

// TestCompressedEveryBitFlipIsAnError flips each bit of a stored image
// in turn, in both layouts: a single stream, and a sharded container
// whose chunks each hold part of the run. The image is a run of one byte
// value, so many flips inside a stream still decode to the original
// image; the checksum must reject those too.
func TestCompressedEveryBitFlipIsAnError(t *testing.T) {
	state := bytes.Repeat([]byte{0xAB}, 4096)
	for _, tc := range []struct {
		name              string
		shards, chunkSize int
	}{
		{"single-stream", 0, 0},
		{"sharded", 2, 1024},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inner := NewMemStorage()
			s := &CompressedStorage{Inner: inner, Shards: tc.shards, ChunkSize: tc.chunkSize}
			if err := s.Write(1, 0, state); err != nil {
				t.Fatal(err)
			}
			if err := s.Commit(1, 1); err != nil {
				t.Fatal(err)
			}
			stored, err := inner.Read(1, 0)
			if err != nil {
				t.Fatal(err)
			}
			for i := range stored {
				for bit := 0; bit < 8; bit++ {
					flipped := bytes.Clone(stored)
					flipped[i] ^= 1 << bit
					if err := inner.Write(1, 0, flipped); err != nil {
						t.Fatal(err)
					}
					if got, err := s.Read(1, 0); err == nil {
						t.Fatalf("flip of byte %d bit %d decoded to %d bytes with nil error (intact: %v)",
							i, bit, len(got), bytes.Equal(got, state))
					}
				}
			}
		})
	}
}

func TestCompressedReadPropagatesInnerErrors(t *testing.T) {
	s := NewCompressedStorage(NewMemStorage())
	if _, err := s.Read(9, 0); err == nil {
		t.Fatal("read of a generation that was never written must fail")
	}
}

// Sharded-layout coverage. The container must round-trip, interoperate
// with the single-stream layout in both directions, and fail loudly on
// corruption — same bar as the single-stream paths above.

// shardedTestState builds a compressible-but-not-trivial image.
func shardedTestState(n int) []byte {
	state := make([]byte, n)
	for i := range state {
		state[i] = byte(i * 31 / 7)
	}
	return state
}

func TestShardedRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name      string
		size      int
		shards    int
		chunkSize int
	}{
		{"even-chunks", 64 * 1024, 4, 16 * 1024},
		{"ragged-tail", 64*1024 + 123, 4, 16 * 1024},
		{"more-shards-than-chunks", 3 * 1024, 8, 1024},
		{"single-byte-tail", 2*1024 + 1, 2, 1024},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inner := NewMemStorage()
			s := &CompressedStorage{Inner: inner, Shards: tc.shards, ChunkSize: tc.chunkSize}
			state := shardedTestState(tc.size)
			if err := s.Write(1, 0, state); err != nil {
				t.Fatal(err)
			}
			if err := s.Commit(1, 1); err != nil {
				t.Fatal(err)
			}
			stored, err := inner.Read(1, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.HasPrefix(stored, shardMagic[:]) {
				t.Fatal("large image did not use the sharded container")
			}
			got, err := s.Read(1, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, state) {
				t.Fatal("sharded round trip mismatch")
			}
		})
	}
}

func TestShardedSmallImageStaysSingleStream(t *testing.T) {
	inner := NewMemStorage()
	s := &CompressedStorage{Inner: inner, Shards: 4, ChunkSize: 16 * 1024}
	state := shardedTestState(1024) // <= one chunk
	if err := s.Write(1, 0, state); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(1, 1); err != nil {
		t.Fatal(err)
	}
	stored, err := inner.Read(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.HasPrefix(stored, shardMagic[:]) {
		t.Fatal("small image was sharded")
	}
	got, err := s.Read(1, 0)
	if err != nil || !bytes.Equal(got, state) {
		t.Fatalf("round trip: %v", err)
	}
}

// TestShardedCrossLayoutRead: a store written sharded must be readable
// by a single-stream-configured instance and vice versa — restarts may
// run with different knobs than the job that wrote the checkpoint.
func TestShardedCrossLayoutRead(t *testing.T) {
	inner := NewMemStorage()
	sharded := &CompressedStorage{Inner: inner, Shards: 4, ChunkSize: 8 * 1024}
	plain := NewCompressedStorage(inner)
	state := shardedTestState(40 * 1024)

	if err := sharded.Write(1, 0, state); err != nil {
		t.Fatal(err)
	}
	if err := plain.Write(2, 0, state); err != nil {
		t.Fatal(err)
	}
	if err := inner.Commit(1, 1); err != nil {
		t.Fatal(err)
	}
	if err := inner.Commit(2, 1); err != nil {
		t.Fatal(err)
	}
	if got, err := plain.Read(1, 0); err != nil || !bytes.Equal(got, state) {
		t.Fatalf("plain reader on sharded container: %v", err)
	}
	if got, err := sharded.Read(2, 0); err != nil || !bytes.Equal(got, state) {
		t.Fatalf("sharded reader on single stream: %v", err)
	}
}

func TestShardedCorruptionIsAnError(t *testing.T) {
	inner := NewMemStorage()
	s := &CompressedStorage{Inner: inner, Shards: 4, ChunkSize: 8 * 1024}
	state := shardedTestState(40 * 1024)
	if err := s.Write(1, 0, state); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(1, 1); err != nil {
		t.Fatal(err)
	}
	stored, err := inner.Read(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Run("truncated", func(t *testing.T) {
		if err := inner.Write(1, 0, stored[:len(stored)/2]); err != nil {
			t.Fatal(err)
		}
		if got, err := s.Read(1, 0); err == nil {
			t.Fatalf("truncated container restored %d bytes with nil error", len(got))
		}
	})
	t.Run("trailing-garbage", func(t *testing.T) {
		if err := inner.Write(1, 0, append(append([]byte(nil), stored...), 0xEE)); err != nil {
			t.Fatal(err)
		}
		if got, err := s.Read(1, 0); err == nil {
			t.Fatalf("trailing garbage restored %d bytes with nil error", len(got))
		}
	})
	t.Run("header-mismatch", func(t *testing.T) {
		bad := append([]byte(nil), stored...)
		bad[sumHeaderLen] ^= 0x01 // perturb the rawSize varint
		if err := inner.Write(1, 0, bad); err != nil {
			t.Fatal(err)
		}
		if got, err := s.Read(1, 0); err == nil {
			t.Fatalf("inconsistent header restored %d bytes with nil error", len(got))
		}
	})
}

func TestCompressedConcurrentWritersRoundTrip(t *testing.T) {
	// Four writers per compressor in the shared set: each waits its turn
	// and none may see another's stream.
	writers := 4 * runtime.GOMAXPROCS(0)
	s := NewCompressedStorage(NewMemStorage())
	image := func(rank int) []byte {
		return []byte(strings.Repeat(fmt.Sprintf("rank %d state;", rank), 300+rank))
	}
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for r := 0; r < writers; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			errs[rank] = s.Write(1, rank, image(rank))
		}(r)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
	if err := s.Commit(1, writers); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < writers; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			got, err := s.Read(1, rank)
			if err != nil || !bytes.Equal(got, image(rank)) {
				t.Errorf("rank %d: round trip mismatch (err %v)", rank, err)
			}
		}(r)
	}
	wg.Wait()
}

func TestShardedMoreShardsThanProcessors(t *testing.T) {
	// Shards above the compressor count: each worker holds at most one
	// compressor at a time, so the extra workers wait rather than
	// deadlock. Two such writers at once share the same set.
	shards := 2*runtime.GOMAXPROCS(0) + 1
	s := &CompressedStorage{Inner: NewMemStorage(), Shards: shards, ChunkSize: 1024}
	state := shardedTestState(3*shards*1024 + 77)
	var wg sync.WaitGroup
	for rank := 0; rank < 2; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			if err := s.Write(1, rank, state); err != nil {
				t.Error(err)
			}
		}(rank)
	}
	wg.Wait()
	if err := s.Commit(1, 2); err != nil {
		t.Fatal(err)
	}
	for rank := 0; rank < 2; rank++ {
		if got, err := s.Read(1, rank); err != nil || !bytes.Equal(got, state) {
			t.Fatalf("rank %d: sharded round trip mismatch (err %v)", rank, err)
		}
	}
}

func TestCompressedReadRecoversAfterCorruptStream(t *testing.T) {
	// Inflaters are pooled: one left mid-error by a corrupt image must
	// decode the next image cleanly.
	inner := NewMemStorage()
	s := NewCompressedStorage(inner)
	state := bytes.Repeat([]byte("restart-image-"), 500)
	if err := s.Write(1, 0, state); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(1, 1); err != nil {
		t.Fatal(err)
	}
	compressed, err := inner.Read(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := inner.Write(2, 0, compressed[:len(compressed)/2]); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(2, 1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := s.Read(2, 0); err == nil {
			t.Fatal("truncated stream restored with nil error")
		}
		if got, err := s.Read(1, 0); err != nil || !bytes.Equal(got, state) {
			t.Fatalf("read after a corrupt stream: mismatch (err %v)", err)
		}
	}
}

// TestCompressedReadAllocs pins the restore path's allocations: the
// inner store's copy of the stream and the exact-size image returned.
// The inflater and its output buffer are reused, not rebuilt per read.
// The image is incompressible, so DEFLATE stores it verbatim and the
// count holds no Huffman tables, which compress/flate allocates per
// dynamic block whatever the caller does.
func TestCompressedReadAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not meaningful under the race detector")
	}
	s := NewCompressedStorage(NewMemStorage())
	state := make([]byte, 64<<10)
	rand.New(rand.NewSource(1)).Read(state)
	if err := s.Write(1, 0, state); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(1, 1); err != nil {
		t.Fatal(err)
	}
	read := func() {
		if _, err := s.Read(1, 0); err != nil {
			t.Fatal(err)
		}
	}
	read() // grow the pooled inflater's buffer to the image size
	if avg := testing.AllocsPerRun(100, read); avg > 2 {
		t.Errorf("CompressedStorage.Read allocates %.2f per image, want <= 2", avg)
	}
}

func TestCompressedStorageRoundTrip(t *testing.T) {
	inner := NewMemStorage()
	s := NewCompressedStorage(inner)
	// Highly compressible state.
	state := bytes.Repeat([]byte("abcd"), 4096)
	if err := s.Write(1, 0, state); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(1, 1); err != nil {
		t.Fatal(err)
	}
	got, err := s.Read(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, state) {
		t.Fatal("round trip mismatch")
	}
	// Verify it actually compressed on the inner store.
	raw, err := inner.Read(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) >= len(state)/4 {
		t.Fatalf("stored %d bytes for a %d-byte repetitive image", len(raw), len(state))
	}
}

func TestCompressedStorageDelegates(t *testing.T) {
	s := NewCompressedStorage(NewMemStorage())
	if _, _, ok, err := s.Latest(); err != nil || ok {
		t.Fatalf("Latest on empty: %v %v", ok, err)
	}
	if err := s.Write(2, 0, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(2, 1); err != nil {
		t.Fatal(err)
	}
	gen, n, ok, err := s.Latest()
	if err != nil || !ok || gen != 2 || n != 1 {
		t.Fatalf("Latest = %d/%d/%v/%v", gen, n, ok, err)
	}
	if err := s.Drop(2); err != nil {
		t.Fatal(err)
	}
	if _, _, ok, _ := s.Latest(); ok {
		t.Fatal("Drop did not propagate")
	}
}

func TestCompressedStorageDetectsCorruption(t *testing.T) {
	inner := NewMemStorage()
	s := NewCompressedStorage(inner)
	if err := s.Write(1, 0, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	// Corrupt the stored compressed bytes directly.
	if err := inner.Write(1, 0, []byte("definitely not deflate")); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(1, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Read(1, 0); err == nil {
		t.Fatal("corrupt stream decoded successfully")
	}
}

func TestCompressedThroughClientEndToEnd(t *testing.T) {
	// The client sees a normal Storage; compression is transparent.
	store := NewCompressedStorage(NewMemStorage())
	runWorld(t, 2, func(c *simmpi.Comm) error {
		cl, err := NewClient(c, Config{Storage: store})
		if err != nil {
			return err
		}
		state := bytes.Repeat([]byte{byte(c.Rank())}, 10000)
		if err := cl.Checkpoint(state, true); err != nil {
			return err
		}
		got, ok, err := cl.Restore()
		if err != nil || !ok {
			return err
		}
		if !bytes.Equal(got, state) {
			t.Errorf("rank %d: restore mismatch", c.Rank())
		}
		return nil
	})
}
