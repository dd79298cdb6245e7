package checkpoint

import (
	"bytes"
	"testing"
)

// fuzzContainer builds a genuine container for seeding: state written
// through CompressedStorage with the given sharding config, read back
// raw from the inner store.
func fuzzContainer(t testing.TB, state []byte, shards, chunkSize int) []byte {
	inner := NewMemStorage()
	cs := &CompressedStorage{Inner: inner, Shards: shards, ChunkSize: chunkSize}
	if err := cs.Write(1, 0, state); err != nil {
		t.Fatalf("seed write: %v", err)
	}
	if err := inner.Commit(1, 1); err != nil {
		t.Fatalf("seed commit: %v", err)
	}
	raw, err := inner.Read(1, 0)
	if err != nil {
		t.Fatalf("seed readback: %v", err)
	}
	return raw
}

// FuzzShardedFrameDecode drives CompressedStorage.Read's layout
// autodetect path (sharded container vs checksummed single stream) with
// arbitrary stored payloads. The decoder must never panic and never
// trust header-claimed sizes: a crafted rawSize/chunkSize/nChunks far
// beyond what the present bytes could inflate to must be rejected
// before allocation (the maxDeflateRatio and per-chunk-byte caps in
// readSharded), not after the OOM. When a mutated container still
// decodes, decoding it twice must agree — the path is deterministic.
func FuzzShardedFrameDecode(f *testing.F) {
	// Golden corpus: real containers across layouts — single-stream,
	// sharded multi-chunk, sharded with a ragged tail chunk, one-byte
	// and incompressible states — plus truncations and header edits.
	patterned := make([]byte, 8192)
	for i := range patterned {
		patterned[i] = byte(i % 251)
	}
	incompressible := make([]byte, 4096)
	x := uint32(2463534242)
	for i := range incompressible {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		incompressible[i] = byte(x)
	}
	seeds := [][]byte{
		fuzzContainer(f, patterned, 1, 0),           // single stream
		fuzzContainer(f, patterned, 4, 1024),        // 8 even chunks
		fuzzContainer(f, patterned[:5000], 4, 1024), // ragged tail chunk
		fuzzContainer(f, []byte{42}, 4, 1024),       // below one chunk: single stream
		fuzzContainer(f, incompressible, 2, 1024),   // stored-block heavy frames
		fuzzContainer(f, nil, 2, 512),
	}
	for _, s := range seeds {
		f.Add(s)
		if len(s) > 8 {
			f.Add(s[:len(s)/2]) // truncated container
			mut := bytes.Clone(s)
			mut[5] ^= 0xFF // corrupt the size header region
			f.Add(mut)
		}
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		inner := NewMemStorage()
		if err := inner.Write(7, 0, payload); err != nil {
			t.Fatal(err)
		}
		if err := inner.Commit(7, 1); err != nil {
			t.Fatal(err)
		}
		cs := &CompressedStorage{Inner: inner, Shards: 4}
		got, err := cs.Read(7, 0)
		if err != nil {
			return // rejected: fine, as long as we didn't panic or OOM
		}
		again, err := cs.Read(7, 0)
		if err != nil {
			t.Fatalf("decode succeeded then failed on identical payload: %v", err)
		}
		if !bytes.Equal(got, again) {
			t.Fatalf("non-deterministic decode: %d bytes vs %d bytes", len(got), len(again))
		}
	})
}

// TestShardedHeaderBombRejected pins the decoder's header hardening
// deterministically: containers whose headers claim absurd sizes must be
// rejected by inspection — before the rawSize allocation — not by
// running out of memory.
func TestShardedHeaderBombRejected(t *testing.T) {
	craft := func(rawSize, chunkSize, nChunks uint64, tail []byte) []byte {
		// The checksum field stays zero: the header checks run before it.
		p := append(append([]byte{}, shardMagic[:]...), 0, 0, 0, 0)
		p = appendUvarint(p, rawSize)
		p = appendUvarint(p, chunkSize)
		p = appendUvarint(p, nChunks)
		return append(p, tail...)
	}
	bombs := map[string][]byte{
		// 1 EiB claimed from a 1-frame payload: caught by the deflate
		// expansion cap.
		"huge rawSize": craft(1<<60, 1<<60, 1, []byte{1, 0}),
		// rawSize+chunkSize wraps uint64 so the old ceil-division
		// consistency check would have passed with a tiny quotient.
		"overflowing chunkSize": craft(1000, ^uint64(0)-1, 1, []byte{1, 0}),
		// 16M one-byte chunks claimed in a 64 KiB payload: the raw size
		// passes the expansion cap, so this one must be caught by the
		// chunk-count bound before the 16M-entry frame table is built.
		"huge nChunks": craft(1<<24, 1, 1<<24, make([]byte, 64<<10)),
	}
	for name, payload := range bombs {
		inner := NewMemStorage()
		if err := inner.Write(1, 0, payload); err != nil {
			t.Fatal(err)
		}
		if err := inner.Commit(1, 1); err != nil {
			t.Fatal(err)
		}
		cs := &CompressedStorage{Inner: inner, Shards: 4}
		if _, err := cs.Read(1, 0); err == nil {
			t.Errorf("%s: crafted header accepted", name)
		}
	}
}

// FuzzShardedRoundTrip fuzzes the write side: any state must survive a
// compress/decompress round trip bit-exactly under every layout the
// writer can emit, including chunk sizes that force ragged tails.
func FuzzShardedRoundTrip(f *testing.F) {
	f.Add([]byte(nil), uint8(1), uint16(0))
	f.Add([]byte("hello sharded world"), uint8(3), uint16(7))
	f.Add(bytes.Repeat([]byte{0xAB}, 5000), uint8(4), uint16(1024))
	f.Fuzz(func(t *testing.T, state []byte, shards uint8, chunkSize uint16) {
		inner := NewMemStorage()
		cs := &CompressedStorage{
			Inner:     inner,
			Shards:    int(shards % 8),
			ChunkSize: int(chunkSize),
		}
		if err := cs.Write(1, 0, state); err != nil {
			t.Fatalf("write: %v", err)
		}
		if err := inner.Commit(1, 1); err != nil {
			t.Fatalf("commit: %v", err)
		}
		got, err := cs.Read(1, 0)
		if err != nil {
			t.Fatalf("read back: %v", err)
		}
		if !bytes.Equal(got, state) {
			t.Fatalf("round trip changed state: %d bytes in, %d out", len(state), len(got))
		}
	})
}
