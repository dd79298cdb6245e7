package checkpoint

import (
	"bytes"
	"encoding/binary"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/simmpi"
)

// Hot-path benchmarks for the CI bench gate (cmd/benchgate). Each
// iteration performs a fixed batch of work so a single `-benchtime 1x`
// sample is well above timer granularity.

const benchGens = 200

// BenchmarkMemStorageWriteCommit measures the in-memory stable tier's
// write/commit/read cycle — the floor every other storage layers on.
func BenchmarkMemStorageWriteCommit(b *testing.B) {
	state := bytes.Repeat([]byte{0xCD}, 16<<10)
	b.SetBytes(benchGens * int64(len(state)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := NewMemStorage()
		for g := uint64(1); g <= benchGens; g++ {
			if err := s.Write(g, 0, state); err != nil {
				b.Fatal(err)
			}
			if err := s.Commit(g, 1); err != nil {
				b.Fatal(err)
			}
			if _, err := s.Read(g, 0); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkCompressedRoundTrip measures DEFLATE write+read through the
// storage middleware on a repetitive scientific-state image.
func BenchmarkCompressedRoundTrip(b *testing.B) {
	state := bytes.Repeat([]byte{0, 0, 0, 0, 0, 0, 240, 63}, 1<<12)
	const gens = 20
	b.SetBytes(gens * int64(len(state)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := NewCompressedStorage(NewMemStorage())
		for g := uint64(1); g <= gens; g++ {
			if err := s.Write(g, 0, state); err != nil {
				b.Fatal(err)
			}
			if err := s.Commit(g, 1); err != nil {
				b.Fatal(err)
			}
			if _, err := s.Read(g, 0); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkPeerReplicateCommit measures the peer tier's write path with
// full copies (k=1 data + m=1 parity shard: one buddy copy per sphere):
// every sphere writer stashes locally and pushes its copy to a buddy
// over messages, then commits — the steady-state cost of peer
// checkpointing. The resident footprint (1+m full copies per sphere,
// double buffered) is reported for comparison with
// BenchmarkPeerErasureCommit.
func BenchmarkPeerReplicateCommit(b *testing.B) {
	benchPeerCommit(b, 1, 1, false)
}

// benchDelayStorage emulates a stable store with a fixed per-image write
// latency, so the interval benchmark has real write time for the async
// pipeline to hide (a MemStorage write is sub-microsecond).
type benchDelayStorage struct {
	Storage
	latency time.Duration
}

func (s *benchDelayStorage) Write(gen uint64, rank int, state []byte) error {
	time.Sleep(s.latency)
	return s.Storage.Write(gen, rank, state)
}

// benchCheckpointInterval runs one checkpointed compute loop: each of the
// two ranks alternates an emulated compute step with a collective
// checkpoint against a store whose writes cost 2ms. The sync path pays
// compute+write per generation; the pipelined path pays only compute plus
// coordination, deferring writes to background workers.
func benchCheckpointInterval(b *testing.B, pipe *Pipeline) {
	const (
		gens         = 8
		computeDelay = time.Millisecond
		writeDelay   = 2 * time.Millisecond
	)
	state := bytes.Repeat([]byte{0xEE}, 64<<10)
	b.SetBytes(gens * int64(len(state)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		store := &benchDelayStorage{Storage: NewMemStorage(), latency: writeDelay}
		w, err := simmpi.NewWorld(2)
		if err != nil {
			b.Fatal(err)
		}
		var wg sync.WaitGroup
		for r := 0; r < 2; r++ {
			c, cerr := w.Comm(r)
			if cerr != nil {
				b.Fatal(cerr)
			}
			wg.Add(1)
			go func(c *simmpi.Comm) {
				defer wg.Done()
				cl, err := NewClient(c, Config{Storage: store, Pipeline: pipe})
				if err != nil {
					b.Error(err)
					return
				}
				for g := 0; g < gens; g++ {
					time.Sleep(computeDelay)
					if err := cl.Checkpoint(state, true); err != nil {
						b.Error(err)
						return
					}
				}
				if err := cl.Drain(); err != nil {
					b.Error(err)
				}
			}(c)
		}
		wg.Wait()
	}
}

// BenchmarkCheckpointInterval contrasts the blocking and pipelined write
// paths on the same checkpointed compute loop; the gap between the two
// is the per-interval wall time the async pipeline returns to compute.
func BenchmarkCheckpointInterval(b *testing.B) {
	b.Run("sync", func(b *testing.B) {
		benchCheckpointInterval(b, nil)
	})
	b.Run("async", func(b *testing.B) {
		pipe := NewPipeline(2)
		defer pipe.Close()
		benchCheckpointInterval(b, pipe)
	})
}

// BenchmarkShardedCompress contrasts single-stream DEFLATE with the
// chunked parallel layout on a 4 MiB repetitive image (write+read). On a
// single-core host the sharded variant measures framing overhead rather
// than speedup; the gate pins both so a multi-core regression still
// shows.
func BenchmarkShardedCompress(b *testing.B) {
	state := bytes.Repeat([]byte{0, 0, 0, 0, 0, 0, 240, 63}, 1<<19)
	for _, bc := range []struct {
		name   string
		shards int
	}{
		{"single", 1},
		{"sharded", 4},
	} {
		b.Run(bc.name, func(b *testing.B) {
			s := &CompressedStorage{Inner: NewMemStorage(), Shards: bc.shards}
			b.SetBytes(int64(len(state)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.Write(uint64(i+1), 0, state); err != nil {
					b.Fatal(err)
				}
				if err := s.Commit(uint64(i+1), 1); err != nil {
					b.Fatal(err)
				}
				if _, err := s.Read(uint64(i+1), 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPeerCodec measures the wire codec for peer shards on the
// pooled path production uses: encode into a size-class arena buffer,
// decode, release — zero steady-state allocations.
func BenchmarkPeerCodec(b *testing.B) {
	payload := bytes.Repeat([]byte{0x5A}, 4<<10)
	const frames = 5000
	b.SetBytes(frames * int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < frames; j++ {
			fr := peerFrame{op: opReplicate, gen: uint64(j), v: 3, idx: 1, size: uint32(len(payload)), payload: payload}
			buf, pb := snapPool.acquire(peerHeaderLen + len(payload))
			encodePeerInto(buf, fr)
			got, err := decodePeer(buf)
			if err != nil || got.op != opReplicate || got.gen != uint64(j) || got.v != 3 || len(got.payload) != len(payload) {
				b.Fatalf("codec round trip broke: %+v err=%v", got, err)
			}
			if pb != nil {
				pb.Release()
			}
		}
	}
}

// BenchmarkPeerErasureCommit is BenchmarkPeerReplicateCommit's workload
// on the erasure-coded layout (k=2 data + m=1 parity over the same four
// spheres): the same snapshots cost (k+m)/k resident bytes per sphere
// instead of 1+m full copies. The resident footprint is reported per
// iteration so the scaling is visible next to the gated numbers. Unlike
// the full-copy benchmark it settles every generation inside the timer.
func BenchmarkPeerErasureCommit(b *testing.B) {
	benchPeerCommit(b, 2, 1, true)
}

// benchPeerCommit writes and commits benchGens generations of a 4 KiB
// snapshot per sphere over testSpheres with a k+m peer layout.
// settleEachGen waits for the shard frames of every generation before
// its commit, inside the timer; otherwise the store settles once, after
// the timed loop.
func benchPeerCommit(b *testing.B, k, m int, settleEachGen bool) {
	state := bytes.Repeat([]byte{0xAB}, 4<<10)
	b.SetBytes(benchGens * 4 * int64(len(state)))
	b.ReportAllocs()
	var resident int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ps, err := NewPeerStore(PeerStoreConfig{Spheres: testSpheres(), DataShards: k, ParityShards: m})
		if err != nil {
			b.Fatal(err)
		}
		w, err := simmpi.NewWorld(8)
		if err != nil {
			b.Fatal(err)
		}
		var wg sync.WaitGroup
		views := make([]Storage, 4)
		for p := 0; p < 8; p++ {
			c, cerr := w.Comm(p)
			if cerr != nil {
				b.Fatal(cerr)
			}
			wg.Add(1)
			go func(c *simmpi.Comm) {
				defer wg.Done()
				ps.Serve(c)
			}(c)
			if p%2 == 0 {
				views[p/2] = ps.View(c)
			}
		}
		b.StartTimer()
		for g := uint64(1); g <= benchGens; g++ {
			for v := 0; v < 4; v++ {
				if err := views[v].Write(g, v, state); err != nil {
					b.Fatal(err)
				}
			}
			if settleEachGen {
				ps.Settle()
			}
			if err := views[0].Commit(g, 4); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if !settleEachGen {
			ps.Settle()
		}
		ps.mu.Lock()
		resident = ps.resident
		ps.mu.Unlock()
		w.Interrupt()
		wg.Wait()
		b.StartTimer()
	}
	b.ReportMetric(float64(resident), "resident-bytes")
}

// floatImage returns size bytes of smooth float64 state, about one CG
// rank's snapshot at size 40 KiB; phase tells ranks' images apart.
func floatImage(size, phase int) []byte {
	state := make([]byte, 0, size)
	for i := 0; len(state) < cap(state); i++ {
		state = binary.LittleEndian.AppendUint64(state, math.Float64bits(math.Sin(float64(i+phase)/64)))
	}
	return state
}

// BenchmarkStableCheckpoint measures one steady-state sync checkpoint
// on the stable tier as the cg-cr job benchmark takes it: 8 ranks write
// their ~40 KiB images concurrently through CompressedStorage over a
// FileStorage directory, then one Commit. Warm-up generations run
// first, so each op recycles the files of a retired generation.
func BenchmarkStableCheckpoint(b *testing.B) {
	const ranks, warm = 8, 4
	fs, err := NewFileStorage(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	s := NewCompressedStorage(fs)
	images := make([][]byte, ranks)
	for r := range images {
		images[r] = floatImage(40<<10, 1000*r)
	}
	errs := make([]error, ranks)
	gen := uint64(0)
	checkpoint := func() {
		gen++
		var wg sync.WaitGroup
		for r := range images {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				errs[r] = s.Write(gen, r, images[r])
			}(r)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				b.Fatal(err)
			}
		}
		if err := s.Commit(gen, ranks); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < warm; i++ {
		checkpoint()
	}
	b.SetBytes(int64(ranks * len(images[0])))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		checkpoint()
	}
}

// BenchmarkStableRestore measures one rank's restore from the stable
// tier as the cg-cr job benchmark does it: Latest, then Read of the
// rank's image, through CompressedStorage over a FileStorage directory
// after 40 committed generations (a 400-step job checkpointing every 10
// steps), of which the directory keeps the newest two.
func BenchmarkStableRestore(b *testing.B) {
	const gens = 40
	fs, err := NewFileStorage(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	s := NewCompressedStorage(fs)
	state := floatImage(40<<10, 0)
	for g := uint64(1); g <= gens; g++ {
		if err := s.Write(g, 0, state); err != nil {
			b.Fatal(err)
		}
		if err := s.Commit(g, 1); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(state)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen, _, ok, err := s.Latest()
		if err != nil || !ok || gen != gens {
			b.Fatalf("Latest = %d, %v, %v", gen, ok, err)
		}
		got, err := s.Read(gen, 0)
		if err != nil || len(got) != len(state) {
			b.Fatalf("Read: %d bytes, %v", len(got), err)
		}
	}
}
