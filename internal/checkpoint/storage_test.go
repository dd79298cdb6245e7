package checkpoint

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// storageUnderTest runs the same conformance suite against both backends.
func storageUnderTest(t *testing.T, name string, make func(t *testing.T) Storage) {
	t.Run(name+"/WriteCommitRead", func(t *testing.T) {
		s := make(t)
		for rank := 0; rank < 3; rank++ {
			if err := s.Write(1, rank, []byte{byte(rank), 0xAA}); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Commit(1, 3); err != nil {
			t.Fatal(err)
		}
		for rank := 0; rank < 3; rank++ {
			state, err := s.Read(1, rank)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(state, []byte{byte(rank), 0xAA}) {
				t.Fatalf("rank %d state %v", rank, state)
			}
		}
	})

	t.Run(name+"/LatestTracksNewest", func(t *testing.T) {
		s := make(t)
		if _, _, ok, err := s.Latest(); err != nil || ok {
			t.Fatalf("empty store Latest = ok=%v err=%v", ok, err)
		}
		for gen := uint64(1); gen <= 3; gen++ {
			if err := s.Write(gen, 0, []byte{byte(gen)}); err != nil {
				t.Fatal(err)
			}
			if err := s.Commit(gen, 1); err != nil {
				t.Fatal(err)
			}
		}
		gen, n, ok, err := s.Latest()
		if err != nil || !ok || gen != 3 || n != 1 {
			t.Fatalf("Latest = %d/%d/%v/%v", gen, n, ok, err)
		}
	})

	t.Run(name+"/CommitRequiresAllRanks", func(t *testing.T) {
		s := make(t)
		if err := s.Write(1, 0, []byte("only rank 0")); err != nil {
			t.Fatal(err)
		}
		if err := s.Commit(1, 2); !errors.Is(err, ErrIncomplete) {
			t.Fatalf("partial commit err = %v, want ErrIncomplete", err)
		}
	})

	t.Run(name+"/ReadUncommittedFails", func(t *testing.T) {
		s := make(t)
		if err := s.Write(7, 0, []byte("x")); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Read(7, 0); !errors.Is(err, ErrNotCommitted) {
			t.Fatalf("read uncommitted err = %v", err)
		}
	})

	t.Run(name+"/CommitIdempotent", func(t *testing.T) {
		s := make(t)
		if err := s.Write(1, 0, []byte("x")); err != nil {
			t.Fatal(err)
		}
		if err := s.Commit(1, 1); err != nil {
			t.Fatal(err)
		}
		if err := s.Commit(1, 1); err != nil {
			t.Fatalf("re-commit err = %v", err)
		}
	})

	t.Run(name+"/OverwriteIsBenign", func(t *testing.T) {
		s := make(t)
		// Replicas of a rank may both write identical state.
		if err := s.Write(1, 0, []byte("state")); err != nil {
			t.Fatal(err)
		}
		if err := s.Write(1, 0, []byte("state")); err != nil {
			t.Fatal(err)
		}
		if err := s.Commit(1, 1); err != nil {
			t.Fatal(err)
		}
		got, err := s.Read(1, 0)
		if err != nil || string(got) != "state" {
			t.Fatalf("read %q err %v", got, err)
		}
	})

	t.Run(name+"/DropRetreatsLatest", func(t *testing.T) {
		s := make(t)
		for gen := uint64(1); gen <= 2; gen++ {
			if err := s.Write(gen, 0, []byte{byte(gen)}); err != nil {
				t.Fatal(err)
			}
			if err := s.Commit(gen, 1); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Drop(2); err != nil {
			t.Fatal(err)
		}
		gen, _, ok, err := s.Latest()
		if err != nil || !ok || gen != 1 {
			t.Fatalf("after drop: Latest = %d/%v/%v", gen, ok, err)
		}
		if err := s.Drop(1); err != nil {
			t.Fatal(err)
		}
		if _, _, ok, _ := s.Latest(); ok {
			t.Fatal("store should be empty after dropping everything")
		}
	})

	t.Run(name+"/ReadMissingRank", func(t *testing.T) {
		s := make(t)
		if err := s.Write(1, 0, []byte("x")); err != nil {
			t.Fatal(err)
		}
		if err := s.Commit(1, 1); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Read(1, 5); !errors.Is(err, ErrNoCheckpoint) {
			t.Fatalf("missing rank err = %v", err)
		}
	})

	t.Run(name+"/WriteRejectsNegativeRank", func(t *testing.T) {
		s := make(t)
		if err := s.Write(1, -1, nil); err == nil {
			t.Fatal("negative rank accepted")
		}
	})
}

func TestMemStorage(t *testing.T) {
	storageUnderTest(t, "mem", func(t *testing.T) Storage { return NewMemStorage() })
}

func TestFileStorage(t *testing.T) {
	storageUnderTest(t, "file", func(t *testing.T) Storage {
		s, err := NewFileStorage(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		return s
	})
}

func TestMemStorageIsolatesBuffers(t *testing.T) {
	s := NewMemStorage()
	buf := []byte("mutable")
	if err := s.Write(1, 0, buf); err != nil {
		t.Fatal(err)
	}
	copy(buf, "XXXXXXX")
	if err := s.Commit(1, 1); err != nil {
		t.Fatal(err)
	}
	got, err := s.Read(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "mutable" {
		t.Fatalf("storage aliased caller buffer: %q", got)
	}
	// Mutating the returned buffer must not poison the store.
	got[0] = 'Z'
	again, err := s.Read(1, 0)
	if err != nil || string(again) != "mutable" {
		t.Fatalf("reread %q err %v", again, err)
	}
}

func TestFileStorageSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s1, err := NewFileStorage(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Write(4, 0, []byte("persisted")); err != nil {
		t.Fatal(err)
	}
	if err := s1.Commit(4, 1); err != nil {
		t.Fatal(err)
	}
	// A restart opens a new handle over the same directory.
	s2, err := NewFileStorage(dir)
	if err != nil {
		t.Fatal(err)
	}
	gen, n, ok, err := s2.Latest()
	if err != nil || !ok || gen != 4 || n != 1 {
		t.Fatalf("Latest after reopen = %d/%d/%v/%v", gen, n, ok, err)
	}
	state, err := s2.Read(4, 0)
	if err != nil || string(state) != "persisted" {
		t.Fatalf("read %q err %v", state, err)
	}
}

func TestParseGenDir(t *testing.T) {
	cases := []struct {
		name string
		gen  uint64
		ok   bool
	}{
		{"gen-0", 0, true},
		{"gen-17", 17, true},
		{"gen-", 0, false},
		{"gen-x", 0, false},
		{"other", 0, false},
	}
	for _, tc := range cases {
		gen, ok := parseGenDir(tc.name)
		if gen != tc.gen || ok != tc.ok {
			t.Errorf("parseGenDir(%q) = %d/%v, want %d/%v", tc.name, gen, ok, tc.gen, tc.ok)
		}
	}
}

func TestUint64Codec(t *testing.T) {
	f := func(vs []uint64) bool {
		got, err := decodeUint64s(encodeUint64s(vs))
		if err != nil || len(got) != len(vs) {
			return false
		}
		for i := range vs {
			if got[i] != vs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := decodeUint64s(make([]byte, 3)); err == nil {
		t.Error("ragged payload accepted")
	}
	if _, err := decodeUint64(encodeUint64s([]uint64{1, 2})); err == nil {
		t.Error("two-value payload accepted as scalar")
	}
	v, err := decodeUint64(encodeUint64(42))
	if err != nil || v != 42 {
		t.Errorf("scalar round trip = %d/%v", v, err)
	}
}

func TestStoragePropertyRoundTrip(t *testing.T) {
	s := NewMemStorage()
	f := func(genRaw uint8, rankRaw uint8, state []byte) bool {
		gen := uint64(genRaw)
		rank := int(rankRaw % 16)
		if err := s.Write(gen, rank, state); err != nil {
			return false
		}
		// Commit over just this rank requires ranks [0, rank] present;
		// fill the gaps.
		for r := 0; r < rank; r++ {
			if err := s.Write(gen, r, nil); err != nil {
				return false
			}
		}
		if err := s.Commit(gen, rank+1); err != nil {
			return false
		}
		got, err := s.Read(gen, rank)
		return err == nil && bytes.Equal(got, state)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFileStorageCorruptManifest(t *testing.T) {
	dir := t.TempDir()
	s, err := NewFileStorage(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Write(1, 0, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(1, 1); err != nil {
		t.Fatal(err)
	}
	// Corrupt the COMMIT manifest; Latest must surface an error, not
	// silently treat the generation as valid.
	if err := writeFileHelper(fmt.Sprintf("%s/gen-1/COMMIT", dir), []byte("{not json")); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := s.Latest(); err == nil {
		t.Fatal("corrupt manifest not detected")
	}
}

func TestFileStorageConcurrentCommitAcrossHandles(t *testing.T) {
	// Under the proc transport every worker process opens its own
	// FileStorage over the shared directory, so the in-process mutex
	// offers no protection between committers. Hammer one generation
	// from many independent handles: every Commit must succeed (losing
	// the publication race to a peer is success).
	dir := t.TempDir()
	writer, err := NewFileStorage(dir)
	if err != nil {
		t.Fatal(err)
	}
	const ranks = 4
	for r := 0; r < ranks; r++ {
		if err := writer.Write(3, r, []byte{byte(r)}); err != nil {
			t.Fatal(err)
		}
	}
	const committers = 8
	errs := make([]error, committers)
	var wg sync.WaitGroup
	for i := 0; i < committers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, err := NewFileStorage(dir)
			if err != nil {
				errs[i] = err
				return
			}
			errs[i] = s.Commit(3, ranks)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("committer %d: %v", i, err)
		}
	}
	gen, n, ok, err := writer.Latest()
	if err != nil || !ok || gen != 3 || n != ranks {
		t.Fatalf("Latest = (%d, %d, %v, %v), want (3, %d, true, nil)", gen, n, ok, err, ranks)
	}
	// No orphaned tmp files survive the race.
	entries, err := os.ReadDir(fmt.Sprintf("%s/gen-3", dir))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Fatalf("orphaned tmp file %s", e.Name())
		}
	}
}

// commitGens writes one image per generation in gens (its first byte is
// the generation) and commits each.
func commitGens(t *testing.T, s Storage, gens ...uint64) {
	t.Helper()
	for _, g := range gens {
		if err := s.Write(g, 0, []byte{byte(g), 0xAB}); err != nil {
			t.Fatal(err)
		}
		if err := s.Commit(g, 1); err != nil {
			t.Fatal(err)
		}
	}
}

func TestFileStorageLatestSkipsUncommittedNewest(t *testing.T) {
	s, err := NewFileStorage(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	commitGens(t, s, 1, 2)
	// A checkpoint cut short: gen 3 has its image but no manifest.
	if err := s.Write(3, 0, []byte("torn")); err != nil {
		t.Fatal(err)
	}
	gen, n, ok, err := s.Latest()
	if err != nil || !ok || gen != 2 || n != 1 {
		t.Fatalf("Latest = (%d, %d, %v, %v), want (2, 1, true, nil)", gen, n, ok, err)
	}
}

func TestFileStorageLatestIgnoresCorruptOlderManifest(t *testing.T) {
	dir := t.TempDir()
	s, err := NewFileStorage(dir)
	if err != nil {
		t.Fatal(err)
	}
	commitGens(t, s, 1, 2, 10)
	// Generation order is numeric, not lexical: "gen-2" sorts after
	// "gen-10" as a string, and its manifest is the corrupt one.
	if err := writeFileHelper(fmt.Sprintf("%s/gen-2/COMMIT", dir), []byte("{not json")); err != nil {
		t.Fatal(err)
	}
	gen, _, ok, err := s.Latest()
	if err != nil || !ok || gen != 10 {
		t.Fatalf("Latest = (%d, %v, %v), want gen 10 past the corrupt gen 2", gen, ok, err)
	}
}

func TestFileStorageReadsRaceNewerCommits(t *testing.T) {
	// Restores read through their own handle while the job's writer
	// publishes newer generations: Latest must only ever name a whole
	// generation, and Read of it must return that generation's image.
	// The store keeps two committed generations, so a Read may fail,
	// but only once a fresh Latest is two commits past the generation
	// it asked for, and never with another image's bytes.
	dir := t.TempDir()
	writer, err := NewFileStorage(dir)
	if err != nil {
		t.Fatal(err)
	}
	reader, err := NewFileStorage(dir)
	if err != nil {
		t.Fatal(err)
	}
	const gens, ranks = 60, 3
	image := func(g uint64, rank int) []byte {
		return bytes.Repeat([]byte{byte(g), byte(rank)}, 512)
	}
	commitGens(t, writer, 0)
	done := make(chan struct{})
	var writeErr error
	go func() {
		defer close(done)
		for g := uint64(1); g <= gens; g++ {
			for r := 0; r < ranks; r++ {
				if writeErr = writer.Write(g, r, image(g, r)); writeErr != nil {
					return
				}
			}
			if writeErr = writer.Commit(g, ranks); writeErr != nil {
				return
			}
		}
	}()
	var wg sync.WaitGroup
	var reads atomic.Int64
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			last := uint64(0)
			for {
				select {
				case <-done:
					return
				default:
				}
				gen, n, ok, err := reader.Latest()
				if err != nil || !ok {
					t.Errorf("Latest = (%d, %v, %v)", gen, ok, err)
					return
				}
				if gen < last {
					t.Errorf("Latest went back from %d to %d", last, gen)
					return
				}
				last = gen
				if gen == 0 {
					continue // the seed generation has one rank
				}
				got, err := reader.Read(gen, rank)
				if err != nil {
					fresh, _, _, lerr := reader.Latest()
					if lerr != nil || fresh < gen+2 {
						t.Errorf("gen %d rank %d: %v while Latest = %d, %v", gen, rank, err, fresh, lerr)
						return
					}
					continue
				}
				if n != ranks || !bytes.Equal(got, image(gen, rank)) {
					t.Errorf("gen %d rank %d: n=%d, image mismatch", gen, rank, n)
					return
				}
				reads.Add(1)
			}
		}(r)
	}
	<-done
	wg.Wait()
	if writeErr != nil {
		t.Fatal(writeErr)
	}
	if reads.Load() == 0 {
		t.Fatal("no Read succeeded")
	}
	if gen, _, _, err := reader.Latest(); err != nil || gen != gens {
		t.Fatalf("final Latest = %d, %v; want %d", gen, err, gens)
	}
}

func TestFileStorageReadRejectsBadImages(t *testing.T) {
	// A committed generation whose image file is truncated, bit-flipped
	// or holds another (gen, rank)'s image must fail Read with
	// ErrNoCheckpoint rather than return the file's bytes.
	dir := t.TempDir()
	s, err := NewFileStorage(dir)
	if err != nil {
		t.Fatal(err)
	}
	const ranks = 4
	for gen := uint64(1); gen <= 2; gen++ {
		for r := 0; r < ranks; r++ {
			if err := s.Write(gen, r, bytes.Repeat([]byte{byte(gen), byte(r)}, 300)); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Commit(gen, ranks); err != nil {
			t.Fatal(err)
		}
	}
	path := func(gen uint64, rank int) string { return fmt.Sprintf("%s/gen-%d/rank-%d.ckpt", dir, gen, rank) }
	read := func(gen uint64, rank int) []byte {
		raw, err := os.ReadFile(path(gen, rank))
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	flipped := read(2, 1)
	flipped[len(flipped)-7] ^= 0x10
	bad := [ranks][]byte{
		read(2, 0)[:300], // truncated
		flipped,          // one payload bit flipped
		read(1, 2),       // gen 1's image of the same rank
		read(2, 1),       // another rank's image of the same gen
	}
	for r, img := range bad {
		if err := writeFileHelper(path(2, r), img); err != nil {
			t.Fatal(err)
		}
	}
	for r := 0; r < ranks; r++ {
		if got, err := s.Read(2, r); !errors.Is(err, ErrNoCheckpoint) {
			t.Errorf("rank %d: Read = %d bytes, %v; want ErrNoCheckpoint", r, len(got), err)
		}
	}
	if got, err := s.Read(1, 1); err != nil || !bytes.Equal(got, bytes.Repeat([]byte{1, 1}, 300)) {
		t.Fatalf("intact image: %d bytes, %v", len(got), err)
	}
}
