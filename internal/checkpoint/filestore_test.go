//go:build unix

package checkpoint

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"syscall"
	"testing"
)

func TestFileStorageRecyclesAcrossHandles(t *testing.T) {
	// As under the proc transport: each rank writes through its own
	// handle and a separate handle commits, so spares can only be shared
	// through the directory. The directory must never hold more than the
	// two newest committed generations and the one being written, and
	// after warm-up every image, manifest and generation directory must
	// be a recycled inode.
	dir := t.TempDir()
	const ranks, gens, warm = 8, 100, 5
	open := func() *FileStorage {
		s, err := NewFileStorage(dir)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	writers := make([]*FileStorage, ranks)
	for r := range writers {
		writers[r] = open()
	}
	committer, reader := open(), open()
	image := func(g uint64, rank int) []byte {
		// Lengths vary, so recycled files are both grown and truncated.
		return bytes.Repeat([]byte{byte(g), byte(rank), 0x5A}, 200+int(g*37+uint64(rank)*11)%150)
	}
	genDirs := func() []uint64 {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var out []uint64
		for _, e := range entries {
			if g, ok := parseGenDir(e.Name()); ok {
				out = append(out, g)
			}
		}
		slices.Sort(out)
		return out
	}
	ino := func(path string) uint64 {
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return info.Sys().(*syscall.Stat_t).Ino
	}
	fixed := map[uint64]bool{} // inodes seen in the 4 gens after warm-up
	for g := uint64(1); g <= gens; g++ {
		var wg sync.WaitGroup
		errs := make([]error, ranks)
		for r := range writers {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				errs[r] = writers[r].Write(g, r, image(g, r))
			}(r)
		}
		wg.Wait()
		for r, err := range errs {
			if err != nil {
				t.Fatalf("gen %d rank %d: %v", g, r, err)
			}
		}
		if on := genDirs(); len(on) > 3 || on[0]+2 < g {
			t.Fatalf("writing gen %d: directory holds gens %v", g, on)
		}
		if err := committer.Commit(g, ranks); err != nil {
			t.Fatalf("commit gen %d: %v", g, err)
		}
		if on := genDirs(); len(on) > 2 || on[0]+1 < g {
			t.Fatalf("after commit %d: directory holds gens %v", g, on)
		}
		latest, n, ok, err := reader.Latest()
		if err != nil || !ok || latest != g || n != ranks {
			t.Fatalf("Latest = (%d, %d, %v, %v), want gen %d", latest, n, ok, err, g)
		}
		paths := []string{committer.genDir(g), filepath.Join(committer.genDir(g), commitName)}
		for r := 0; r < ranks; r++ {
			got, err := reader.Read(g, r)
			if err != nil || !bytes.Equal(got, image(g, r)) {
				t.Fatalf("gen %d rank %d read back %d bytes, %v", g, r, len(got), err)
			}
			paths = append(paths, committer.rankPath(g, r))
		}
		for _, p := range paths {
			switch i := ino(p); {
			case g < warm:
			case g < warm+4:
				fixed[i] = true
			case !fixed[i]:
				t.Fatalf("gen %d: %s is a new inode %d", g, filepath.Base(p), i)
			}
		}
	}
	if len(fixed) > 4+3+3*ranks {
		t.Fatalf("%d inodes in circulation, want at most 4 dirs, 3 manifests and %d images", len(fixed), 3*ranks)
	}
}
