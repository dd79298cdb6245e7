package checkpoint

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
)

// FileStorage is a directory-backed Storage with the layout
//
//	<dir>/gen-<n>/rank-<i>.ckpt
//	<dir>/gen-<n>/COMMIT        (JSON manifest, written via tmp+rename)
//
// Rank images are written to a temporary name and renamed into place, and
// the COMMIT manifest is the atomic publication point, so readers never
// observe a torn generation — the property "stable storage" demands.
// That is also why Latest and Read take no lock: every file they open
// was published whole by a rename. mu serialises this handle's writers
// only.
type FileStorage struct {
	dir string
	mu  sync.Mutex
}

var _ Storage = (*FileStorage)(nil)

// commitManifest is the COMMIT file payload.
type commitManifest struct {
	Generation uint64 `json:"generation"`
	Ranks      int    `json:"ranks"`
}

// NewFileStorage creates (if needed) and opens a checkpoint directory.
func NewFileStorage(dir string) (*FileStorage, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: creating %s: %w", dir, err)
	}
	return &FileStorage{dir: dir}, nil
}

func (s *FileStorage) genDir(gen uint64) string {
	return filepath.Join(s.dir, "gen-"+strconv.FormatUint(gen, 10))
}

func (s *FileStorage) rankPath(gen uint64, rank int) string {
	return filepath.Join(s.genDir(gen), "rank-"+strconv.Itoa(rank)+".ckpt")
}

// Write implements Storage.
func (s *FileStorage) Write(gen uint64, rank int, state []byte) error {
	if rank < 0 {
		return fmt.Errorf("checkpoint: write rank %d", rank)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	dir := s.genDir(gen)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	tmp, err := os.CreateTemp(dir, "rank-*.tmp")
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	name := tmp.Name()
	if _, err := tmp.Write(state); err != nil {
		tmp.Close()
		os.Remove(name)
		return fmt.Errorf("checkpoint: writing image: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := os.Rename(name, s.rankPath(gen, rank)); err != nil {
		os.Remove(name)
		return fmt.Errorf("checkpoint: publishing image: %w", err)
	}
	return nil
}

// Commit implements Storage.
func (s *FileStorage) Commit(gen uint64, n int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	commitPath := filepath.Join(s.genDir(gen), "COMMIT")
	if _, err := os.Stat(commitPath); err == nil {
		return nil // already committed
	}
	for rank := 0; rank < n; rank++ {
		if _, err := os.Stat(s.rankPath(gen, rank)); err != nil {
			return fmt.Errorf("commit gen %d rank %d: %w", gen, rank, ErrIncomplete)
		}
	}
	payload, err := json.Marshal(commitManifest{Generation: gen, Ranks: n})
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	// The mutex only serialises committers in this process; under the
	// proc transport every worker process holds its own FileStorage over
	// the same directory, so the tmp name must be unique per committer
	// and losing a commit race to a peer is success, not failure.
	tmp, err := os.CreateTemp(s.genDir(gen), "COMMIT-*.tmp")
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	name := tmp.Name()
	if _, err := tmp.Write(payload); err != nil {
		tmp.Close()
		os.Remove(name)
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := os.Rename(name, commitPath); err != nil {
		os.Remove(name)
		if _, statErr := os.Stat(commitPath); statErr == nil {
			return nil // a concurrent process committed first
		}
		return fmt.Errorf("checkpoint: %w", err)
	}
	return nil
}

// Latest implements Storage. It walks the generations newest first and
// stops at the first committed one, so a restart reads one manifest
// however many generations the directory holds. An uncommitted newer
// generation (a checkpoint cut short) is skipped; a corrupt manifest on
// the generation Latest would return is an error, while one on an older
// generation is never read.
func (s *FileStorage) Latest() (uint64, int, bool, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return 0, 0, false, fmt.Errorf("checkpoint: %w", err)
	}
	gens := make([]uint64, 0, len(entries))
	for _, e := range entries {
		if gen, ok := parseGenDir(e.Name()); ok && e.IsDir() {
			gens = append(gens, gen)
		}
	}
	slices.Sort(gens)
	for i := len(gens) - 1; i >= 0; i-- {
		manifest, err := s.readManifest(gens[i])
		if errors.Is(err, fs.ErrNotExist) {
			continue // uncommitted, or dropped since the listing
		}
		if err != nil {
			return 0, 0, false, err
		}
		return gens[i], manifest.Ranks, true, nil
	}
	return 0, 0, false, nil
}

func parseGenDir(name string) (uint64, bool) {
	const prefix = "gen-"
	if len(name) <= len(prefix) || name[:len(prefix)] != prefix {
		return 0, false
	}
	gen, err := strconv.ParseUint(name[len(prefix):], 10, 64)
	return gen, err == nil
}

func (s *FileStorage) readManifest(gen uint64) (commitManifest, error) {
	raw, err := os.ReadFile(filepath.Join(s.genDir(gen), "COMMIT"))
	if err != nil {
		return commitManifest{}, err
	}
	var m commitManifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return commitManifest{}, fmt.Errorf("checkpoint: corrupt manifest gen %d: %w", gen, err)
	}
	return m, nil
}

// Read implements Storage.
func (s *FileStorage) Read(gen uint64, rank int) ([]byte, error) {
	if _, err := s.readManifest(gen); err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, fmt.Errorf("read gen %d: %w", gen, ErrNotCommitted)
		}
		return nil, err
	}
	state, err := os.ReadFile(s.rankPath(gen, rank))
	if err != nil {
		return nil, fmt.Errorf("read gen %d rank %d: %w", gen, rank, ErrNoCheckpoint)
	}
	return state, nil
}

// Drop implements Storage.
func (s *FileStorage) Drop(gen uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := os.RemoveAll(s.genDir(gen)); err != nil {
		return fmt.Errorf("checkpoint: dropping gen %d: %w", gen, err)
	}
	return nil
}
