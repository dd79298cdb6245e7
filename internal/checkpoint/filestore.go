package checkpoint

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// FileStorage is a directory-backed Storage with the layout
//
//	<dir>/gen-<n>/rank-<i>.ckpt   image: header | payload
//	<dir>/gen-<n>/COMMIT          JSON manifest; its rename publishes gen n
//	<dir>/spare-<n>.<tag>/        retired gen n (zero-padded), its files awaiting reuse
//	<dir>/next-gen/               an emptied spare, the next gen-<n> to be
//
// It keeps the two newest committed generations and any being written.
// Commit retires (drops) every older generation by renaming its
// directory to a spare, and the next generation's writers recycle its
// files: a writer claims the spare of its own name by renaming it into
// the generation it writes under a tmp name, overwrites it in place,
// truncates it and renames it to its final name. The first writer of a
// generation renames next-gen into place. In steady state a checkpoint
// creates no inode.
//
// Everything is coordinated through the file system alone, because
// under the proc transport each worker process opens its own handle over
// the shared directory: a rename is the exclusive claim on a spare, and
// the handle holds no lock. Files reach their final names only whole, so
// a COMMIT manifest names a generation whose images were all written.
// A reader may still race a retirement and then read a file that a
// writer is overwriting for a later generation, so every image carries a
// header (magic, generation, rank, length, CRC-32C) and Read returns an
// error, never another image's bytes.
type FileStorage struct {
	dir string
	tag string // unique among live handles; names this handle's tmp files and spares
	seq atomic.Uint64
}

var _ Storage = (*FileStorage)(nil)

// commitManifest is the COMMIT file payload.
type commitManifest struct {
	Generation uint64 `json:"generation"`
	Ranks      int    `json:"ranks"`
}

const (
	commitName    = "COMMIT"
	sparePrefix   = "spare-"
	nextGenName   = "next-gen"
	maxFullSpares = 2 // spares still holding files; more are removed
)

// handles numbers this process's FileStorage handles for their tags.
var handles atomic.Uint64

// NewFileStorage creates (if needed) and opens a checkpoint directory.
func NewFileStorage(dir string) (*FileStorage, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: creating %s: %w", dir, err)
	}
	tag := strconv.FormatInt(int64(os.Getpid()), 36) + "." +
		strconv.FormatInt(time.Now().UnixNano(), 36) + "." +
		strconv.FormatUint(handles.Add(1), 36)
	return &FileStorage{dir: dir, tag: tag}, nil
}

func (s *FileStorage) genDir(gen uint64) string {
	return filepath.Join(s.dir, "gen-"+strconv.FormatUint(gen, 10))
}

func rankName(rank int) string { return "rank-" + strconv.Itoa(rank) + ".ckpt" }

func (s *FileStorage) rankPath(gen uint64, rank int) string {
	return filepath.Join(s.genDir(gen), rankName(rank))
}

// unique returns a name no other live handle or call of this one uses.
func (s *FileStorage) unique(prefix string) string {
	return prefix + s.tag + "." + strconv.FormatUint(s.seq.Add(1), 36)
}

// Image header layout, little-endian: magic, generation, rank, payload
// length, CRC-32C of the payload.
const imageHeaderLen = 4 + 8 + 4 + 8 + 4

var (
	imageMagic = [4]byte{'C', 'K', 'I', 'M'}
	castagnoli = crc32.MakeTable(crc32.Castagnoli)
)

func putImageHeader(hdr []byte, gen uint64, rank int, payload []byte) {
	copy(hdr, imageMagic[:])
	binary.LittleEndian.PutUint64(hdr[4:], gen)
	binary.LittleEndian.PutUint32(hdr[12:], uint32(rank))
	binary.LittleEndian.PutUint64(hdr[16:], uint64(len(payload)))
	binary.LittleEndian.PutUint32(hdr[24:], crc32.Checksum(payload, castagnoli))
}

// checkImage returns the payload of image if its header names (gen,
// rank) and its length and checksum match.
func checkImage(image []byte, gen uint64, rank int) ([]byte, error) {
	if len(image) < imageHeaderLen || [4]byte(image[:4]) != imageMagic {
		return nil, errors.New("no image header")
	}
	hdr, payload := image[:imageHeaderLen], image[imageHeaderLen:]
	if g, r := binary.LittleEndian.Uint64(hdr[4:]), binary.LittleEndian.Uint32(hdr[12:]); g != gen || r != uint32(rank) {
		return nil, fmt.Errorf("image of gen %d rank %d", g, r)
	}
	if n := binary.LittleEndian.Uint64(hdr[16:]); n != uint64(len(payload)) {
		return nil, fmt.Errorf("%d payload bytes, header says %d", len(payload), n)
	}
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(hdr[24:]) {
		return nil, errors.New("checksum mismatch")
	}
	return payload, nil
}

// listDir returns the names in the storage directory, unsorted.
func (s *FileStorage) listDir() ([]string, error) {
	f, err := os.Open(s.dir)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	defer f.Close()
	names, err := f.Readdirnames(-1)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	return names, nil
}

// Write implements Storage.
func (s *FileStorage) Write(gen uint64, rank int, state []byte) error {
	if rank < 0 {
		return fmt.Errorf("checkpoint: write rank %d", rank)
	}
	names, err := s.listDir()
	if err != nil {
		return err
	}
	var hdr [imageHeaderLen]byte
	putImageHeader(hdr[:], gen, rank, state)
	if err := s.publish(gen, rankName(rank), names, hdr[:], state); err != nil {
		return fmt.Errorf("checkpoint: writing image: %w", err)
	}
	return nil
}

// publish writes parts, concatenated, to name in gen's directory, which
// it makes if names (a listing of the storage directory) lacks it. The
// file is a recycled spare of the same name when one is left, else a
// new one, written under a tmp name and renamed into place. Renaming
// over a file of the same name replaces it, so racing writers of one
// (gen, name) both succeed.
func (s *FileStorage) publish(gen uint64, name string, names []string, parts ...[]byte) error {
	dir := s.genDir(gen)
	if !slices.Contains(names, filepath.Base(dir)) {
		if err := s.makeGenDir(dir); err != nil {
			return err
		}
	}
	tmp := filepath.Join(dir, s.unique(name+".")+".tmp")
	f, err := s.claim(name, tmp, names)
	if err != nil {
		os.Remove(tmp)
		return err
	}
	var size int64
	for _, p := range parts {
		if _, err = f.Write(p); err != nil {
			break
		}
		size += int64(len(p))
	}
	if err == nil {
		err = f.Truncate(size)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, filepath.Join(dir, name))
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}

// makeGenDir makes a generation's directory, preferably by renaming the
// emptied spare next-gen into place. Losing either race to another
// writer of the generation is success.
func (s *FileStorage) makeGenDir(dir string) error {
	if os.Rename(filepath.Join(s.dir, nextGenName), dir) == nil {
		return nil
	}
	if err := os.Mkdir(dir, 0o755); err != nil && !errors.Is(err, fs.ErrExist) {
		return err
	}
	return nil
}

// claim opens tmp for writing: a spare's file called name renamed there
// (the rename is the claim, so one writer wins each spare), or, with
// none left, a new file.
func (s *FileStorage) claim(name, tmp string, names []string) (*os.File, error) {
	for _, n := range names {
		if !strings.HasPrefix(n, sparePrefix) {
			continue
		}
		if os.Rename(filepath.Join(s.dir, n, name), tmp) == nil {
			return os.OpenFile(tmp, os.O_WRONLY, 0)
		}
	}
	return os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
}

// Commit implements Storage. Once the manifest is published it retires
// the generations no restart can need any more; see retain.
func (s *FileStorage) Commit(gen uint64, n int) error {
	if _, err := os.Stat(filepath.Join(s.genDir(gen), commitName)); err == nil {
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
	names, err := s.listDir()
	if err != nil {
		return err
	}
	// Under the proc transport committers of one generation may race in
	// separate processes; each publishes the same manifest.
	if err := s.publish(gen, commitName, names, payload); err != nil {
		return fmt.Errorf("checkpoint: publishing commit: %w", err)
	}
	return s.retain(gen, names)
}

// retain keeps gen, just committed, and the newest committed generation
// below it, so a restore that took Latest just before gen's commit still
// reads the generation it was told. Every generation below that one is
// retired to a spare, oldest first, so a Latest walking newest first
// that finds a generation gone knows every older one is gone too. Torn
// generations between the two are retired once a newer commit passes
// them. Spares the writers have emptied become next-gen or are removed,
// and at most maxFullSpares spares still holding files are kept: a torn
// generation's spare, or one holding a dead writer's tmp file, may
// never empty.
func (s *FileStorage) retain(gen uint64, names []string) error {
	var older []uint64
	var spares []string
	haveNext := false
	for _, n := range names {
		if g, ok := parseGenDir(n); ok && g < gen {
			older = append(older, g)
		} else if strings.HasPrefix(n, sparePrefix) {
			spares = append(spares, n)
		} else if n == nextGenName {
			haveNext = true
		}
	}
	slices.Sort(older)
	retire := older
	for i := len(older) - 1; i >= 0; i-- {
		if _, err := os.Stat(filepath.Join(s.genDir(older[i]), commitName)); err == nil {
			retire = older[:i]
			break
		}
	}
	for _, g := range retire {
		if err := s.Drop(g); err != nil {
			return err
		}
	}
	full := make([]string, 0, len(spares))
	for _, n := range spares {
		path := filepath.Join(s.dir, n)
		if !isEmptyDir(path) {
			full = append(full, n)
		} else if haveNext || os.Rename(path, filepath.Join(s.dir, nextGenName)) != nil {
			os.Remove(path)
		} else {
			haveNext = true
		}
	}
	if extra := len(full) + len(retire) - maxFullSpares; extra > 0 {
		slices.Sort(full) // oldest retired first
		for _, n := range full[:min(extra, len(full))] {
			if err := os.RemoveAll(filepath.Join(s.dir, n)); err != nil {
				return fmt.Errorf("checkpoint: removing spare: %w", err)
			}
		}
	}
	return nil
}

// isEmptyDir reports whether path is a directory with no entries. Files
// only ever leave a spare, so an empty spare stays empty.
func isEmptyDir(path string) bool {
	f, err := os.Open(path)
	if err != nil {
		return false
	}
	defer f.Close()
	_, err = f.Readdirnames(1)
	return err == io.EOF
}

// Latest implements Storage. It walks the generations newest first and
// stops at the first committed one, so a restart reads one manifest. An
// uncommitted newer generation (a checkpoint cut short, or one being
// written) is skipped; a corrupt manifest on the generation Latest would
// return is an error, while one on an older generation is never read.
// A generation retired since the listing means every older one is gone
// too (retain retires oldest first), so the walk starts over from a new
// listing rather than report an older generation or none.
func (s *FileStorage) Latest() (uint64, int, bool, error) {
	for {
		names, err := s.listDir()
		if err != nil {
			return 0, 0, false, err
		}
		gens := make([]uint64, 0, len(names))
		for _, n := range names {
			if gen, ok := parseGenDir(n); ok {
				gens = append(gens, gen)
			}
		}
		slices.Sort(gens)
		retired := false
		for i := len(gens) - 1; i >= 0 && !retired; i-- {
			manifest, err := s.readManifest(gens[i])
			switch {
			case err == nil:
				return gens[i], manifest.Ranks, true, nil
			case s.gone(gens[i]):
				retired = true
			case !errors.Is(err, fs.ErrNotExist):
				return 0, 0, false, err
			}
		}
		if !retired {
			return 0, 0, false, nil
		}
	}
}

// gone reports whether gen's directory no longer exists.
func (s *FileStorage) gone(gen uint64) bool {
	_, err := os.Stat(s.genDir(gen))
	return errors.Is(err, fs.ErrNotExist)
}

func parseGenDir(name string) (uint64, bool) {
	const prefix = "gen-"
	if len(name) <= len(prefix) || name[:len(prefix)] != prefix {
		return 0, false
	}
	gen, err := strconv.ParseUint(name[len(prefix):], 10, 64)
	return gen, err == nil
}

// readManifest reads gen's manifest. One that names another generation
// is corrupt; it can be read only from a manifest file recycled after
// its generation was retired.
func (s *FileStorage) readManifest(gen uint64) (commitManifest, error) {
	raw, err := os.ReadFile(filepath.Join(s.genDir(gen), commitName))
	if err != nil {
		return commitManifest{}, err
	}
	var m commitManifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return commitManifest{}, fmt.Errorf("checkpoint: corrupt manifest gen %d: %w", gen, err)
	}
	if m.Generation != gen {
		return commitManifest{}, fmt.Errorf("checkpoint: corrupt manifest gen %d: names gen %d", gen, m.Generation)
	}
	return m, nil
}

// Read implements Storage. An image whose header does not name (gen,
// rank), or whose length or checksum does not match, is rejected with
// ErrNoCheckpoint: it is torn, or it raced a retirement and was
// recycled for a later generation.
func (s *FileStorage) Read(gen uint64, rank int) ([]byte, error) {
	if _, err := s.readManifest(gen); err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, fmt.Errorf("read gen %d: %w", gen, ErrNotCommitted)
		}
		return nil, err
	}
	image, err := os.ReadFile(s.rankPath(gen, rank))
	if err != nil {
		return nil, fmt.Errorf("read gen %d rank %d: %w", gen, rank, ErrNoCheckpoint)
	}
	state, err := checkImage(image, gen, rank)
	if err != nil {
		return nil, fmt.Errorf("read gen %d rank %d: %w: %v", gen, rank, ErrNoCheckpoint, err)
	}
	return state, nil
}

// Drop implements Storage. It renames gen's directory to a spare, which
// drops the generation in one step and leaves its files for later
// writes. A generation already gone is no error. Spare names hold the
// generation zero-padded, so they sort by it.
func (s *FileStorage) Drop(gen uint64) error {
	spare := filepath.Join(s.dir, s.unique(fmt.Sprintf("%s%020d.", sparePrefix, gen)))
	if err := os.Rename(s.genDir(gen), spare); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("checkpoint: dropping gen %d: %w", gen, err)
	}
	return nil
}
