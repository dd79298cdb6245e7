package checkpoint

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"runtime"
	"slices"
	"sync"

	"repro/internal/obs"
)

// deflateLevel is the one flate level images are written at. On the
// 320 images of a cg-cr job, level 2 gives a 1.522x ratio at 36.0 MB/s
// against level 6's 1.537x at 25.8 MB/s (inflate runs at about 85 MB/s
// at every level; throughputs on a 2-CPU x86-64 VM). BestSpeed (1.405x, 64.7 MB/s) builds a writer of
// about 1.2 MB instead of 0.8 MB, which shows in the job's peak RSS.
const deflateLevel = 2

// compressor is a reusable flate.Writer and the buffer it writes into,
// both reset rather than rebuilt per image.
type compressor struct {
	buf bytes.Buffer
	w   *flate.Writer
}

// compressors is the bounded set of compressors every CompressedStorage
// shares: one per GOMAXPROCS, built on first use (so a GOMAXPROCS set
// after package init still counts). A flate.Writer carries about a
// megabyte of window and hash state, so one per concurrent writer, as a
// sync.Pool hands out and GC then discards, costs memory without buying
// speed: no more images compress at once than there are processors. A
// compressor is held only while it deflates, never across a call into
// another Storage, so holders always make progress and release it.
var compressors = sync.OnceValue(func() chan *compressor {
	n := runtime.GOMAXPROCS(0)
	set := make(chan *compressor, n)
	for i := 0; i < n; i++ {
		set <- new(compressor)
	}
	return set
})

// deflateCopy compresses data with a compressor from the shared set and
// returns a copy of the stream after headroom zero bytes for the caller's
// header, so the compressor is free again when it returns.
func deflateCopy(data []byte, headroom int) ([]byte, error) {
	set := compressors()
	c := <-set
	defer func() { set <- c }()
	c.buf.Reset()
	if c.w == nil {
		w, err := flate.NewWriter(&c.buf, deflateLevel)
		if err != nil {
			return nil, fmt.Errorf("checkpoint: compressor: %w", err)
		}
		c.w = w
	} else {
		c.w.Reset(&c.buf)
	}
	if _, err := c.w.Write(data); err != nil {
		return nil, fmt.Errorf("checkpoint: compressing: %w", err)
	}
	if err := c.w.Close(); err != nil {
		return nil, fmt.Errorf("checkpoint: compressing: %w", err)
	}
	out := make([]byte, headroom+c.buf.Len())
	copy(out[headroom:], c.buf.Bytes())
	return out, nil
}

// inflater is a reusable DEFLATE decoder: Reset (flate.Resetter) rebinds
// it to a new stream without reallocating its window and tables, and
// out keeps its capacity between images.
type inflater struct {
	src bytes.Reader
	r   io.ReadCloser
	out []byte
}

var inflaters = sync.Pool{New: func() any {
	in := new(inflater)
	in.r = flate.NewReader(&in.src)
	return in
}}

// getInflater takes an inflater from the pool and binds it to stream;
// the caller puts it back when done.
func getInflater(stream []byte) *inflater {
	in := inflaters.Get().(*inflater)
	in.src.Reset(stream)
	in.r.(flate.Resetter).Reset(&in.src, nil)
	return in
}

// inflate decodes one complete DEFLATE stream into in.out, reusing its
// capacity, and returns an exact-size copy.
func (in *inflater) inflate() ([]byte, error) {
	in.out = in.out[:0]
	for {
		if len(in.out) == cap(in.out) {
			in.out = slices.Grow(in.out, max(cap(in.out), 4<<10))
		}
		n, err := in.r.Read(in.out[len(in.out):cap(in.out)])
		in.out = in.out[:len(in.out)+n]
		if err == io.EOF {
			return bytes.Clone(in.out), nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// CompressedStorage wraps a Storage and DEFLATE-compresses rank images on
// the way in — the "checkpoint compression" optimisation the paper
// surveys (§2): "a method for reducing the checkpoint latency by reducing
// the size of process images before writing them to stable storage."
// Images are deflated at deflateLevel.
type CompressedStorage struct {
	// Inner is the backing store.
	Inner Storage
	// Shards, when > 1, splits images larger than ChunkSize into
	// fixed-size framed chunks compressed by up to Shards goroutines in
	// parallel (the self-describing container format below). 0 or 1
	// keeps the single-stream layout. Read handles both layouts
	// regardless of the current setting, so stores written with either
	// configuration stay restorable.
	Shards int
	// ChunkSize is the raw bytes per chunk in sharded mode; zero means
	// DefaultChunkSize. Images at or below one chunk use the
	// single-stream layout even when Shards > 1.
	ChunkSize int
	// Obs, when non-nil, accumulates checkpoint_raw_bytes_total and
	// checkpoint_compressed_bytes_total; their ratio is the achieved
	// compression ratio. Writes are rare, so counters resolve lazily.
	Obs *obs.Registry
}

// DefaultChunkSize is the sharded-mode chunk granularity: large enough
// that per-chunk DEFLATE window warmup doesn't hurt the ratio much,
// small enough that typical rank images split across several workers.
const DefaultChunkSize = 256 * 1024

// Both layouts open with a magic naming the layout and a checksum of
// the body that follows:
//
//	magic(4) | CRC-32C of the body (4, little-endian) | body
//
// The single-stream body (sumMagic) is one DEFLATE stream; the sharded
// body (shardMagic) is the chunk container writeSharded describes. The
// checksum covers the stored bytes, not the raw image: flate decodes
// many flipped streams without complaint (in a run of one byte value,
// every distance code copies the same bytes), and a flipped stored image
// is a fault of the medium that Read reports even when the flip happened
// to leave the image intact.
var (
	sumMagic   = [4]byte{0xD7, 'C', 'K', 'D'}
	shardMagic = [4]byte{0xD7, 'C', 'K', 'S'}
)

const sumHeaderLen = len(sumMagic) + 4

var _ Storage = (*CompressedStorage)(nil)

// NewCompressedStorage wraps inner.
func NewCompressedStorage(inner Storage) *CompressedStorage {
	return &CompressedStorage{Inner: inner}
}

// Write implements Storage.
func (s *CompressedStorage) Write(gen uint64, rank int, state []byte) error {
	chunkSize := s.ChunkSize
	if chunkSize <= 0 {
		chunkSize = DefaultChunkSize
	}
	if s.Shards > 1 && len(state) > chunkSize {
		return s.writeSharded(gen, rank, state, chunkSize)
	}
	out, err := deflateCopy(state, sumHeaderLen)
	if err != nil {
		return err
	}
	copy(out, sumMagic[:])
	binary.LittleEndian.PutUint32(out[len(sumMagic):], crc32.Checksum(out[sumHeaderLen:], castagnoli))
	s.Obs.Counter("checkpoint_raw_bytes_total").Add(uint64(len(state)))
	s.Obs.Counter("checkpoint_compressed_bytes_total").Add(uint64(len(out)))
	return s.Inner.Write(gen, rank, out)
}

// writeSharded compresses fixed-size chunks of state in parallel and
// frames them in the self-describing sharded container, the body of the
// shardMagic layout:
//
//	uvarint rawSize | uvarint chunkSize | uvarint nChunks |
//	nChunks × (uvarint frameLen | frameLen bytes of DEFLATE)
//
// Chunk i covers raw bytes [i·chunkSize, min((i+1)·chunkSize, rawSize)).
func (s *CompressedStorage) writeSharded(gen uint64, rank int, state []byte, chunkSize int) error {
	nChunks := (len(state) + chunkSize - 1) / chunkSize
	workers := s.Shards
	if workers > nChunks {
		workers = nChunks
	}
	frames := make([][]byte, nChunks)
	errs := make([]error, nChunks)
	var wg sync.WaitGroup
	next := make(chan int)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range next {
				lo := i * chunkSize
				hi := lo + chunkSize
				if hi > len(state) {
					hi = len(state)
				}
				frames[i], errs[i] = deflateCopy(state[lo:hi], 0)
			}
		}()
	}
	for i := 0; i < nChunks; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	out := make([]byte, sumHeaderLen, sumHeaderLen+3*binary.MaxVarintLen64+len(state)/2)
	copy(out, shardMagic[:])
	out = appendUvarint(out, uint64(len(state)))
	out = appendUvarint(out, uint64(chunkSize))
	out = appendUvarint(out, uint64(nChunks))
	for _, frame := range frames {
		out = appendUvarint(out, uint64(len(frame)))
		out = append(out, frame...)
	}
	binary.LittleEndian.PutUint32(out[len(shardMagic):], crc32.Checksum(out[sumHeaderLen:], castagnoli))
	s.Obs.Counter("checkpoint_raw_bytes_total").Add(uint64(len(state)))
	s.Obs.Counter("checkpoint_compressed_bytes_total").Add(uint64(len(out)))
	return s.Inner.Write(gen, rank, out)
}

// Read implements Storage. It tells the two layouts apart by their
// magic and rejects a payload that carries neither.
func (s *CompressedStorage) Read(gen uint64, rank int) ([]byte, error) {
	compressed, err := s.Inner.Read(gen, rank)
	if err != nil {
		return nil, err
	}
	state, err := s.decode(compressed)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: decompressing gen %d rank %d: %w", gen, rank, err)
	}
	return state, nil
}

func (s *CompressedStorage) decode(compressed []byte) ([]byte, error) {
	if len(compressed) < sumHeaderLen {
		return nil, errors.New("no layout header")
	}
	sum, body := binary.LittleEndian.Uint32(compressed[len(sumMagic):]), compressed[sumHeaderLen:]
	var state []byte
	var err error
	switch {
	case bytes.HasPrefix(compressed, sumMagic[:]):
		in := getInflater(body)
		state, err = in.inflate()
		inflaters.Put(in)
	case bytes.HasPrefix(compressed, shardMagic[:]):
		state, err = readSharded(body, s.Shards)
	default:
		return nil, errors.New("no layout header")
	}
	if err != nil {
		return nil, err
	}
	// Checked after decoding, so a body the decoder rejects reports
	// where it broke rather than only that its checksum is off.
	if crc32.Checksum(body, castagnoli) != sum {
		return nil, errors.New("checksum mismatch")
	}
	return state, nil
}

// readSharded decodes the sharded container, decompressing chunks with
// up to shards parallel workers (minimum one).
func readSharded(payload []byte, shards int) ([]byte, error) {
	rawSize, payload, err := readUvarint(payload)
	if err != nil {
		return nil, err
	}
	chunkSize, payload, err := readUvarint(payload)
	if err != nil {
		return nil, err
	}
	nChunks, payload, err := readUvarint(payload)
	if err != nil {
		return nil, err
	}
	// Harden against crafted headers before any header-driven allocation:
	// a DEFLATE stream inflates at most ~1032× (8 bits in, one 258-byte
	// match out is the format's densest encoding), so a container whose
	// claimed raw size exceeds that bound on the bytes actually present
	// is forged or corrupt — reject it instead of allocating terabytes.
	// Likewise every chunk costs at least one frame-length byte, bounding
	// nChunks by the remaining payload. These caps also keep the
	// ceil-division below from overflowing: rawSize is now small enough
	// that rawSize+chunkSize wraps only when chunkSize is absurd, and a
	// wrapped sum yields quotient 0 ≠ nChunks, which rejects.
	const maxDeflateRatio = 1032
	if rawSize > maxDeflateRatio*uint64(len(payload))+64 {
		return nil, fmt.Errorf("checkpoint: sharded header claims %d raw bytes from %d compressed",
			rawSize, len(payload))
	}
	if nChunks > uint64(len(payload)) {
		return nil, fmt.Errorf("checkpoint: sharded header claims %d chunks in %d bytes",
			nChunks, len(payload))
	}
	if chunkSize == 0 || nChunks == 0 ||
		nChunks != (rawSize+chunkSize-1)/chunkSize {
		return nil, fmt.Errorf("checkpoint: sharded header raw=%d chunk=%d n=%d inconsistent",
			rawSize, chunkSize, nChunks)
	}
	frames := make([][]byte, nChunks)
	for i := range frames {
		var frameLen uint64
		frameLen, payload, err = readUvarint(payload)
		if err != nil {
			return nil, err
		}
		if frameLen > uint64(len(payload)) {
			return nil, fmt.Errorf("checkpoint: sharded frame %d truncated", i)
		}
		frames[i] = payload[:frameLen]
		payload = payload[frameLen:]
	}
	if len(payload) != 0 {
		return nil, fmt.Errorf("checkpoint: %d trailing bytes after sharded frames", len(payload))
	}
	out := make([]byte, rawSize)
	if shards < 1 {
		shards = 1
	}
	if shards > len(frames) {
		shards = len(frames)
	}
	errs := make([]error, len(frames))
	next := make(chan int)
	var wg sync.WaitGroup
	wg.Add(shards)
	for w := 0; w < shards; w++ {
		go func() {
			defer wg.Done()
			for i := range next {
				lo := uint64(i) * chunkSize
				hi := lo + chunkSize
				if hi > rawSize {
					hi = rawSize
				}
				in := getInflater(frames[i])
				n, err := io.ReadFull(in.r, out[lo:hi])
				if err != nil {
					errs[i] = fmt.Errorf("chunk %d: %w", i, err)
				} else {
					// The chunk must end exactly at its frame boundary.
					var extra [1]byte
					if m, _ := in.r.Read(extra[:]); m != 0 {
						errs[i] = fmt.Errorf("chunk %d: longer than %d raw bytes", i, n)
					}
				}
				inflaters.Put(in)
			}
		}()
	}
	for i := range frames {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Commit implements Storage.
func (s *CompressedStorage) Commit(gen uint64, n int) error { return s.Inner.Commit(gen, n) }

// Latest implements Storage.
func (s *CompressedStorage) Latest() (uint64, int, bool, error) { return s.Inner.Latest() }

// Drop implements Storage.
func (s *CompressedStorage) Drop(gen uint64) error { return s.Inner.Drop(gen) }

func appendUvarint(buf []byte, v uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	return append(buf, tmp[:n]...)
}

func readUvarint(buf []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(buf)
	if n <= 0 {
		return 0, nil, fmt.Errorf("checkpoint: truncated varint")
	}
	return v, buf[n:], nil
}
