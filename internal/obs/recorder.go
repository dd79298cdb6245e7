package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// DefaultFlightCap is the per-rank ring capacity a Recorder uses when the
// caller does not choose one: enough to hold a whole recovery episode
// (interrupt, revive, resume, fetch, restore, the first recomputed
// steps) without retaining a long run's full history.
const DefaultFlightCap = 256

// Record is one flight-recorder entry: a fixed-size value — no payload
// map — so the Emit hot path stores it into a preallocated ring slot
// without allocating.
//
// Seq is the per-rank logical clock (0, 1, 2, … in emission order on
// that rank). Nanos is monotonic nanoseconds since the recorder was
// created, recorded only in dual-clock mode; in the default
// deterministic mode it stays zero so two runs of the same seeded job
// dump byte-identical black boxes. Ev distinguishes span boundaries
// ("B"/"E", matching Chrome trace_event phase names) from point records
// (empty). Arg is a kind-specific integer: the peer rank of a send, the
// duration in nanoseconds of a span end (dual-clock mode only), the kill
// ordinal of a kill, the rank count of a ckpt_commit, 1 on the run_end
// of a completed job.
type Record struct {
	Seq    uint64 `json:"seq"`
	Nanos  int64  `json:"ns,omitempty"`
	Kind   string `json:"kind"`
	Ev     string `json:"ev,omitempty"`
	Rank   int32  `json:"rank"`
	Sphere int32  `json:"sphere"`
	Step   int32  `json:"step"`
	Arg    int64  `json:"arg,omitempty"`
}

// Span-boundary markers for Record.Ev (Chrome trace_event phase names,
// so a dump converts to a Perfetto timeline without a mapping table).
const (
	EvBegin = "B"
	EvEnd   = "E"
)

// recStripes is the number of lock stripes. Ranks hash onto stripes, so
// contention on Emit is bounded by stripe collisions, not by a single
// global mutex.
const recStripes = 64

// recRing is one rank's ring: a fixed-capacity buffer plus the rank's
// logical clock. seq counts every emission; only the last cap records
// are retained (seq-cap .. seq-1), so memory is bounded regardless of
// run length.
type recRing struct {
	seq uint64
	buf []Record
}

type recStripe struct {
	mu    sync.Mutex
	rings map[int]*recRing
	// Pad each stripe to its own cache line so unrelated ranks' Emits do
	// not false-share.
	_ [40]byte
}

// Recorder is the bounded flight recorder: a lock-striped set of
// per-rank ring buffers sized cap records each. Emit is allocation-free
// after a rank's first record (the ring materializes lazily), making it
// cheap enough to leave on message hot paths; memory is fixed at
// cap × ranks-that-emitted regardless of how long the job runs. On
// failure or exit the retained records are the "black box": the last
// cap events of every rank, dumped with WriteJSONL. With a cap at least
// as large as every rank's emission count the same dump is the whole-run
// log; Dropped says when it is not.
//
// A nil *Recorder is the disabled mode: Emit, StartSpan, and every
// accessor are no-ops, so instrumented code holds recorder pointers
// unconditionally, like the rest of the obs instruments.
type Recorder struct {
	cap     int
	mono    bool
	base    time.Time
	stripes [recStripes]recStripe
}

// NewRecorder creates a recorder with the given per-rank ring capacity
// (DefaultFlightCap when cap <= 0). mono selects dual-clock mode: each
// record additionally carries monotonic nanoseconds since recorder
// creation, trading byte-identical determinism for real phase timings.
func NewRecorder(cap int, mono bool) *Recorder {
	if cap <= 0 {
		cap = DefaultFlightCap
	}
	r := &Recorder{cap: cap, mono: mono, base: time.Now()}
	for i := range r.stripes {
		r.stripes[i].rings = make(map[int]*recRing)
	}
	return r
}

// Cap returns the per-rank ring capacity (0 on a nil recorder).
func (r *Recorder) Cap() int {
	if r == nil {
		return 0
	}
	return r.cap
}

// Mono reports whether the recorder runs in dual-clock mode.
func (r *Recorder) Mono() bool { return r != nil && r.mono }

// Emit records one point record on rank's stream. kind should be a
// static string (a constant) so the call stays allocation-free; arg is
// kind-specific (see Record).
func (r *Recorder) Emit(kind string, rank, sphere, step int, arg int64) {
	r.emit(kind, "", rank, sphere, step, arg)
}

func (r *Recorder) emit(kind, ev string, rank, sphere, step int, arg int64) {
	if r == nil {
		return
	}
	var ns int64
	if r.mono {
		ns = int64(time.Since(r.base))
	}
	s := &r.stripes[uint(rank)%recStripes]
	s.mu.Lock()
	rg := s.rings[rank]
	if rg == nil {
		rg = &recRing{buf: make([]Record, r.cap)}
		s.rings[rank] = rg
	}
	rg.buf[rg.seq%uint64(r.cap)] = Record{
		Seq:    rg.seq,
		Nanos:  ns,
		Kind:   kind,
		Ev:     ev,
		Rank:   int32(rank),
		Sphere: int32(sphere),
		Step:   int32(step),
		Arg:    arg,
	}
	rg.seq++
	s.mu.Unlock()
}

// Span is an in-progress phase measurement. End emits the matching "E"
// record; in dual-clock mode its Arg carries the span duration in
// nanoseconds. The zero Span (from a nil recorder) is a no-op.
type Span struct {
	rec    *Recorder
	kind   string
	rank   int
	sphere int
	step   int
	start  int64
}

// StartSpan emits a span-begin record and returns the handle whose End
// emits the matching end. Spans of the same kind on the same rank must
// nest (End in reverse Start order), which is how every call site uses
// them; redreport pairs B/E per (rank, kind) with a stack.
func (r *Recorder) StartSpan(kind string, rank, sphere, step int) Span {
	if r == nil {
		return Span{}
	}
	var start int64
	if r.mono {
		start = int64(time.Since(r.base))
	}
	r.emit(kind, EvBegin, rank, sphere, step, 0)
	return Span{rec: r, kind: kind, rank: rank, sphere: sphere, step: step, start: start}
}

// End closes the span. Safe on the zero Span.
func (sp Span) End() {
	if sp.rec == nil {
		return
	}
	var dur int64
	if sp.rec.mono {
		dur = int64(time.Since(sp.rec.base)) - sp.start
	}
	sp.rec.emit(sp.kind, EvEnd, sp.rank, sp.sphere, sp.step, dur)
}

// Records returns every retained record in canonical order — sorted by
// (Rank, Seq), the same order WriteJSONL dumps — as a copy safe to hold
// while emission continues.
func (r *Recorder) Records() []Record {
	if r == nil {
		return nil
	}
	var out []Record
	for i := range r.stripes {
		s := &r.stripes[i]
		s.mu.Lock()
		for _, rg := range s.rings {
			lo := uint64(0)
			if rg.seq > uint64(r.cap) {
				lo = rg.seq - uint64(r.cap)
			}
			for q := lo; q < rg.seq; q++ {
				out = append(out, rg.buf[q%uint64(r.cap)])
			}
		}
		s.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Rank != out[j].Rank {
			return out[i].Rank < out[j].Rank
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}

// Tail returns the most recent n retained records: ordered by monotonic
// time in dual-clock mode, by (Rank, Seq) in deterministic mode (where
// "recent" across ranks is not defined). This is the /timeline view.
func (r *Recorder) Tail(n int) []Record {
	recs := r.Records()
	if r != nil && r.mono {
		sort.Slice(recs, func(i, j int) bool {
			if recs[i].Nanos != recs[j].Nanos {
				return recs[i].Nanos < recs[j].Nanos
			}
			if recs[i].Rank != recs[j].Rank {
				return recs[i].Rank < recs[j].Rank
			}
			return recs[i].Seq < recs[j].Seq
		})
	}
	if n > 0 && len(recs) > n {
		recs = recs[len(recs)-n:]
	}
	return recs
}

// Dropped returns how many records the rings have overwritten: total
// emissions minus retained. Nonzero means the black box holds only each
// rank's most recent cap events.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	var dropped uint64
	for i := range r.stripes {
		s := &r.stripes[i]
		s.mu.Lock()
		for _, rg := range s.rings {
			if rg.seq > uint64(r.cap) {
				dropped += rg.seq - uint64(r.cap)
			}
		}
		s.mu.Unlock()
	}
	return dropped
}

// WriteJSONL dumps the black box: every retained record as one JSON
// line, in (Rank, Seq) order. In deterministic mode the bytes are
// identical across runs of the same seeded job (for streams whose
// emission order is deterministic — failure-free runs, and every
// single-goroutine stream).
func (r *Recorder) WriteJSONL(w io.Writer) error {
	for _, rec := range r.Records() {
		line, err := json.Marshal(rec)
		if err != nil {
			return fmt.Errorf("obs: marshal flight record: %w", err)
		}
		if _, err := w.Write(append(line, '\n')); err != nil {
			return fmt.Errorf("obs: write flight record: %w", err)
		}
	}
	return nil
}
