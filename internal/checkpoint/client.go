package checkpoint

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/mpi"
	"repro/internal/obs"
)

// ErrNotQuiescent reports that the bookmark exchange found in-flight
// messages: per-pair sent and received totals failed to equalise, so a
// consistent distributed snapshot cannot be taken at this point.
var ErrNotQuiescent = errors.New("checkpoint: channels not quiescent")

// Config configures a per-rank checkpoint client.
type Config struct {
	// Storage receives the snapshots. All ranks of a job must share one
	// logical store (the same MemStorage, or FileStorages over one
	// directory).
	Storage Storage
	// StepInterval makes MaybeCheckpoint fire every StepInterval steps.
	// Step-based scheduling is deterministic across replicas, which the
	// redundancy layer requires (wall-clock decisions would diverge
	// between a rank's replicas). The orchestrator converts the model's
	// time interval δ into steps. Zero disables MaybeCheckpoint.
	StepInterval int
	// SkipBookmark disables the quiescence verification (for
	// applications that checkpoint at points where channels are known
	// non-empty by design).
	SkipBookmark bool
	// BookmarkRetries is how many barrier-separated re-reads of the
	// totals to attempt before declaring ErrNotQuiescent. Defaults to 3.
	BookmarkRetries int
	// WriteAllReplicas makes every replica persist its rank's state, not
	// just the writer. Peer-replicated storage needs this: each replica
	// stashes into its *own* memory shard, so survivors of a partial
	// restart restore without any network traffic. The writer-only
	// job-level counters (attempted/committed) are unaffected.
	WriteAllReplicas bool
	// Pipeline, when non-nil, switches the client to asynchronous
	// pipelined checkpointing: Checkpoint snapshot-copies state into a
	// pooled buffer and returns while compression and Storage.Write run
	// on the pipeline's workers; the generation commits at the next
	// checkpoint or an explicit Drain. All clients of a job must share
	// one Pipeline (or all run synchronously). See async.go for the
	// stage layout and the drain/commit ordering contract.
	Pipeline *Pipeline
	// Obs, when non-nil, receives the protocol's counters (snapshots
	// attempted/committed, bytes written, bookmark retries, quiescence
	// failures, restores). Clients of one job should share a registry.
	Obs *obs.Registry
	// Flight, when non-nil, receives fixed-size recovery-phase spans
	// ("restore", "pipeline_drain"), a "restored" record per restore
	// (step = generation, arg = image bytes), and from the committing
	// replica of rank 0 a "ckpt_commit" per generation (step =
	// generation, arg = ranks) and a "bookmark_retry" per quiescence
	// retry (step = generation, arg = retry number). The stream is the
	// comm's physical rank when the comm exposes one (redundancy-wrapped
	// endpoints), so a virtual rank's replicas never interleave on one
	// stream; plain comms use their own rank.
	Flight *obs.Recorder
}

// Client coordinates snapshots and restores for one rank (or one replica
// of a rank — all replicas run the protocol; writer selection decides who
// touches storage).
type Client struct {
	comm mpi.Comm
	cfg  Config
	gen  uint64

	// Stats.
	checkpoints int
	restores    int

	// Async-pipeline state (used only when cfg.Pipeline != nil). The
	// WaitGroup tracks this client's in-flight background write; the
	// worker's Done provides the happens-before edge that publishes
	// asyncErr to drainLocal without extra fencing. pendingGen is the
	// written-but-not-yet-committed generation awaiting the next drain
	// point.
	inflight   sync.WaitGroup
	inflightN  atomic.Int32
	asyncMu    sync.Mutex
	asyncErr   error
	pendingGen uint64
	hasPending bool
	wasWriter  bool

	// flightRank is the black-box stream this client's records land on:
	// the physical rank for redundancy-wrapped comms, comm.Rank()
	// otherwise.
	flightRank int

	met clientMetrics
}

// physicalRanker is the optional comm capability exposing the physical
// rank beneath a virtual endpoint (redundancy.Comm implements it).
type physicalRanker interface {
	Physical() int
}

// clientMetrics holds the protocol's registry instruments (nil and
// therefore no-ops when Config.Obs is nil).
type clientMetrics struct {
	attempted    *obs.Counter
	committed    *obs.Counter
	bytesWritten *obs.Counter
	retries      *obs.Counter
	notQuiescent *obs.Counter
	restores     *obs.Counter
	stallNs      *obs.Counter
	overlapNs    *obs.Counter
	drainWaits   *obs.Counter
	inflight     *obs.Gauge
}

// NewClient creates a checkpoint client over the given communicator.
func NewClient(comm mpi.Comm, cfg Config) (*Client, error) {
	if cfg.Storage == nil {
		return nil, fmt.Errorf("checkpoint: nil storage")
	}
	if cfg.BookmarkRetries <= 0 {
		cfg.BookmarkRetries = 3
	}
	cl := &Client{comm: comm, cfg: cfg, flightRank: comm.Rank()}
	if pr, ok := comm.(physicalRanker); ok {
		cl.flightRank = pr.Physical()
	}
	cl.met = clientMetrics{
		attempted:    cfg.Obs.Counter("checkpoint_attempted_total"),
		committed:    cfg.Obs.Counter("checkpoint_committed_total"),
		bytesWritten: cfg.Obs.Counter("checkpoint_bytes_written_total"),
		retries:      cfg.Obs.Counter("checkpoint_bookmark_retries_total"),
		notQuiescent: cfg.Obs.Counter("checkpoint_not_quiescent_total"),
		restores:     cfg.Obs.Counter("checkpoint_restores_total"),
		stallNs:      cfg.Obs.Counter("checkpoint_stall_ns_total"),
		overlapNs:    cfg.Obs.Counter("checkpoint_overlap_ns_total"),
		drainWaits:   cfg.Obs.Counter("checkpoint_drain_waits_total"),
		inflight:     cfg.Obs.Gauge("checkpoint_async_inflight"),
	}
	return cl, nil
}

// Checkpoints returns how many snapshots this client has completed.
func (cl *Client) Checkpoints() int { return cl.checkpoints }

// Restores returns how many restores this client has completed.
func (cl *Client) Restores() int { return cl.restores }

// MaybeCheckpoint checkpoints when the deterministic step schedule says
// so: at every positive multiple of StepInterval. All ranks (and all
// replicas) must call it with the same step; the decision is pure
// arithmetic, so no coordination round is needed. writer selects whether
// this caller persists its rank's state — under redundancy, the lowest
// alive replica of each rank should write; plain ranks always write.
//
// snapshot is called once, and only on a due step: encoding application
// state is real work, and nine steps in ten (every step, with
// checkpointing disabled) would throw the bytes away. The slice it
// returns is handed to Checkpoint, which never retains it past return.
func (cl *Client) MaybeCheckpoint(step int, snapshot func() []byte, writer bool) (bool, error) {
	k := cl.cfg.StepInterval
	if k <= 0 || step <= 0 || step%k != 0 {
		return false, nil
	}
	if err := cl.Checkpoint(snapshot(), writer); err != nil {
		return false, err
	}
	return true, nil
}

// Checkpoint runs one coordinated snapshot:
//
//  1. Barrier — every rank reaches the checkpoint line.
//  2. Bookmark exchange — all ranks allgather their per-peer sent totals
//     and verify recv[j][i] == sent[i][j] for every pair (Open MPI's
//     bookmark protocol); retries with barriers allow stragglers'
//     matching receives to complete.
//  3. Every writer stores its rank's state under the next generation.
//  4. Barrier, then rank 0's writer replica commits the generation
//     atomically.
//
// The generation number is agreed by broadcasting rank 0's view, so
// clients that joined after a restart stay aligned.
//
// With Config.Pipeline set, the write runs asynchronously (see
// async.go): the state is snapshot-copied into a pooled buffer inside
// the coordinated region and the commit of this generation is deferred
// to the next checkpoint or Drain. In both modes the wall time spent
// inside this call accumulates in checkpoint_stall_ns_total (lead
// replica of rank 0 only), so stall/checkpoints is the effective δ the
// application observes.
func (cl *Client) Checkpoint(state []byte, writer bool) error {
	// Job-level counters are bumped by the writer replica of rank 0
	// only: the protocol is collective, so every rank (and under
	// redundancy, every replica) runs this code, and counting on one
	// deterministic participant keeps "attempted == generations tried".
	lead := writer && cl.comm.Rank() == 0
	cl.wasWriter = writer
	if lead {
		cl.met.attempted.Inc()
	}
	start := time.Now()
	var err error
	if cl.cfg.Pipeline != nil {
		err = cl.checkpointAsync(state, writer, lead)
	} else {
		err = cl.checkpointSync(state, writer, lead)
	}
	if err == nil && lead {
		cl.met.stallNs.Add(uint64(time.Since(start).Nanoseconds()))
	}
	return err
}

// checkpointSync is the original fully synchronous protocol: write and
// commit both happen inside the barrier-bracketed region.
func (cl *Client) checkpointSync(state []byte, writer, lead bool) error {
	if err := mpi.Barrier(cl.comm); err != nil {
		return fmt.Errorf("checkpoint barrier: %w", err)
	}
	if !cl.cfg.SkipBookmark {
		if err := cl.bookmarkExchange(lead); err != nil {
			return err
		}
	}
	// Agree on the generation: rank 0 proposes, everyone adopts.
	gen, err := cl.agreeGeneration()
	if err != nil {
		return err
	}
	if writer || cl.cfg.WriteAllReplicas {
		if err := cl.cfg.Storage.Write(gen, cl.comm.Rank(), state); err != nil {
			return fmt.Errorf("checkpoint write: %w", err)
		}
		cl.met.bytesWritten.Add(uint64(len(state)))
	}
	if err := mpi.Barrier(cl.comm); err != nil {
		return fmt.Errorf("checkpoint commit barrier: %w", err)
	}
	// Only the writer replica of rank 0 commits. The barrier proves that
	// every live replica of the other ranks has written, but a twin of
	// rank 0 never hears from its own sphere: it can leave the barrier
	// before rank 0's writer has written, and its commit would then find
	// the generation incomplete.
	if lead {
		if err := cl.cfg.Storage.Commit(gen, cl.comm.Size()); err != nil {
			return fmt.Errorf("checkpoint commit: %w", err)
		}
		cl.met.committed.Inc()
		cl.cfg.Flight.Emit("ckpt_commit", cl.flightRank, -1, int(gen), int64(cl.comm.Size()))
	}
	// Final barrier so no rank races ahead and checkpoints generation
	// gen+1 before gen is committed.
	if err := mpi.Barrier(cl.comm); err != nil {
		return fmt.Errorf("checkpoint publish barrier: %w", err)
	}
	cl.gen = gen + 1
	cl.checkpoints++
	return nil
}

// agreeGeneration broadcasts rank 0's next-generation proposal.
func (cl *Client) agreeGeneration() (uint64, error) {
	var proposal []byte
	if cl.comm.Rank() == 0 {
		gen := cl.gen
		if latest, _, ok, err := cl.cfg.Storage.Latest(); err != nil {
			return 0, fmt.Errorf("checkpoint: %w", err)
		} else if ok && latest+1 > gen {
			gen = latest + 1
		}
		proposal = encodeUint64(gen)
	}
	proposal, err := mpi.Bcast(cl.comm, 0, proposal)
	if err != nil {
		return 0, fmt.Errorf("checkpoint generation agreement: %w", err)
	}
	gen, err := decodeUint64(proposal)
	if err != nil {
		return 0, err
	}
	return gen, nil
}

// bookmarkExchange verifies channel quiescence from message totals.
// lead marks the single replica that owns the job-level counters.
func (cl *Client) bookmarkExchange(lead bool) error {
	tracker, ok := cl.comm.(mpi.CountTracker)
	if !ok {
		return nil // transport does not expose totals; trust the caller
	}
	n := cl.comm.Size()
	for attempt := 0; attempt < cl.cfg.BookmarkRetries; attempt++ {
		if attempt > 0 && lead {
			cl.met.retries.Inc()
			cl.cfg.Flight.Emit("bookmark_retry", cl.flightRank, -1, int(cl.gen), int64(attempt))
		}
		// Snapshot both counters before exchanging anything, then ship
		// them in a single allgather: the exchange's own traffic must not
		// appear in one counter but not the other.
		local := append(tracker.SentCounts(), tracker.RecvCounts()...)
		var quiescent bool
		err := mpi.Allgather(cl.comm, encodeUint64s(local), func(rows [][]byte) error {
			sentRows := make([][]byte, len(rows))
			recvRows := make([][]byte, len(rows))
			for i, row := range rows {
				if len(row) != 16*n {
					return fmt.Errorf("checkpoint: bookmark row of %d bytes, want %d", len(row), 16*n)
				}
				sentRows[i] = row[:8*n]
				recvRows[i] = row[8*n:]
			}
			var err error
			quiescent, err = totalsEqualize(sentRows, recvRows)
			return err
		})
		if err != nil {
			return fmt.Errorf("bookmark exchange: %w", err)
		}
		if quiescent {
			return nil
		}
		// Allow in-flight matching receives to complete, then retry.
		if err := mpi.Barrier(cl.comm); err != nil {
			return fmt.Errorf("bookmark retry barrier: %w", err)
		}
	}
	if lead {
		cl.met.notQuiescent.Inc()
	}
	return ErrNotQuiescent
}

// totalsEqualize checks sent[i][j] == recv[j][i] for all pairs, ignoring
// the traffic of the exchange itself: the allgathers above add identical
// amounts to symmetric counters only after both sides' snapshots were
// taken, so pre-snapshot asymmetry is what this detects.
func totalsEqualize(sentRows, recvRows [][]byte) (bool, error) {
	n := len(sentRows)
	sent := make([][]uint64, n)
	recv := make([][]uint64, n)
	for i := 0; i < n; i++ {
		var err error
		if sent[i], err = decodeUint64s(sentRows[i]); err != nil {
			return false, err
		}
		if recv[i], err = decodeUint64s(recvRows[i]); err != nil {
			return false, err
		}
		if len(sent[i]) != n || len(recv[i]) != n {
			return false, fmt.Errorf("checkpoint: bookmark row length %d/%d, want %d",
				len(sent[i]), len(recv[i]), n)
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if sent[i][j] < recv[j][i] {
				return false, fmt.Errorf("checkpoint: rank %d received %d from %d which sent %d",
					j, recv[j][i], i, sent[i][j])
			}
			if sent[i][j] > recv[j][i] {
				return false, nil // in flight; retry
			}
		}
	}
	return true, nil
}

// Restore loads this rank's state from the newest committed generation.
// ok is false when no checkpoint exists (fresh start).
func (cl *Client) Restore() (state []byte, ok bool, err error) {
	sp := cl.cfg.Flight.StartSpan("restore", cl.flightRank, -1, 0)
	defer sp.End()
	if cl.cfg.Pipeline != nil {
		// Never race a background write against storage reads. Restore
		// is not collective, so only the local wait happens here;
		// callers that want the pending generation to be restorable
		// must run the collective Drain first.
		if derr := cl.drainLocal(); derr != nil {
			return nil, false, derr
		}
	}
	gen, n, ok, err := cl.cfg.Storage.Latest()
	if err != nil {
		return nil, false, fmt.Errorf("restore: %w", err)
	}
	if !ok {
		return nil, false, nil
	}
	if cl.comm.Rank() >= n {
		return nil, false, fmt.Errorf("restore: rank %d not in committed generation of %d ranks",
			cl.comm.Rank(), n)
	}
	state, err = cl.cfg.Storage.Read(gen, cl.comm.Rank())
	if err != nil {
		return nil, false, fmt.Errorf("restore: %w", err)
	}
	cl.gen = gen + 1
	cl.restores++
	// Counted per process: under redundancy every replica restores, so
	// the total is physical-rank restores, not virtual-rank restores.
	cl.met.restores.Inc()
	cl.cfg.Flight.Emit("restored", cl.flightRank, -1, int(gen), int64(len(state)))
	return state, true, nil
}

func encodeUint64(v uint64) []byte { return encodeUint64s([]uint64{v}) }

func decodeUint64(buf []byte) (uint64, error) {
	vs, err := decodeUint64s(buf)
	if err != nil {
		return 0, err
	}
	if len(vs) != 1 {
		return 0, fmt.Errorf("checkpoint: %d values, want 1", len(vs))
	}
	return vs[0], nil
}

func encodeUint64s(vs []uint64) []byte {
	buf := make([]byte, 8*len(vs))
	for i, v := range vs {
		for b := 0; b < 8; b++ {
			buf[8*i+b] = byte(v >> (8 * b))
		}
	}
	return buf
}

func decodeUint64s(buf []byte) ([]uint64, error) {
	if len(buf)%8 != 0 {
		return nil, fmt.Errorf("checkpoint: uint64 payload of %d bytes", len(buf))
	}
	vs := make([]uint64, len(buf)/8)
	for i := range vs {
		for b := 0; b < 8; b++ {
			vs[i] |= uint64(buf[8*i+b]) << (8 * b)
		}
	}
	return vs, nil
}
