package checkpoint

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/mpi"
)

// Asynchronous checkpoint pipeline.
//
// The synchronous protocol executes compression and Storage.Write inside
// the barrier-bracketed coordinated region, so every rank stalls for the
// full write latency δ on every interval. The pipeline moves that work
// off the checkpoint line:
//
//	stage 1 (foreground, inside the coordinated region):
//	    barrier → bookmark quiescence → generation agreement →
//	    drain own previous write → barrier → commit generation g−1 →
//	    snapshot-copy state into a pooled buffer → enqueue → barrier
//	stage 2 (background worker pool):
//	    compress (inside CompressedStorage) + Storage.Write(g)
//	stage 3 (next drain point):
//	    generation g commits once every rank's write has drained
//
// The foreground cost is one memcpy of the state plus the coordination
// rounds; compression and storage I/O overlap with application compute.
// The price is commit lag: generation g becomes restorable only at the
// next checkpoint (or an explicit Drain). Because Storage makes
// uncommitted generations invisible to Restore, a crash while writes for
// g are in flight recovers from g−1 — crash consistency needs no extra
// machinery.
//
// Ordering contract (the "drain/commit" rule): a generation is committed
// only after (a) this rank's own write for it finished (local WaitGroup)
// and (b) a barrier proved every other rank's did too. Drain runs the
// same two steps explicitly and must be called before Restore on a live
// job, before Finalize, and before tearing a world down for an
// injector-driven restart — so "latest committed" is always a complete,
// consistent cut.

// Pipeline is the background worker pool that executes checkpoint writes
// for async clients. One Pipeline is shared by all ranks of a job (all
// clients of all replicas); core.Run owns its lifecycle across restart
// attempts.
type Pipeline struct {
	jobs chan asyncJob
	wg   sync.WaitGroup

	mu     sync.Mutex
	idle   *sync.Cond // signalled when active drops to zero
	active int        // jobs submitted and not yet finished

	closeOnce sync.Once
}

// asyncJob is one rank-generation write travelling through the pipeline.
type asyncJob struct {
	storage Storage
	gen     uint64
	rank    int
	data    []byte
	pb      *mpi.PooledBuf // nil for oversized fallback snapshots
	cl      *Client
}

// NewPipeline starts a worker pool for asynchronous checkpoint writes.
// workers <= 0 uses GOMAXPROCS. Close must be called to stop the
// workers; jobs submitted before Close are always drained.
func NewPipeline(workers int) *Pipeline {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pipeline{jobs: make(chan asyncJob, 4*workers)}
	p.idle = sync.NewCond(&p.mu)
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

// Close stops the pool after draining all submitted jobs. Safe to call
// more than once. Clients must have drained (or abandoned) their
// in-flight work before their storage is torn down, but Close itself
// guarantees no job is dropped.
func (p *Pipeline) Close() {
	p.closeOnce.Do(func() { close(p.jobs) })
	p.wg.Wait()
}

func (p *Pipeline) submit(j asyncJob) {
	p.mu.Lock()
	p.active++
	p.mu.Unlock()
	p.jobs <- j
}

// Flush waits until every submitted job has finished, without stopping
// the workers. The recovery path calls it after quiescing a failed
// world: once Flush returns, every write the failed epoch enqueued has
// either landed in its storage tier or failed, so the peer store's
// holder registry reflects reality and a complete latest generation can
// be promoted to committed.
func (p *Pipeline) Flush() {
	p.mu.Lock()
	for p.active > 0 {
		p.idle.Wait()
	}
	p.mu.Unlock()
}

func (p *Pipeline) worker() {
	defer p.wg.Done()
	for j := range p.jobs {
		start := time.Now()
		err := j.storage.Write(j.gen, j.rank, j.data)
		cl := j.cl
		cl.met.overlapNs.Add(uint64(time.Since(start).Nanoseconds()))
		if err != nil {
			cl.recordAsyncErr(fmt.Errorf("async checkpoint write gen %d rank %d: %w", j.gen, j.rank, err))
		} else {
			cl.met.bytesWritten.Add(uint64(len(j.data)))
		}
		if j.pb != nil {
			j.pb.Release()
		}
		cl.met.inflight.Add(-1)
		cl.inflightN.Add(-1)
		cl.inflight.Done()
		p.mu.Lock()
		if p.active--; p.active == 0 {
			p.idle.Broadcast()
		}
		p.mu.Unlock()
	}
}

// snapArena pools the snapshot buffers the foreground stage copies state
// into. Same size-class design as the simmpi message arena, but sized
// for checkpoint images (1 KiB – 16 MiB) instead of wire payloads.
// Oversized states fall back to plain allocations with no handle.
const (
	snapMinClass = 1 << 10 // 1 KiB
	snapClasses  = 15      // 1 KiB << 14 == 16 MiB
)

type snapArena struct {
	classes [snapClasses]sync.Pool
}

var _ mpi.Recycler = (*snapArena)(nil)

var snapPool = newSnapArena()

func newSnapArena() *snapArena {
	a := &snapArena{}
	for c := range a.classes {
		size := snapMinClass << c
		a.classes[c].New = func() any {
			return mpi.NewPooledBuf(make([]byte, size), a)
		}
	}
	return a
}

func snapClassFor(n int) int {
	size := snapMinClass
	for c := 0; c < snapClasses; c++ {
		if n <= size {
			return c
		}
		size <<= 1
	}
	return -1
}

// acquire returns a buffer of length n holding one creator reference
// (nil handle for oversized fallback allocations).
func (a *snapArena) acquire(n int) ([]byte, *mpi.PooledBuf) {
	c := snapClassFor(n)
	if c < 0 {
		return make([]byte, n), nil
	}
	pb := a.classes[c].Get().(*mpi.PooledBuf)
	pb.Reset()
	return pb.Bytes()[:n], pb
}

// Recycle implements mpi.Recycler.
func (a *snapArena) Recycle(pb *mpi.PooledBuf) {
	c := snapClassFor(cap(pb.Bytes()))
	if c < 0 || snapMinClass<<c != cap(pb.Bytes()) {
		return // not one of ours; leave it to the GC
	}
	a.classes[c].Put(pb)
}

// recordAsyncErr stores the first background write failure; drainLocal
// surfaces it. Later failures of the same batch are dropped (the first
// one already poisons the pending generation).
func (cl *Client) recordAsyncErr(err error) {
	cl.asyncMu.Lock()
	if cl.asyncErr == nil {
		cl.asyncErr = err
	}
	cl.asyncMu.Unlock()
}

// drainLocal waits for this client's own in-flight write to finish and
// surfaces any background failure. The WaitGroup's happens-before edge
// makes the worker's error store visible here without extra fencing.
// Storage tiers with asynchronous sends of their own (the peer store)
// are then settled, so the drain/commit contract covers in-flight peer
// replication too, not just this rank's Write call.
func (cl *Client) drainLocal() error {
	if cl.inflightN.Load() > 0 {
		cl.met.drainWaits.Inc()
	}
	cl.inflight.Wait()
	if s, ok := cl.cfg.Storage.(Settler); ok {
		s.Settle()
	}
	cl.asyncMu.Lock()
	err := cl.asyncErr
	cl.asyncMu.Unlock()
	if err != nil {
		return err
	}
	return nil
}

// commitPending commits the deferred generation (if any) now that a
// barrier has proven every rank's write for it drained. Only lead, the
// writer replica of rank 0, commits: the barrier does not order a twin
// of rank 0 after its own sphere's writer (see checkpointSync).
func (cl *Client) commitPending(lead bool) error {
	if !cl.hasPending {
		return nil
	}
	if lead {
		if err := cl.cfg.Storage.Commit(cl.pendingGen, cl.comm.Size()); err != nil {
			return fmt.Errorf("checkpoint commit gen %d: %w", cl.pendingGen, err)
		}
		cl.met.committed.Inc()
		cl.cfg.Flight.Emit("ckpt_commit", cl.flightRank, -1, int(cl.pendingGen), int64(cl.comm.Size()))
	}
	cl.hasPending = false
	return nil
}

// checkpointAsync is the pipelined variant of Checkpoint. See the
// package comment at the top of this file for the stage layout and the
// drain/commit ordering contract.
func (cl *Client) checkpointAsync(state []byte, writer, lead bool) error {
	if err := mpi.Barrier(cl.comm); err != nil {
		return fmt.Errorf("checkpoint barrier: %w", err)
	}
	// The bookmark exchange is still sound under async: the client's
	// communicator tracks its own (virtual-level) send/receive totals,
	// and background workers never send through it — peer replication
	// rides the physical transport on reserved tags, invisible to these
	// counters. So message totals are exactly the application's.
	if !cl.cfg.SkipBookmark {
		if err := cl.bookmarkExchange(lead); err != nil {
			return err
		}
	}
	gen, err := cl.agreeGeneration()
	if err != nil {
		return err
	}
	// Drain the previous generation's write, then barrier so rank 0
	// knows every rank drained before it commits g−1.
	if err := cl.drainLocal(); err != nil {
		return err
	}
	if err := mpi.Barrier(cl.comm); err != nil {
		return fmt.Errorf("checkpoint drain barrier: %w", err)
	}
	if err := cl.commitPending(lead); err != nil {
		return err
	}
	if writer || cl.cfg.WriteAllReplicas {
		// Snapshot: one memcpy into a pooled buffer, then hand off. The
		// caller's state slice is never retained past this line, so the
		// application may mutate it the moment Checkpoint returns.
		buf, pb := snapPool.acquire(len(state))
		copy(buf, state)
		cl.inflight.Add(1)
		cl.inflightN.Add(1)
		cl.met.inflight.Add(1)
		cl.cfg.Pipeline.submit(asyncJob{
			storage: cl.cfg.Storage,
			gen:     gen,
			rank:    cl.comm.Rank(),
			data:    buf,
			pb:      pb,
			cl:      cl,
		})
	}
	cl.pendingGen, cl.hasPending = gen, true
	// Publish barrier: no rank races into the next interval (or a
	// restore) before every rank has recorded the pending generation.
	if err := mpi.Barrier(cl.comm); err != nil {
		return fmt.Errorf("checkpoint publish barrier: %w", err)
	}
	cl.gen = gen + 1
	cl.checkpoints++
	return nil
}

// Drain flushes the pipeline collectively: every rank waits for its own
// in-flight write, a barrier proves the whole generation is durable, and
// rank 0 commits it. Call it before Restore on a live job, before
// finalising, and before tearing the job down for a restart — after
// Drain, Latest() reflects every checkpoint taken so far. Collective:
// all ranks (and replicas) must call it together. A no-op in
// synchronous mode and when nothing is pending (beyond the barriers).
func (cl *Client) Drain() error {
	if cl.cfg.Pipeline == nil {
		return nil
	}
	sp := cl.cfg.Flight.StartSpan("pipeline_drain", cl.flightRank, -1, int(cl.gen))
	defer sp.End()
	if err := cl.drainLocal(); err != nil {
		return err
	}
	if err := mpi.Barrier(cl.comm); err != nil {
		return fmt.Errorf("checkpoint drain barrier: %w", err)
	}
	if err := cl.commitPending(cl.wasWriter && cl.comm.Rank() == 0); err != nil {
		return err
	}
	if err := mpi.Barrier(cl.comm); err != nil {
		return fmt.Errorf("checkpoint drain publish barrier: %w", err)
	}
	return nil
}
