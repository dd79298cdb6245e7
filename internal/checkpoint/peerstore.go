package checkpoint

import (
	"errors"
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/erasure"
	"repro/internal/mpi"
	"repro/internal/obs"
)

// The peer store's wire protocol runs over reserved simmpi tags so it
// never collides with application, collective, or redundancy-control
// traffic. Requests (replicate + fetch) share one tag consumed only by
// Serve loops; replies use a second tag consumed only by fetchers.
const (
	tagPeerService = mpi.TagPeerBase
	tagPeerReply   = mpi.TagPeerBase + 1
)

// Peer protocol opcodes.
const (
	opReplicate = byte(iota + 1) // writer -> buddy: store this image/shard
	opFetch                      // restorer -> holder: send me what you hold
	opFound                      // holder -> restorer: image or shard payload
	opMiss                       // holder -> restorer: nothing held
)

// ErrPeerFetchExhausted reports that fewer than DataShards distinct
// shards of a rank's checkpoint image were recoverable from live holders
// after the configured retry rounds; the orchestrator falls back to a
// full coordinated restart from stable storage.
var ErrPeerFetchExhausted = errors.New("checkpoint: peer fetch exhausted")

// maxPeerShards bounds DataShards+ParityShards so shard coverage checks
// fit in one word. Far above any sensible configuration: each extra
// shard costs a sphere.
const maxPeerShards = 64

// Liveness is the minimal liveness oracle the peer store needs;
// *simmpi.World implements it.
type Liveness interface {
	Alive(rank int) bool
}

// PeerStoreConfig configures a PeerStore.
type PeerStoreConfig struct {
	// Spheres is the replica topology: Spheres[v] lists the physical
	// ranks of virtual rank v (redundancy.RankMap.Sphere order).
	Spheres [][]int
	// DataShards (k) and ParityShards (m) set the layout: each snapshot
	// of size S is split into k data shards plus m Reed-Solomon parity
	// shards of ceil(S/k) bytes each, spread across k+m replica spheres,
	// so the tier costs S·(k+m)/k resident bytes per snapshot and any m
	// sphere losses remain recoverable. k = 1 is full-copy replication
	// (ReStore): every shard is the whole snapshot, held by the own
	// sphere plus m buddy spheres, at S·(1+m). Both must be >= 1 and
	// k+m may not exceed the number of spheres.
	DataShards   int
	ParityShards int
	// BudgetBytes caps the resident peer-tier bytes of any one physical
	// rank; 0 means unlimited. A stash that pushes a rank over budget
	// evicts the rank's oldest resident generation (never the one being
	// written), counted by peer_store_evictions_total.
	BudgetBytes int64
	// StableEvery forwards every StableEvery-th generation to Slow, so
	// peer generations can be much more frequent than stable ones (the
	// whole point of in-memory checkpointing). Zero or one means every
	// generation also goes to stable storage.
	StableEvery int
	// Slow is the stable-storage tier behind the peer tier; nil means
	// peer-memory only (a job failure beyond peer recovery then restarts
	// from scratch).
	Slow Storage
	// Live filters dead ranks out of holder candidate sets. Nil means
	// all ranks are presumed alive.
	Live Liveness
	// FetchRetries is how many rounds over the candidate holders a fetch
	// makes before giving up. Defaults to 4.
	FetchRetries int
	// FetchBackoff is the first inter-round backoff; it doubles each
	// round. Defaults to 500µs.
	FetchBackoff time.Duration
	// Obs receives the store's counters (peerstore_*, peer_fetch_*,
	// peer_store_*). Registration happens here, not at package init, so
	// jobs without peer replication never see these instruments.
	Obs *obs.Registry
	// Flight, when non-nil, receives a "peer_fetch" span per fetch on
	// the fetching rank's black-box stream (sphere = virtual rank being
	// fetched, step = generation).
	Flight *obs.Recorder
}

// PeerStore keeps checkpoint images replicated in the memory of peer
// ranks, after ReStore (Hübner et al. 2022): each rank stashes its
// sphere's shard 0 locally and the writer replica pushes one shard to
// each of the DataShards+ParityShards−1 neighbouring spheres over simmpi
// messages. Generations are double-buffered — a commit publishes
// atomically and garbage-collects everything older than the previous
// committed generation, so a failure mid-commit can never corrupt the
// last good generation.
//
// The control plane (holder registry, commit records) lives in shared
// memory under a mutex, standing in for ReStore's collective commit
// metadata; the data plane (images) moves over real messages, so the
// cost and failure surface of replication are modeled faithfully. The
// data plane is slot-based and arena-backed — generation slots, holder
// lists, and payload buffers all recycle — so steady-state replication
// allocates nothing per generation.
type PeerStore struct {
	cfg         PeerStoreConfig
	nPhys       int
	nVirt       int
	ownerOf     map[int]int // physical rank -> its sphere (virtual rank)
	codec       *erasure.Codec
	totalShards int

	// pending counts replicate frames sent but not yet absorbed by a
	// Serve loop; Settle waits for it so Drain covers in-flight sends.
	pending atomic.Int64

	mu sync.Mutex
	// floor is the oldest generation worth keeping (the committed
	// predecessor of the newest commit); replicate frames that arrive
	// after their generation was garbage-collected are dropped instead
	// of resurrecting dead slots.
	floor uint64
	// ranks[p] is physical rank p's resident slice of the store.
	ranks []rankShard
	// ctrls is the control plane, one entry per live generation,
	// ascending by generation.
	ctrls    []*genCtrl
	freeCtrl []*genCtrl
	resident int64 // total payload bytes resident across all ranks

	met peerMetrics
}

type peerMetrics struct {
	replicas   *obs.Counter // buddy shards pushed
	bytes      *obs.Counter // payload bytes replicated to buddies
	localHits  *obs.Counter // restores served from the rank's own memory
	remoteHits *obs.Counter // restores served by a peer fetch
	retries    *obs.Counter // fetch retry rounds
	exhausted  *obs.Counter // fetches that ran out of candidates
	evictions  *obs.Counter // generation slots evicted by the budget
	resident   *obs.Gauge   // resident payload bytes, store-wide
}

// rankShard is one physical rank's resident generations, ascending by
// generation. Dropped slots move to a free list so steady-state stash
// traffic reuses them.
type rankShard struct {
	gens     []*rankGen
	free     []*rankGen
	resident int64
}

// rankGen is the set of shards one physical rank holds for one
// generation, at most one per virtual rank. imgs stays small: a rank
// holds its own sphere's shard plus whatever shards its buddies pushed.
type rankGen struct {
	gen   uint64
	imgs  []image
	bytes int64
}

// image is one resident shard. data aliases a pooled buffer when pb is
// non-nil.
type image struct {
	v    int32
	idx  int16
	size uint32 // original snapshot size (the shard may be padded)
	data []byte
	pb   *mpi.PooledBuf
}

// genCtrl is the shared-memory control record of one generation.
type genCtrl struct {
	gen uint64
	// committedN is the published rank count; 0 means uncommitted.
	committedN int
	// holders[v] is the registry of physical ranks expected to hold
	// v's shards for this generation.
	holders [][]holderRef
}

type holderRef struct {
	phys int32
	idx  int16
}

// NewPeerStore builds a peer store over the given sphere topology.
func NewPeerStore(cfg PeerStoreConfig) (*PeerStore, error) {
	if len(cfg.Spheres) == 0 {
		return nil, fmt.Errorf("checkpoint: peer store needs a sphere map")
	}
	if cfg.StableEvery <= 0 {
		cfg.StableEvery = 1
	}
	if cfg.FetchRetries <= 0 {
		cfg.FetchRetries = 4
	}
	if cfg.FetchBackoff <= 0 {
		cfg.FetchBackoff = 500 * time.Microsecond
	}
	ps := &PeerStore{
		cfg:     cfg,
		nVirt:   len(cfg.Spheres),
		ownerOf: make(map[int]int),
	}
	for v, sphere := range cfg.Spheres {
		if len(sphere) == 0 {
			return nil, fmt.Errorf("checkpoint: sphere %d is empty", v)
		}
		for _, p := range sphere {
			if _, dup := ps.ownerOf[p]; dup {
				return nil, fmt.Errorf("checkpoint: physical rank %d in two spheres", p)
			}
			ps.ownerOf[p] = v
			if p+1 > ps.nPhys {
				ps.nPhys = p + 1
			}
		}
	}
	t := cfg.DataShards + cfg.ParityShards
	switch {
	case cfg.DataShards < 1 || cfg.ParityShards < 1:
		return nil, fmt.Errorf("checkpoint: peer tier needs DataShards >= 1 and ParityShards >= 1, got %d+%d",
			cfg.DataShards, cfg.ParityShards)
	case t > maxPeerShards:
		return nil, fmt.Errorf("checkpoint: DataShards+ParityShards = %d exceeds %d", t, maxPeerShards)
	case t > len(cfg.Spheres):
		return nil, fmt.Errorf("checkpoint: DataShards+ParityShards = %d needs that many spheres, have %d",
			t, len(cfg.Spheres))
	}
	codec, err := erasure.New(cfg.DataShards, cfg.ParityShards)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	ps.codec = codec
	ps.totalShards = t
	if cfg.BudgetBytes < 0 {
		return nil, fmt.Errorf("checkpoint: peer budget = %d bytes", cfg.BudgetBytes)
	}
	ps.ranks = make([]rankShard, ps.nPhys)
	ps.met = peerMetrics{
		replicas:   cfg.Obs.Counter("peerstore_replicas_total"),
		bytes:      cfg.Obs.Counter("peerstore_bytes_replicated_total"),
		localHits:  cfg.Obs.Counter("peer_fetch_local_total"),
		remoteHits: cfg.Obs.Counter("peer_fetch_remote_total"),
		retries:    cfg.Obs.Counter("peer_fetch_retries_total"),
		exhausted:  cfg.Obs.Counter("peer_fetch_exhausted_total"),
		evictions:  cfg.Obs.Counter("peer_store_evictions_total"),
		resident:   cfg.Obs.Gauge("peer_store_resident_bytes"),
	}
	return ps, nil
}

// Buddies returns the physical ranks that receive shards of virtual
// rank v's image: buddy i−1 is the writer replica of sphere (v+i) mod n
// and holds shard i, for i = 1..DataShards+ParityShards−1 (shard 0 stays
// in v's own sphere). The set is a function of the sphere alone, so
// every replica of v pushes to the same buddies and tests can predict
// exactly which deaths exhaust a fetch.
func (ps *PeerStore) Buddies(v int) []int {
	out := make([]int, ps.totalShards-1)
	for i := range out {
		out[i] = ps.buddy(v, i+1)
	}
	return out
}

// buddy is the physical rank that holds shard i of v's image (i >= 1).
func (ps *PeerStore) buddy(v, i int) int {
	return ps.cfg.Spheres[(v+i)%ps.nVirt][0]
}

func (ps *PeerStore) alive(p int) bool {
	return ps.cfg.Live == nil || ps.cfg.Live.Alive(p)
}

// --- control plane -----------------------------------------------------

// ctrlLocked finds the control record of gen, inserting one (recycled
// from the free list when possible) if create is set.
func (ps *PeerStore) ctrlLocked(gen uint64, create bool) *genCtrl {
	i := len(ps.ctrls)
	for i > 0 && ps.ctrls[i-1].gen > gen {
		i--
	}
	if i > 0 && ps.ctrls[i-1].gen == gen {
		return ps.ctrls[i-1]
	}
	if !create {
		return nil
	}
	var c *genCtrl
	if n := len(ps.freeCtrl); n > 0 {
		c = ps.freeCtrl[n-1]
		ps.freeCtrl = ps.freeCtrl[:n-1]
	} else {
		c = &genCtrl{holders: make([][]holderRef, ps.nVirt)}
	}
	c.gen = gen
	c.committedN = 0
	ps.ctrls = append(ps.ctrls, nil)
	copy(ps.ctrls[i+1:], ps.ctrls[i:])
	ps.ctrls[i] = c
	return c
}

// releaseCtrlLocked recycles a control record, keeping the holder
// slices' capacity.
func (ps *PeerStore) releaseCtrlLocked(c *genCtrl) {
	for v := range c.holders {
		c.holders[v] = c.holders[v][:0]
	}
	ps.freeCtrl = append(ps.freeCtrl, c)
}

// registerHolderLocked records that phys holds shard idx of v for gen,
// replacing any earlier record for the same rank (a rank holds at most
// one shard of each virtual rank).
func (ps *PeerStore) registerHolderLocked(gen uint64, v, phys int, idx int16) {
	c := ps.ctrlLocked(gen, true)
	hs := c.holders[v]
	for i := range hs {
		if int(hs[i].phys) == phys {
			hs[i].idx = idx
			return
		}
	}
	c.holders[v] = append(hs, holderRef{phys: int32(phys), idx: idx})
}

func (ps *PeerStore) deregisterHolderLocked(gen uint64, v, phys int) {
	c := ps.ctrlLocked(gen, false)
	if c == nil {
		return
	}
	hs := c.holders[v]
	kept := hs[:0]
	for _, h := range hs {
		if int(h.phys) != phys {
			kept = append(kept, h)
		}
	}
	c.holders[v] = kept
}

// --- data plane --------------------------------------------------------

// rankGenLocked finds rank p's slot for gen, inserting one (recycled
// when possible) if create is set.
func (ps *PeerStore) rankGenLocked(phys int, gen uint64, create bool) *rankGen {
	rs := &ps.ranks[phys]
	i := len(rs.gens)
	for i > 0 && rs.gens[i-1].gen > gen {
		i--
	}
	if i > 0 && rs.gens[i-1].gen == gen {
		return rs.gens[i-1]
	}
	if !create {
		return nil
	}
	var rg *rankGen
	if n := len(rs.free); n > 0 {
		rg = rs.free[n-1]
		rs.free = rs.free[:n-1]
	} else {
		rg = &rankGen{}
	}
	rg.gen = gen
	rs.gens = append(rs.gens, nil)
	copy(rs.gens[i+1:], rs.gens[i:])
	rs.gens[i] = rg
	return rg
}

// dropRankGenLocked releases slot i of rank p: payload buffers return
// to their arena, holder registrations are withdrawn, and the slot
// moves to the rank's free list.
func (ps *PeerStore) dropRankGenLocked(phys, i int) {
	rs := &ps.ranks[phys]
	rg := rs.gens[i]
	for j := range rg.imgs {
		img := &rg.imgs[j]
		ps.deregisterHolderLocked(rg.gen, int(img.v), phys)
		if img.pb != nil {
			img.pb.Release()
		}
		*img = image{}
	}
	rs.resident -= rg.bytes
	ps.resident -= rg.bytes
	rg.imgs = rg.imgs[:0]
	rg.bytes = 0
	copy(rs.gens[i:], rs.gens[i+1:])
	rs.gens = rs.gens[:len(rs.gens)-1]
	rs.free = append(rs.free, rg)
}

func (rg *rankGen) find(v int) *image {
	for i := range rg.imgs {
		if int(rg.imgs[i].v) == v {
			return &rg.imgs[i]
		}
	}
	return nil
}

// stashImage copies payload into a pooled buffer and records it as
// phys's shard idx of (gen, v), registering the holder and enforcing
// the memory budget.
func (ps *PeerStore) stashImage(phys int, gen uint64, v int, idx int16, size uint32, payload []byte) {
	if phys < 0 || phys >= ps.nPhys || v < 0 || v >= ps.nVirt {
		return
	}
	buf, pb := snapPool.acquire(len(payload))
	copy(buf, payload)
	ps.mu.Lock()
	if gen < ps.floor {
		// A straggler frame for a garbage-collected generation: it can
		// never become the restore point again, so stashing it would only
		// churn slots until the next gc sweep.
		ps.mu.Unlock()
		if pb != nil {
			pb.Release()
		}
		return
	}
	rg := ps.rankGenLocked(phys, gen, true)
	rs := &ps.ranks[phys]
	if img := rg.find(v); img != nil {
		// Re-stash: swap payloads and adjust the accounting.
		delta := int64(len(buf)) - int64(len(img.data))
		if img.pb != nil {
			img.pb.Release()
		}
		img.idx, img.size, img.data, img.pb = idx, size, buf, pb
		rg.bytes += delta
		rs.resident += delta
		ps.resident += delta
	} else {
		rg.imgs = append(rg.imgs, image{v: int32(v), idx: idx, size: size, data: buf, pb: pb})
		rg.bytes += int64(len(buf))
		rs.resident += int64(len(buf))
		ps.resident += int64(len(buf))
	}
	ps.registerHolderLocked(gen, v, phys, idx)
	ps.evictOverBudgetLocked(phys, gen)
	ps.met.resident.Set(ps.resident)
	ps.mu.Unlock()
}

// evictOverBudgetLocked drops rank p's oldest resident generations
// until the rank is back under BudgetBytes, never touching the
// generation currently being written. The specpriv checkpoint manager's
// saturation check: bound the resident set, sacrifice the oldest.
func (ps *PeerStore) evictOverBudgetLocked(phys int, keep uint64) {
	if ps.cfg.BudgetBytes <= 0 {
		return
	}
	rs := &ps.ranks[phys]
	for rs.resident > ps.cfg.BudgetBytes && len(rs.gens) > 0 {
		if rs.gens[0].gen == keep {
			break
		}
		ps.dropRankGenLocked(phys, 0)
		ps.met.evictions.Inc()
	}
}

// stash records state's shard 0 — a plain prefix of the snapshot, the
// whole snapshot when DataShards is 1 — as phys's shard of (gen, v):
// what every replica of v keeps locally on write, and what a revived
// rank keeps after fetching its image.
func (ps *PeerStore) stash(phys int, gen uint64, v int, state []byte) {
	sl := erasure.ShardLen(ps.cfg.DataShards, len(state))
	ps.stashImage(phys, gen, v, 0, uint32(len(state)), state[:sl])
}

// lookup returns a copy of the shard phys holds for (gen, v), if any.
func (ps *PeerStore) lookup(phys int, gen uint64, v int) (data []byte, idx int16, size uint32, ok bool) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if phys < 0 || phys >= ps.nPhys {
		return nil, 0, 0, false
	}
	rg := ps.rankGenLocked(phys, gen, false)
	if rg == nil {
		return nil, 0, 0, false
	}
	img := rg.find(v)
	if img == nil {
		return nil, 0, 0, false
	}
	out := make([]byte, len(img.data))
	copy(out, img.data)
	return out, img.idx, img.size, true
}

// InvalidateRank wipes a physical rank's slice of the store and its
// holder registrations: the rank's memory is gone (it was killed), so
// fetches must not be routed to its revived incarnation until it
// re-stashes at the next checkpoint.
func (ps *PeerStore) InvalidateRank(phys int) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if phys < 0 || phys >= ps.nPhys {
		return
	}
	for len(ps.ranks[phys].gens) > 0 {
		ps.dropRankGenLocked(phys, 0)
	}
	// Withdraw registrations with no resident payload behind them
	// (frames lost in flight when the rank died).
	for _, c := range ps.ctrls {
		for v := range c.holders {
			ps.deregisterHolderLocked(c.gen, v, phys)
		}
	}
	ps.met.resident.Set(ps.resident)
}

// UsableGeneration returns the newest committed generation every
// virtual rank of which is still recoverable from live holders — at
// least DataShards distinct shards. ok is false when no generation
// qualifies, which tells the orchestrator to fall back to a full
// restart.
func (ps *PeerStore) UsableGeneration() (gen uint64, n int, ok bool) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return ps.usableLocked()
}

func (ps *PeerStore) usableLocked() (uint64, int, bool) {
	for i := len(ps.ctrls) - 1; i >= 0; i-- {
		c := ps.ctrls[i]
		if c.committedN == 0 {
			continue
		}
		if ps.coveredLocked(c, c.committedN, true, false) {
			return c.gen, c.committedN, true
		}
	}
	return 0, 0, false
}

// coveredLocked reports whether every virtual rank below n is
// recoverable for c's generation. liveOnly restricts the holder set to
// live ranks; stashed additionally requires the payload to actually be
// resident (the recovery-time promotion check, which must not trust
// registrations whose frames died in a mailbox).
func (ps *PeerStore) coveredLocked(c *genCtrl, n int, liveOnly, stashed bool) bool {
	for v := 0; v < n; v++ {
		var shardSet uint64
		for _, h := range c.holders[v] {
			phys := int(h.phys)
			if liveOnly && !ps.alive(phys) {
				continue
			}
			idx := h.idx
			if stashed {
				rg := ps.rankGenLocked(phys, c.gen, false)
				if rg == nil {
					continue
				}
				img := rg.find(v)
				if img == nil {
					continue
				}
				idx = img.idx
			}
			shardSet |= uint64(1) << uint(idx)
		}
		if bits.OnesCount64(shardSet) < ps.cfg.DataShards {
			return false
		}
	}
	return true
}

// PromoteComplete commits the newest uncommitted generation whose
// payloads are fully resident on live ranks. The recovery path calls it
// after flushing the async pipeline: under the commit-lags-one
// protocol the latest generation's writes may have drained without any
// rank reaching the next checkpoint line to commit them — promoting it
// makes the partial restart as cheap as the synchronous tier's. The
// slow tier is left alone: its own commit record still comes from the
// regular cadence.
func (ps *PeerStore) PromoteComplete() (uint64, int, bool) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	for i := len(ps.ctrls) - 1; i >= 0; i-- {
		c := ps.ctrls[i]
		if c.committedN > 0 {
			break // everything older is committed or superseded
		}
		if ps.coveredLocked(c, ps.nVirt, true, true) {
			c.committedN = ps.nVirt
			ps.gcLocked(c.gen)
			return c.gen, ps.nVirt, true
		}
	}
	return 0, 0, false
}

// settleTimeout bounds how long Settle waits for in-flight replicate
// frames; frames addressed to a rank that died mid-send never arrive,
// so the wait also gives up once the pending count stops moving.
const settleTimeout = 50 * time.Millisecond

// Settle waits (bounded) until every replicate frame sent so far has
// been absorbed by a Serve loop, extending the checkpoint client's
// Drain to cover in-flight peer sends: after Drain+Settle, the latest
// generation's shards are resident at their holders, not just in
// flight.
func (ps *PeerStore) Settle() {
	deadline := time.Now().Add(settleTimeout)
	last := ps.pending.Load()
	stable := 0
	for last > 0 {
		if time.Now().After(deadline) {
			return
		}
		time.Sleep(50 * time.Microsecond)
		cur := ps.pending.Load()
		if cur == last {
			if stable++; stable >= 40 {
				return // no progress: frames were dropped at a dead rank's door
			}
		} else {
			stable, last = 0, cur
		}
	}
}

// ResetPending clears the in-flight send count. The recovery path calls
// it after quiescing the world: undelivered frames from the failed
// epoch are purged with the epoch's traffic and will never arrive.
func (ps *PeerStore) ResetPending() { ps.pending.Store(0) }

// Serve runs the replication/fetch server for one physical rank until
// its communicator errors (kill, interrupt, or abort). The orchestrator
// runs one Serve goroutine per rank per epoch, concurrently with the
// application, so buddies absorb images and answer fetches without the
// application's cooperation.
func (ps *PeerStore) Serve(comm mpi.Comm) {
	me := comm.Rank()
	for {
		msg, err := comm.Recv(mpi.AnySource, tagPeerService)
		if err != nil {
			return
		}
		fr, derr := decodePeer(msg.Data)
		if derr != nil {
			msg.Release()
			continue
		}
		switch fr.op {
		case opReplicate:
			// stashImage copies the payload, so the transport buffer can
			// recycle immediately.
			ps.stashImage(me, fr.gen, fr.v, fr.idx, fr.size, fr.payload)
			ps.pending.Add(-1)
			msg.Release()
		case opFetch:
			msg.Release()
			reply := peerFrame{op: opMiss, gen: fr.gen, v: fr.v}
			if data, idx, size, ok := ps.lookup(me, fr.gen, fr.v); ok {
				reply = peerFrame{op: opFound, gen: fr.gen, v: fr.v, idx: idx, size: size, payload: data}
			}
			if err := sendPeerFrame(comm, msg.Source, tagPeerReply, reply); err != nil {
				return
			}
		default:
			msg.Release()
		}
	}
}

// View binds the store to one physical rank's communicator and returns
// the Storage the rank's checkpoint client writes through. Views are
// cheap; the orchestrator makes a fresh one per rank per epoch.
func (ps *PeerStore) View(comm mpi.Comm) Storage {
	return &peerView{ps: ps, comm: comm}
}

// peerView is the per-rank Storage facade over a PeerStore. The rank
// argument of Write/Read is the *virtual* rank (that is what the
// checkpoint client passes); the physical identity comes from the bound
// communicator.
type peerView struct {
	ps   *PeerStore
	comm mpi.Comm
}

var (
	_ Storage = (*peerView)(nil)
	_ Settler = (*peerView)(nil)
)

// Settle implements Settler: Drain waits for this view's store to
// absorb in-flight replicate frames.
func (pv *peerView) Settle() { pv.ps.Settle() }

// isSphereWriter reports whether this view's physical rank is the lowest
// live replica of sphere v — the one that pushes buddy shards and writes
// the stable tier (every replica stashes shard 0 locally).
func (pv *peerView) isSphereWriter(v int) bool {
	for _, p := range pv.ps.cfg.Spheres[v] {
		if pv.ps.alive(p) {
			return p == pv.comm.Rank()
		}
	}
	return false
}

// Write implements Storage: every replica stashes shard 0 locally; the
// sphere's writer replica also pushes the other shards to the buddies
// and the full image to the stable tier at its cadence. Under an async
// Pipeline this whole method runs on a background worker; the pending
// counter plus Settle keep the drain/commit contract honest.
func (pv *peerView) Write(gen uint64, rank int, state []byte) error {
	ps := pv.ps
	if rank < 0 || rank >= ps.nVirt {
		return fmt.Errorf("checkpoint: peer write rank %d of %d", rank, ps.nVirt)
	}
	ps.stash(pv.comm.Rank(), gen, rank, state)
	if !pv.isSphereWriter(rank) {
		return nil
	}
	if err := pv.pushShards(gen, rank, state); err != nil {
		return err
	}
	if ps.cfg.Slow != nil && gen%uint64(ps.cfg.StableEvery) == 0 {
		return ps.cfg.Slow.Write(gen, rank, state)
	}
	return nil
}

// pushShards sends shard i of the snapshot, for 1 <= i < k+m, to the
// writer replica of sphere (rank+i) mod n, so losing any ParityShards
// spheres loses at most ParityShards distinct shards. Data shards are
// plain slices of the snapshot and skip the codec; only a short (zero-
// padded) trailing data shard is copied. At k = 1 every parity row is
// [1], so every shard is the snapshot itself and nothing is encoded.
func (pv *peerView) pushShards(gen uint64, rank int, state []byte) error {
	ps := pv.ps
	k, t := ps.cfg.DataShards, ps.totalShards
	sl := erasure.ShardLen(k, len(state))
	var arr [maxPeerShards][]byte
	shards := arr[:t]
	if k == 1 {
		for i := range shards {
			shards[i] = state
		}
	} else {
		padded := 0
		if sl > 0 {
			padded = k - len(state)/sl
		}
		buf, pb := snapPool.acquire((padded + t - k) * sl)
		if pb != nil {
			defer pb.Release()
		}
		for i := range shards {
			lo, hi := min(i*sl, len(state)), min((i+1)*sl, len(state))
			if i < k && hi-lo == sl {
				shards[i] = state[lo:hi]
				continue
			}
			shards[i], buf = buf[:sl], buf[sl:]
			if i < k {
				clear(shards[i][copy(shards[i], state[lo:hi]):])
			}
		}
		ps.codec.EncodeParity(shards)
	}
	for i := 1; i < t; i++ {
		dst := ps.buddy(rank, i)
		if !ps.alive(dst) {
			continue // shard lost; parity absorbs up to ParityShards of these
		}
		fr := peerFrame{op: opReplicate, gen: gen, v: rank, idx: int16(i), size: uint32(len(state)), payload: shards[i]}
		ps.pending.Add(1)
		if err := sendPeerFrame(pv.comm, dst, tagPeerService, fr); err != nil {
			ps.pending.Add(-1)
			return fmt.Errorf("checkpoint: replicating gen %d rank %d shard %d to %d: %w", gen, rank, i, dst, err)
		}
		ps.mu.Lock()
		ps.registerHolderLocked(gen, rank, dst, int16(i))
		ps.mu.Unlock()
		ps.met.replicas.Inc()
		ps.met.bytes.Add(uint64(sl))
	}
	return nil
}

// Commit implements Storage: publish the generation in the peer control
// plane (requiring registered holders able to restore every rank — the
// mid-commit double-buffer guarantee), forward stable-cadence
// generations to the slow tier, and garbage-collect everything older
// than the previous committed generation.
func (pv *peerView) Commit(gen uint64, n int) error {
	ps := pv.ps
	ps.mu.Lock()
	c := ps.ctrlLocked(gen, true)
	if c.committedN == 0 {
		if !ps.coveredLocked(c, n, false, false) {
			ps.mu.Unlock()
			return fmt.Errorf("commit gen %d: %w", gen, ErrIncomplete)
		}
		c.committedN = n
		ps.gcLocked(gen)
	}
	ps.mu.Unlock()
	if ps.cfg.Slow != nil && gen%uint64(ps.cfg.StableEvery) == 0 {
		return ps.cfg.Slow.Commit(gen, n)
	}
	return nil
}

// gcLocked drops every generation older than the committed generation
// preceding justCommitted, keeping exactly the double buffer: the new
// generation and its committed predecessor.
func (ps *PeerStore) gcLocked(justCommitted uint64) {
	var prev uint64
	hasPrev := false
	for _, c := range ps.ctrls {
		if c.committedN > 0 && c.gen < justCommitted && (!hasPrev || c.gen > prev) {
			prev = c.gen
			hasPrev = true
		}
	}
	floor := justCommitted
	if hasPrev {
		floor = prev
	}
	if floor > ps.floor {
		ps.floor = floor
	}
	kept := ps.ctrls[:0]
	for _, c := range ps.ctrls {
		if c.gen < floor {
			ps.releaseCtrlLocked(c)
		} else {
			kept = append(kept, c)
		}
	}
	for i := len(kept); i < len(ps.ctrls); i++ {
		ps.ctrls[i] = nil
	}
	ps.ctrls = kept
	for p := range ps.ranks {
		for len(ps.ranks[p].gens) > 0 && ps.ranks[p].gens[0].gen < floor {
			ps.dropRankGenLocked(p, 0)
		}
	}
	ps.met.resident.Set(ps.resident)
}

// Latest implements Storage: the newest generation restorable right now,
// preferring the peer tier when its best live-covered generation is at
// least as new as stable storage's.
func (pv *peerView) Latest() (uint64, int, bool, error) {
	ps := pv.ps
	ps.mu.Lock()
	fastGen, fastN, fastOK := ps.usableLocked()
	ps.mu.Unlock()
	if ps.cfg.Slow != nil {
		slowGen, slowN, slowOK, err := ps.cfg.Slow.Latest()
		if err != nil {
			return 0, 0, false, err
		}
		if slowOK && (!fastOK || slowGen > fastGen) {
			return slowGen, slowN, true, nil
		}
	}
	return fastGen, fastN, fastOK, nil
}

// Read implements Storage: this rank's own shard first (a survivor whose
// shards already cover DataShards — at k = 1, its own copy — restores
// with zero traffic), then a bounded-retry fetch of the missing shards
// from live holders, then, for generations stable storage also has, the
// slow tier.
func (pv *peerView) Read(gen uint64, rank int) ([]byte, error) {
	ps := pv.ps
	ps.mu.Lock()
	c := ps.ctrlLocked(gen, false)
	fastCommitted := c != nil && c.committedN > 0
	ps.mu.Unlock()
	if !fastCommitted {
		if ps.cfg.Slow != nil {
			return ps.cfg.Slow.Read(gen, rank)
		}
		return nil, fmt.Errorf("read gen %d: %w", gen, ErrNotCommitted)
	}
	me := pv.comm.Rank()
	shards := make([][]byte, ps.totalShards)
	var size uint32
	have := 0
	if data, idx, sz, ok := ps.lookup(me, gen, rank); ok {
		shards[idx], size, have = data, sz, 1
	}
	if have >= ps.cfg.DataShards {
		ps.met.localHits.Inc()
		return ps.codec.Reconstruct(shards, int(size))
	}
	state, err := pv.fetch(gen, rank, shards, size, have)
	if err == nil {
		if have == 0 {
			// A rank that held nothing (revived) keeps shard 0 again: it
			// is a holder once more, and at k = 1 its next restore is
			// local.
			ps.stash(me, gen, rank, state)
		}
		return state, nil
	}
	if errors.Is(err, ErrPeerFetchExhausted) && ps.cfg.Slow != nil {
		if slow, serr := ps.cfg.Slow.Read(gen, rank); serr == nil {
			return slow, nil
		}
	}
	return nil, err
}

// fetch asks live holders for the shards missing from shards (have of
// them are already in hand, all of size bytes of snapshot), FetchRetries
// rounds over the candidate set with exponentially backed-off pauses
// between rounds (a replicate may still be in a buddy's mailbox when the
// fetch starts), and reconstructs as soon as DataShards distinct shards
// are in hand.
func (pv *peerView) fetch(gen uint64, rank int, shards [][]byte, size uint32, have int) ([]byte, error) {
	ps := pv.ps
	me := pv.comm.Rank()
	sp := ps.cfg.Flight.StartSpan("peer_fetch", me, rank, int(gen))
	defer sp.End()

	backoff := ps.cfg.FetchBackoff
	for round := 0; round < ps.cfg.FetchRetries; round++ {
		if round > 0 {
			ps.met.retries.Inc()
			time.Sleep(backoff)
			backoff *= 2
		}
		ps.mu.Lock()
		var candidates []int
		if c := ps.ctrlLocked(gen, false); c != nil {
			for _, h := range c.holders[rank] {
				candidates = append(candidates, int(h.phys))
			}
		}
		ps.mu.Unlock()
		sort.Ints(candidates)
		for _, c := range candidates {
			if c == me || !ps.alive(c) {
				continue
			}
			if err := sendPeerFrame(pv.comm, c, tagPeerService, peerFrame{op: opFetch, gen: gen, v: rank}); err != nil {
				return nil, err
			}
			msg, err := pv.comm.Recv(c, tagPeerReply)
			if errors.Is(err, mpi.ErrPeerDead) {
				continue // holder died mid-request; try the next one
			}
			if err != nil {
				return nil, err
			}
			fr, derr := decodePeer(msg.Data)
			if derr != nil || fr.gen != gen || fr.v != rank || fr.op != opFound ||
				fr.idx < 0 || int(fr.idx) >= ps.totalShards || shards[fr.idx] != nil {
				msg.Release()
				continue
			}
			shard := make([]byte, len(fr.payload))
			copy(shard, fr.payload)
			msg.Release()
			shards[fr.idx], size = shard, fr.size
			if have++; have < ps.cfg.DataShards {
				continue
			}
			state, err := ps.codec.Reconstruct(shards, int(size))
			if err != nil {
				return nil, fmt.Errorf("gen %d rank %d: %w", gen, rank, err)
			}
			ps.met.remoteHits.Inc()
			return state, nil
		}
	}
	ps.met.exhausted.Inc()
	return nil, fmt.Errorf("gen %d rank %d after %d rounds (%d shards in hand): %w",
		gen, rank, ps.cfg.FetchRetries, have, ErrPeerFetchExhausted)
}

// Drop implements Storage.
func (pv *peerView) Drop(gen uint64) error {
	ps := pv.ps
	ps.mu.Lock()
	for p := range ps.ranks {
		for i := 0; i < len(ps.ranks[p].gens); {
			if ps.ranks[p].gens[i].gen == gen {
				ps.dropRankGenLocked(p, i)
			} else {
				i++
			}
		}
	}
	kept := ps.ctrls[:0]
	for _, c := range ps.ctrls {
		if c.gen == gen {
			ps.releaseCtrlLocked(c)
		} else {
			kept = append(kept, c)
		}
	}
	for i := len(kept); i < len(ps.ctrls); i++ {
		ps.ctrls[i] = nil
	}
	ps.ctrls = kept
	ps.met.resident.Set(ps.resident)
	ps.mu.Unlock()
	if ps.cfg.Slow != nil {
		return ps.cfg.Slow.Drop(gen)
	}
	return nil
}
