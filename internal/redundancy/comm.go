package redundancy

import (
	"bytes"
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/mpi"
)

// Mode selects how replicas cross-check message payloads (paper §2,
// RedMPI description).
type Mode int

const (
	// AllToAll sends complete messages from every sender replica to every
	// receiver replica; receivers compare all copies byte for byte and,
	// at triple redundancy, vote out a corrupt copy. This is the mode the
	// paper's experiments use.
	AllToAll Mode = iota + 1
	// MsgPlusHash sends one complete message plus hashes from the other
	// sender replicas, cutting bandwidth while retaining detection. The
	// full copy comes from sender replica (receiverIndex mod senderCount).
	// If that particular replica dies before sending, the payload is
	// unrecoverable (ErrPayloadLost); use AllToAll under failure
	// injection.
	MsgPlusHash
)

// Liveness reports which physical ranks are still alive. The failure
// injector provides the live view; failure-free runs use AllAlive.
type Liveness interface {
	Alive(phys int) bool
}

// AllAlive is the trivial liveness view for failure-free execution.
type AllAlive struct{}

// Alive always reports true.
func (AllAlive) Alive(int) bool { return true }

// Options configures the interposition layer.
//
// Deprecated: use Wrap with the shared mpi.Option surface.
type Options struct {
	// Mode defaults to AllToAll.
	Mode Mode
	// Live defaults to AllAlive.
	Live Liveness
	// Corrupt makes this replica flip the first byte of every outgoing
	// application payload — deterministic silent-data-corruption
	// injection for exercising the mismatch/vote machinery (the faults
	// RedMPI exists to catch). Corrupting a non-lowest replica keeps
	// delivered payloads clean at dual redundancy, since ties resolve to
	// the lowest replica's copy.
	Corrupt bool
}

// Errors specific to the redundancy layer.
var (
	// ErrSphereDead reports that every replica of the awaited virtual
	// rank died before sending; the virtual channel is gone.
	ErrSphereDead = errors.New("redundancy: all replicas of virtual peer dead")
	// ErrPayloadLost reports that in Msg-PlusHash mode the one replica
	// carrying the full payload died, leaving only hashes.
	ErrPayloadLost = errors.New("redundancy: full payload copy lost")
	// ErrPayloadCorrupt reports that payload verification failed with no
	// correct majority to vote from.
	ErrPayloadCorrupt = errors.New("redundancy: payload corrupt, no majority")
	// errProtocol reports an internal wildcard-protocol violation.
	errProtocol = errors.New("redundancy: wildcard protocol violation")
)

// Stats counts layer activity; all fields are totals since creation.
type Stats struct {
	// VirtualSends is the number of application-level sends issued.
	VirtualSends uint64
	// PhysicalSends is the number of physical point-to-point messages
	// sent (the paper's "up to four times the number of messages").
	// PhysicalSends - VirtualSends is the pure duplicate-send overhead
	// the redundancy degree buys.
	PhysicalSends uint64
	// Deliveries is the number of virtual messages delivered upward.
	Deliveries uint64
	// Votes counts deliveries that cross-checked two or more replica
	// copies (the comparisons the paper's overhead model charges for).
	Votes uint64
	// Mismatches counts deliveries where replica copies disagreed.
	Mismatches uint64
	// Corrections counts mismatches repaired by majority vote.
	Corrections uint64
	// EnvelopesSent counts wildcard-protocol control messages emitted.
	EnvelopesSent uint64
	// Failovers counts wildcard leader re-elections after a death.
	Failovers uint64
}

// Comm presents a virtual-rank mpi.Comm over a physical transport,
// transparently replicating traffic per the rank map. A Comm belongs to
// one replica goroutine and is not safe for concurrent use, matching MPI
// communicator semantics.
type Comm struct {
	m       *RankMap
	phys    mpi.Comm
	me      Replica
	live    Liveness
	mode    Mode
	corrupt bool

	// shared is phys's zero-copy fan-out capability, if it has one: the
	// encoded payload lives in one pooled buffer referenced by every
	// physical send instead of being deep-copied per replica. nil when
	// the transport doesn't pool (then sends fall back to plain copies).
	shared mpi.SharedSender

	// hashScratch backs payload digests on the send and verify paths so
	// the per-message hash does not allocate. Safe because a Comm belongs
	// to one replica goroutine.
	hashScratch [8]byte
	// digests counts the payload digests this endpoint computed. Only
	// Msg-PlusHash traffic needs one (a hash copy to send or to check);
	// tests pin it at zero for All-to-all and unreplicated deliveries.
	digests uint64

	// Receive-path scratch, reused across blocking receives and
	// verifications for the same single-goroutine reason. Entries are
	// dead once the call returns: losers are released, the winner's
	// buffer ownership moves into the delivered message.
	copiesScratch []wireMsg
	fullsScratch  [][]byte
	fullIdx       []int
	hashesScratch [][]byte

	sent []atomic.Uint64
	recv []atomic.Uint64

	// wildcardSeq tracks, per control channel, how many wildcard
	// operations this replica has completed; it synchronises envelope
	// streams across leader failovers.
	wildcardSeq map[int]uint64

	// Virtual fault-observation state (single-goroutine, like the rest
	// of the Comm): the installed errhandler, the virtual ranks it has
	// been told about, and the not-yet-acknowledged subset that gates
	// wildcard receives with mpi.ErrFailurePending.
	vhandler  func(mpi.FailureInfo)
	vnotified map[int]bool
	unacked   map[int]bool
	// excluded records virtual ranks dropped by a Shrink this endpoint
	// participated in. Exclusion is decided by the shrink collective, so
	// the set is identical on every replica — which makes it the only
	// safe filter for failure notifications: observation *timing* (which
	// replica's handler fired first) is not replica-consistent, but
	// membership is.
	excluded map[int]bool

	stats struct {
		virtualSends  atomic.Uint64
		physicalSends atomic.Uint64
		deliveries    atomic.Uint64
		votes         atomic.Uint64
		mismatches    atomic.Uint64
		corrections   atomic.Uint64
		envelopes     atomic.Uint64
		failovers     atomic.Uint64
	}
}

var (
	_ mpi.Comm         = (*Comm)(nil)
	_ mpi.CountTracker = (*Comm)(nil)
)

// Wrap wraps a physical endpoint into its virtual-rank view, configured
// by the same mpi.Option list that configures simmpi.NewWorld — one
// option set threads through the whole stack, each layer applying the
// fields it understands. The physical comm's rank determines which
// replica this endpoint embodies; mpi.WithHashCompare selects
// Msg-PlusHash mode, mpi.WithLiveness supplies the failover view, and a
// physical rank listed in mpi.WithCorruptRanks makes this replica inject
// silent data corruption. mpi.WithDegree, when given, is cross-checked
// against the rank map's geometry.
func Wrap(phys mpi.Comm, m *RankMap, opts ...mpi.Option) (*Comm, error) {
	o := mpi.ResolveOptions(opts)
	if o.Degree != 0 {
		ref, err := NewRankMap(m.VirtualSize(), o.Degree)
		if err != nil {
			return nil, fmt.Errorf("redundancy: degree %g: %w", o.Degree, err)
		}
		if ref.PhysicalSize() != m.PhysicalSize() {
			return nil, fmt.Errorf("redundancy: degree %g needs %d physical ranks, rank map has %d",
				o.Degree, ref.PhysicalSize(), m.PhysicalSize())
		}
	}
	ropts := Options{}
	if o.HashCompare {
		ropts.Mode = MsgPlusHash
	}
	if o.Liveness != nil {
		ropts.Live = o.Liveness
	}
	for _, r := range o.CorruptRanks {
		if r == phys.Rank() {
			ropts.Corrupt = true
		}
	}
	return newComm(phys, m, ropts)
}

// New wraps a physical endpoint into its virtual-rank view. The physical
// comm's rank determines which replica this endpoint embodies.
//
// Deprecated: use Wrap with the shared mpi.Option surface.
func New(phys mpi.Comm, m *RankMap, opts Options) (*Comm, error) {
	return newComm(phys, m, opts)
}

func newComm(phys mpi.Comm, m *RankMap, opts Options) (*Comm, error) {
	if phys.Size() != m.PhysicalSize() {
		return nil, fmt.Errorf("redundancy: physical world %d, map needs %d",
			phys.Size(), m.PhysicalSize())
	}
	me, err := m.Owner(phys.Rank())
	if err != nil {
		return nil, err
	}
	if opts.Mode == 0 {
		opts.Mode = AllToAll
	}
	if opts.Live == nil {
		opts.Live = AllAlive{}
	}
	c := &Comm{
		m:           m,
		phys:        phys,
		me:          me,
		live:        opts.Live,
		mode:        opts.Mode,
		corrupt:     opts.Corrupt,
		sent:        make([]atomic.Uint64, m.VirtualSize()),
		recv:        make([]atomic.Uint64, m.VirtualSize()),
		wildcardSeq: make(map[int]uint64),
	}
	c.shared, _ = phys.(mpi.SharedSender)
	return c, nil
}

// Rank returns the virtual rank this replica embodies.
func (c *Comm) Rank() int { return c.me.Virtual }

// Size returns the virtual world size N.
func (c *Comm) Size() int { return c.m.VirtualSize() }

// ReplicaIndex returns this endpoint's index within its sphere.
func (c *Comm) ReplicaIndex() int { return c.me.Index }

// IsLead reports whether this endpoint is its sphere's lead replica:
// the lowest-indexed live one. The lead posts wildcard receives for the
// sphere and is the replica that persists the rank's checkpoint state;
// the role moves to the next twin when the lead dies.
func (c *Comm) IsLead() bool {
	return c.leaderIndex(c.m.replicas[c.me.Virtual]) == c.me.Index
}

// Physical returns the underlying physical rank. Layers that key
// telemetry streams by physical rank (the flight recorder) use this to
// keep a virtual rank's replicas on distinct streams.
func (c *Comm) Physical() int { return c.phys.Rank() }

// Map returns the rank map in use.
func (c *Comm) Map() *RankMap { return c.m }

// Stats returns a snapshot of the layer's counters.
func (c *Comm) Stats() Stats {
	return Stats{
		VirtualSends:  c.stats.virtualSends.Load(),
		PhysicalSends: c.stats.physicalSends.Load(),
		Deliveries:    c.stats.deliveries.Load(),
		Votes:         c.stats.votes.Load(),
		Mismatches:    c.stats.mismatches.Load(),
		Corrections:   c.stats.corrections.Load(),
		EnvelopesSent: c.stats.envelopes.Load(),
		Failovers:     c.stats.failovers.Load(),
	}
}

func (c *Comm) checkTag(tag int) error {
	if tag < 0 || tag >= mpi.TagControlBase {
		return fmt.Errorf("redundancy: tag %d: %w", tag, mpi.ErrInvalidTag)
	}
	return nil
}

// Send fans data out to every replica of the destination virtual rank
// (Fig. 1a/1b of the paper): r_dst physical sends per virtual send in
// All-to-all mode, full-or-hash per the static assignment in
// Msg-PlusHash mode.
func (c *Comm) Send(dst, tag int, data []byte) error {
	if err := c.checkTag(tag); err != nil {
		return err
	}
	sphere, err := c.m.Sphere(dst)
	if err != nil {
		return err
	}
	mySphere, err := c.m.Sphere(c.me.Virtual)
	if err != nil {
		return err
	}
	if c.corrupt && len(data) > 0 {
		tampered := make([]byte, len(data))
		copy(tampered, data)
		tampered[0] ^= 0xFF
		data = tampered
	}
	// Each kind is encoded once and those bytes back every physical send
	// of the fan-out. On a pooling transport the encode lands in a shared
	// pooled buffer each deposit merely references (the deep copy per
	// replica is elided); otherwise the transport copies at its boundary
	// as usual. Our acquire references are dropped on return, leaving the
	// receivers as the buffers' owners.
	var full, hashed []byte
	var fullPB, hashPB *mpi.PooledBuf
	defer func() {
		fullPB.Release()
		hashPB.Release()
	}()
	for j, q := range sphere {
		kind := kindFull
		if c.mode == MsgPlusHash && len(mySphere) > 1 && j%len(mySphere) != c.me.Index {
			kind = kindHash
		}
		var payload []byte
		var pb *mpi.PooledBuf
		switch kind {
		case kindFull:
			if full == nil {
				if c.shared != nil {
					full, fullPB = c.shared.AcquireBuffer(wireHeaderLen + len(data))
				} else {
					full = make([]byte, wireHeaderLen+len(data))
				}
				encodeWireInto(full, kindFull, c.me.Index, c.me.Virtual, tag, data)
			}
			payload, pb = full, fullPB
		default:
			if hashed == nil {
				h := c.digest(data)
				if c.shared != nil {
					hashed, hashPB = c.shared.AcquireBuffer(wireHeaderLen + len(h))
				} else {
					hashed = make([]byte, wireHeaderLen+len(h))
				}
				encodeWireInto(hashed, kindHash, c.me.Index, c.me.Virtual, tag, h)
			}
			payload, pb = hashed, hashPB
		}
		var serr error
		if pb != nil {
			serr = c.shared.SendPooled(q, tag, payload, pb)
		} else {
			serr = c.phys.Send(q, tag, payload)
		}
		if serr != nil {
			return fmt.Errorf("redundancy: send to virtual %d replica %d: %w", dst, j, serr)
		}
		c.stats.physicalSends.Add(1)
	}
	c.sent[dst].Add(1)
	c.stats.virtualSends.Add(1)
	return nil
}

// Recv receives one virtual message matching (src, tag): it collects the
// replicated physical copies, cross-checks them, and delivers the agreed
// payload. src may be mpi.AnySource, which engages the paper's §3
// wildcard protocol so that every replica of this rank observes the same
// virtual sender order.
func (c *Comm) Recv(src, tag int) (mpi.Message, error) {
	if tag != mpi.AnyTag {
		if err := c.checkTag(tag); err != nil {
			return mpi.Message{}, err
		}
	}
	if src == mpi.AnySource {
		return c.recvWildcard(tag)
	}
	return c.recvSpecific(src, tag)
}

// recvSpecific collects one copy from each replica of virtual rank src.
func (c *Comm) recvSpecific(src, tag int) (mpi.Message, error) {
	sphere, err := c.m.Sphere(src)
	if err != nil {
		return mpi.Message{}, err
	}
	copies := c.copiesScratch[:0]
	for _, q := range sphere {
		msg, err := c.phys.Recv(q, tag)
		if err != nil {
			if errors.Is(err, mpi.ErrPeerDead) {
				continue // replica died before sending; its copy is lost
			}
			releaseCopies(copies, -1)
			return mpi.Message{}, err
		}
		wm, err := decodeWireFrom(msg)
		if err != nil {
			releaseCopies(copies, -1)
			return mpi.Message{}, err
		}
		copies = append(copies, wm)
	}
	c.copiesScratch = copies[:0]
	return c.deliverSpecific(src, copies)
}

// verify cross-checks the collected copies and returns the delivered
// payload plus the index (into copies) of the winning full copy, applying
// majority voting when copies disagree. The winner index lets the caller
// keep that copy's transport buffer while releasing the losers'.
func (c *Comm) verify(copies []wireMsg) ([]byte, int, error) {
	fulls := c.fullsScratch[:0]
	fullIdx := c.fullIdx[:0]
	hashes := c.hashesScratch[:0]
	for i, wm := range copies {
		switch wm.kind {
		case kindFull:
			fulls = append(fulls, wm.payload)
			fullIdx = append(fullIdx, i)
		case kindHash:
			hashes = append(hashes, wm.payload)
		default:
			return nil, -1, fmt.Errorf("%w: unexpected control message in data channel", errProtocol)
		}
	}
	c.fullsScratch, c.fullIdx, c.hashesScratch = fulls[:0], fullIdx[:0], hashes[:0]
	if len(fulls) == 0 {
		return nil, -1, ErrPayloadLost
	}
	if len(fulls)+len(hashes) > 1 {
		c.stats.votes.Add(1)
	}
	// Group identical payloads (full copies by bytes, then check hashes
	// against the winning payload's digest). The digest is computed only
	// when a hash copy arrived to compare it with: All-to-all and
	// unreplicated deliveries never hash.
	winner, win, agree, disagree := vote(fulls)
	if len(hashes) > 0 {
		h := c.digest(winner)
		for _, hv := range hashes {
			if string(hv) == string(h) {
				agree++
			} else {
				disagree++
			}
		}
	}
	if disagree > 0 {
		c.stats.mismatches.Add(1)
		if agree >= 2 && agree > disagree {
			// Triple-redundancy style majority: corrupt copy voted out.
			c.stats.corrections.Add(1)
		} else if agree < disagree {
			return nil, -1, ErrPayloadCorrupt
		}
		// agree == disagree (e.g. 1 vs 1 at dual redundancy): detection
		// without correction; deliver the lowest-replica copy, counted as
		// a mismatch, mirroring RedMPI's detect-only capability at 2x.
	}
	return winner, fullIdx[win], nil
}

// digest hashes payload into the Comm's scratch; the result is valid
// until the next digest call.
func (c *Comm) digest(payload []byte) []byte {
	c.digests++
	return payloadHashInto(c.hashScratch[:], payload)
}

// vote groups byte-identical payloads and returns the plurality payload,
// its index in fulls, and how many copies agree/disagree with it. Ties
// resolve to the copy from the lowest replica (first in slice order).
// The unanimous case — every delivery without injected corruption — is
// detected with plain comparisons so the hot path never builds the map.
func vote(fulls [][]byte) (winner []byte, win, agree, disagree int) {
	unanimous := true
	for _, f := range fulls[1:] {
		if !bytes.Equal(f, fulls[0]) {
			unanimous = false
			break
		}
	}
	if unanimous {
		return fulls[0], 0, len(fulls), 0
	}
	counts := make(map[string]int, len(fulls))
	for _, f := range fulls {
		counts[string(f)]++
	}
	bestN := 0
	for i, f := range fulls {
		if n := counts[string(f)]; n > bestN {
			bestN = n
			winner = f
			win = i
		}
	}
	return winner, win, bestN, len(fulls) - bestN
}

// controlTag maps a user tag to its wildcard control channel.
func controlTag(tag int) int {
	if tag == mpi.AnyTag {
		return mpi.TagControlBase + mpi.TagUserMax
	}
	return mpi.TagControlBase + tag
}

// leaderIndex returns the lowest alive replica index of this rank's
// sphere, or -1 if the whole sphere is dead.
func (c *Comm) leaderIndex(sphere []int) int {
	for i, q := range sphere {
		if c.live.Alive(q) {
			return i
		}
	}
	return -1
}

// recvWildcard implements the §3 MPI_ANY_SOURCE protocol: the sphere's
// leader posts the physical wildcard receive, determines the envelope,
// forwards it to the other replicas, and everyone then collects the
// remaining replicated copies from the chosen virtual sender. Envelope
// streams carry sequence numbers so followers can resynchronise with a
// new leader after a death.
func (c *Comm) recvWildcard(tag int) (mpi.Message, error) {
	mySphere, err := c.m.Sphere(c.me.Virtual)
	if err != nil {
		return mpi.Message{}, err
	}
	ctrl := controlTag(tag)
	seq := c.wildcardSeq[ctrl]

	var virtSrc, actualTag, gotIdx int
	var first *wireMsg
	for {
		lead := c.leaderIndex(mySphere)
		if c.vhandler != nil && len(c.unacked) > 0 && (lead == -1 || lead == c.me.Index) {
			// ULFM semantics: a wildcard cannot block while a virtual
			// failure stands unacknowledged — the awaited sender may be
			// it. Only the sphere's leader may surface a locally observed
			// failure here, and it must relay it first: followers are
			// pinned to the leader's envelope stream, which fixes the
			// wildcard position every replica observes the failure at. A
			// follower that learned of the death out-of-band (its copy
			// collection hit the dead sphere) keeps draining envelopes —
			// real ones the leader sent before observing the failure —
			// until the leader's failure envelope arrives.
			c.notifyFailures(mySphere, ctrl, seq)
			return mpi.Message{}, errFailurePendingWildcard
		}
		if lead == -1 || lead == c.me.Index {
			// I lead (or everyone below me is dead): post the real
			// wildcard receive.
			virtSrc, actualTag, gotIdx, first, err = c.leadWildcard(tag)
			if errors.Is(err, mpi.ErrFailurePending) {
				if !c.leaderObservedPending() {
					continue // pure replica loss: redundancy masks it
				}
				// A whole sphere died: tell the followers, who are parked
				// on the envelope stream and cannot observe it themselves.
				c.notifyFailures(mySphere, ctrl, seq)
				return mpi.Message{}, errFailurePendingWildcard
			}
			if err != nil {
				return mpi.Message{}, err
			}
			break
		}
		// Follow: wait for the leader's envelope, resynchronising by
		// sequence number if the leadership changed mid-stream.
		env, ferr := c.phys.Recv(mySphere[lead], ctrl)
		if ferr != nil {
			if errors.Is(ferr, mpi.ErrPeerDead) {
				c.stats.failovers.Add(1)
				continue // re-elect and retry
			}
			return mpi.Message{}, ferr
		}
		wm, derr := decodeWire(env.Data)
		if derr != nil {
			env.Release()
			return mpi.Message{}, derr
		}
		if wm.kind != kindEnvelope {
			env.Release()
			return mpi.Message{}, fmt.Errorf("%w: data message on control channel", errProtocol)
		}
		eseq, esrc, etag, derr := decodeEnvelope(wm.payload)
		env.Release()
		if derr != nil {
			return mpi.Message{}, derr
		}
		if esrc == failureEnvelopeSrc {
			// The leader observed a whole-sphere death. Relay onward (a
			// sibling may fail over to this replica's stream) and surface
			// it. The failure may already be known locally — the copy
			// collection races the envelope stream — but it still
			// surfaces here, at the leader's chosen position, as long as
			// it stands unacknowledged; only an already-acknowledged
			// duplicate (a relay from an older repair) is skipped.
			fresh := c.failVirtual(etag)
			if fresh || c.unacked[etag] {
				c.notifyFailures(mySphere, ctrl, seq)
				return mpi.Message{}, errFailurePendingWildcard
			}
			continue
		}
		if eseq < seq {
			continue // stale envelope from a new leader's replayed stream
		}
		if eseq > seq {
			return mpi.Message{}, fmt.Errorf("%w: envelope seq %d, want %d", errProtocol, eseq, seq)
		}
		virtSrc, actualTag, gotIdx = esrc, etag, -1
		break
	}

	// Forward the envelope to higher-indexed siblings so any of them can
	// fail over to this replica's stream later.
	env := encodeWire(kindEnvelope, c.me.Index, c.me.Virtual, ctrl,
		envelopePayload(seq, virtSrc, actualTag))
	for j := c.me.Index + 1; j < len(mySphere); j++ {
		if err := c.phys.Send(mySphere[j], ctrl, env); err != nil {
			return mpi.Message{}, err
		}
		c.stats.envelopes.Add(1)
	}
	c.wildcardSeq[ctrl] = seq + 1

	// Collect the remaining copies from the chosen sender's sphere.
	srcSphere, err := c.m.Sphere(virtSrc)
	if err != nil {
		return mpi.Message{}, err
	}
	copies := make([]wireMsg, 0, len(srcSphere))
	if first != nil {
		copies = append(copies, *first)
	}
	for j, q := range srcSphere {
		if j == gotIdx {
			continue
		}
		msg, rerr := c.phys.Recv(q, actualTag)
		if rerr != nil {
			if errors.Is(rerr, mpi.ErrPeerDead) {
				continue
			}
			releaseCopies(copies, -1)
			return mpi.Message{}, rerr
		}
		wm, derr := decodeWireFrom(msg)
		if derr != nil {
			releaseCopies(copies, -1)
			return mpi.Message{}, derr
		}
		copies = append(copies, wm)
	}
	if len(copies) == 0 {
		c.failVirtual(virtSrc)
		return mpi.Message{}, fmt.Errorf("wildcard recv from virtual %d: %w", virtSrc, ErrSphereDead)
	}
	data, win, err := c.verify(copies)
	if err != nil {
		releaseCopies(copies, -1)
		return mpi.Message{}, fmt.Errorf("wildcard recv from virtual %d: %w", virtSrc, err)
	}
	releaseCopies(copies, win)
	c.recv[virtSrc].Add(1)
	c.stats.deliveries.Add(1)
	return copies[win].msg.Reframe(virtSrc, actualTag, data), nil
}

// leadWildcard performs the leader's physical wildcard receive, skipping
// stale control messages left over from dead ex-leaders.
func (c *Comm) leadWildcard(tag int) (virtSrc, actualTag, gotIdx int, first *wireMsg, err error) {
	for {
		msg, rerr := c.phys.Recv(mpi.AnySource, tag)
		if rerr != nil {
			return 0, 0, 0, nil, rerr
		}
		wm, derr := decodeWireFrom(msg)
		if derr != nil {
			return 0, 0, 0, nil, derr
		}
		if wm.kind == kindEnvelope {
			// Stale envelope from a dead ex-leader (possible only when
			// tag == AnyTag); drop and keep waiting for application data.
			wm.msg.Release()
			continue
		}
		return wm.virtSrc, wm.tag, wm.senderIdx, &wm, nil
	}
}

// Probe blocks until a matching virtual message is available. Only
// specific sources are supported: the leader-based wildcard protocol
// consumes its first physical message, which Probe must not do.
func (c *Comm) Probe(src, tag int) (mpi.Status, error) {
	if src == mpi.AnySource {
		return mpi.Status{}, fmt.Errorf("redundancy: wildcard probe unsupported: %w", mpi.ErrInvalidRank)
	}
	sphere, err := c.m.Sphere(src)
	if err != nil {
		return mpi.Status{}, err
	}
	for _, q := range sphere {
		st, perr := c.phys.Probe(q, tag)
		if perr != nil {
			if errors.Is(perr, mpi.ErrPeerDead) {
				continue
			}
			return mpi.Status{}, perr
		}
		return mpi.Status{Source: src, Tag: st.Tag, Len: st.Len - wireHeaderLen}, nil
	}
	c.failVirtual(src)
	return mpi.Status{}, fmt.Errorf("probe virtual %d: %w", src, ErrSphereDead)
}

// SentCounts implements mpi.CountTracker at virtual-rank granularity.
func (c *Comm) SentCounts() []uint64 {
	out := make([]uint64, len(c.sent))
	for i := range c.sent {
		out[i] = c.sent[i].Load()
	}
	return out
}

// RecvCounts implements mpi.CountTracker at virtual-rank granularity.
func (c *Comm) RecvCounts() []uint64 {
	out := make([]uint64, len(c.recv))
	for i := range c.recv {
		out[i] = c.recv[i].Load()
	}
	return out
}
