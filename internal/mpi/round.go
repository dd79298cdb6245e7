package mpi

// Round is the survivor agreement behind Comm.Agree and Comm.Shrink: a
// live-arrival barrier that a failure excuses instead of wedging. Each
// transport keeps one per world and feeds it arrivals and its own
// liveness: simmpi excuses a killed rank, the proc hub a dead or
// disconnected one. One rule holds everywhere:
//
//   - a round completes when every rank not excused has arrived and at
//     least one of them has;
//   - its flag is the AND of every arrival's flag, a rank's that arrived
//     and then died included;
//   - its survivors are its arrivals still not excused, ascending;
//   - Reset (an epoch interrupt) discards the open round's arrivals.
//
// Round has no lock: the transport makes every call under one lock of
// its own. Arrive, Excuse, Admit and Reset cost O(1) and allocate
// nothing (a per-rank round stamp; a reset is an increment), except
// that completing a round a Shrink arrived in lists its survivors in
// one walk over the ranks. An Agree round in a 100k-rank world thus
// pays nothing for the world's size.
type Round struct {
	stamp   []uint64 // stamp[r] == open: r arrived in the open round
	excused *Bitset
	open    uint64 // the open round's number, from 1
	need    int    // ranks not excused
	in      int    // arrivals in the open round not excused
	and     bool   // AND of the open round's flags
	shrink  bool   // an arrival in the open round asked for survivors

	// The last completed round: its number (0 before any), flag, and
	// survivors (nil unless a Shrink arrived in it).
	done      uint64
	flag      bool
	survivors []int
	live      int // its survivor count
}

// NewRound returns the round of a world of size ranks, none excused.
func NewRound(size int) *Round {
	return &Round{stamp: make([]uint64, size), excused: NewBitset(size), open: 1, need: size, and: true}
}

// Arrive adds rank's flag to the open round and returns the round's
// number, which the round may have completed at once (see Ended).
// wantSurvivors marks a Shrink: the round then lists its survivors. An
// excused rank, or one already arrived, is refused with 0.
func (r *Round) Arrive(rank int, flag, wantSurvivors bool) uint64 {
	if r.excused.Get(rank) || r.stamp[rank] == r.open {
		return 0
	}
	n := r.open
	r.stamp[rank] = n
	r.in++
	r.and = r.and && flag
	r.shrink = r.shrink || wantSurvivors
	r.complete()
	return n
}

// Excuse stops the rounds waiting on rank until it is admitted again.
// Its arrival in the open round, if any, keeps its flag but no longer
// makes it a survivor. Excuse reports whether it completed the round.
func (r *Round) Excuse(rank int) bool {
	if r.excused.Set(rank) {
		return false
	}
	r.need--
	if r.stamp[rank] == r.open {
		r.in--
	}
	return r.complete()
}

// Admit makes the rounds wait on an excused rank again (a revived rank,
// a reconnected worker). An arrival its previous incarnation made in
// the open round is not its own, so it must arrive anew.
func (r *Round) Admit(rank int) {
	if !r.excused.Clear(rank) {
		return
	}
	r.need++
	r.stamp[rank] = 0
}

// Reset discards the open round: its arrivals' Ended reports
// ErrInterrupted, and the next arrival opens a fresh round.
func (r *Round) Reset() {
	r.open++
	r.in, r.and, r.shrink = 0, true, false
}

// Ended reports whether round n is over: completed (nil error, its
// outcome in Flag and Survivors until the next completion) or discarded
// (ErrInterrupted).
func (r *Round) Ended(n uint64) (bool, error) {
	switch n {
	case r.done:
		return true, nil
	case r.open:
		return false, nil
	}
	return true, ErrInterrupted
}

// Flag returns the last completed round's AND.
func (r *Round) Flag() bool { return r.flag }

// Survivors returns the last completed round's survivors, ascending, or
// nil when no arrival in it asked for them. The slice is shared.
func (r *Round) Survivors() []int { return r.survivors }

// ForEachSurvivor calls fn for each survivor of the round just
// completed, ascending, whether or not a Shrink asked for the list. It
// is exact only under the lock of the call that completed the round.
func (r *Round) ForEachSurvivor(fn func(rank int)) {
	left := r.live
	for rank := 0; left > 0 && rank < len(r.stamp); rank++ {
		if r.stamp[rank] == r.done && !r.excused.Get(rank) {
			fn(rank)
			left--
		}
	}
}

// complete closes the open round if it is complete.
func (r *Round) complete() bool {
	if r.in == 0 || r.in != r.need {
		return false
	}
	r.done, r.flag, r.live, r.survivors = r.open, r.and, r.in, nil
	if r.shrink {
		r.survivors = make([]int, 0, r.live)
		r.ForEachSurvivor(func(rank int) { r.survivors = append(r.survivors, rank) })
	}
	r.Reset()
	return true
}
