// Package failure implements the paper's §5 failure-injection framework:
// a background process that draws per-physical-node failure times from an
// exponential distribution (Poisson arrivals, assumption 3), maintains
// the virtual→physical sphere mapping, kills physical ranks as their
// times arrive, and declares job failure exactly when every physical
// process of some virtual process has died (Fig. 7) — at which point the
// orchestrator tears the job down and restarts from the last checkpoint.
package failure

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/stats"
)

// KillTarget is the runtime surface the injector drives; *simmpi.World
// implements it.
type KillTarget interface {
	// Kill fail-stops a physical rank (idempotent). It runs under the
	// injector's lock, so the only call back into the injector it may
	// make is NoteDeath for the rank it is killing.
	Kill(rank int)
}

// Kill records one injected failure.
type Kill struct {
	// Rank is the physical rank killed.
	Rank int
	// After is the offset from injector start.
	After time.Duration
}

// Config configures an injector for one job attempt.
type Config struct {
	// Stream drives the exponential draws. Required unless Schedule is
	// set.
	Stream *stats.Stream
	// NodeMTBF is the per-node mean time to failure (scaled down for
	// laptop-scale experiments, as the paper scales its cluster MTBFs).
	// Required unless Schedule is set.
	NodeMTBF time.Duration
	// Horizon stops generating failures past this offset; zero means no
	// bound (failures keep arriving until Stop).
	Horizon time.Duration
	// Schedule, when non-nil, replaces random generation with an explicit
	// deterministic kill list (for tests).
	Schedule []Kill
	// Obs, when non-nil, counts deaths, injected or noted (NoteDeath):
	// failure_kills_total plus
	// per-node and per-sphere breakdowns
	// (failure_kills_node_<p>_total, failure_kills_sphere_<v>_total).
	Obs *obs.Registry
	// Flight, when non-nil, receives one fixed-size "kill" record per
	// injection (arg = kill ordinal) and a "sphere_exhausted" record when
	// a kill empties a replica sphere — the black-box view of why a
	// recovery started.
	Flight *obs.Recorder
}

// Injector drives one job attempt's failures.
type Injector struct {
	target  KillTarget
	spheres [][]int
	cfg     Config

	// sphereOf maps a physical rank to its sphere index; -1 if unmapped.
	sphereOf []int

	// Accounting is O(active failures), never O(world size): dead ranks
	// live in a compact bitset with a side list of the ranks actually
	// killed this epoch, and spheres that lost a replica go on a dirty
	// list — so Rearm after an in-place recovery undoes exactly the
	// kills that happened (two slice walks of length #kills), instead of
	// rebuilding per-sphere state across a 100k-rank world.
	mu          sync.Mutex
	remaining   []int    // live replicas per sphere
	deadWords   []uint64 // bitset of ranks currently counted dead
	deadList    []int    // the set bits of deadWords, in kill order
	dirtySphere []int    // spheres with at least one dead replica this epoch
	log         []Kill
	stopped     bool
	stopCh      chan struct{}
	doneCh      chan struct{}
	jobFailed   chan int // sphere index whose last replica died; capacity len(spheres)
	started     bool
	start       time.Time // when Start ran; offsets of noted deaths count from here

	// killing is the rank the injector's own Kill is fail-stopping, or
	// -1. It is written under mu and read by NoteDeath without it: a
	// target that reports its deaths reports this one from inside Kill,
	// with mu held by the same goroutine.
	killing atomic.Int64
}

func bitGet(words []uint64, i int) bool { return words[i>>6]&(1<<(uint(i)&63)) != 0 }

func bitSet(words []uint64, i int)   { words[i>>6] |= 1 << (uint(i) & 63) }
func bitClear(words []uint64, i int) { words[i>>6] &^= 1 << (uint(i) & 63) }

// New creates an injector over the given sphere map (spheres[v] lists the
// physical ranks of virtual rank v, as redundancy.RankMap.Sphere returns).
func New(target KillTarget, spheres [][]int, cfg Config) (*Injector, error) {
	if target == nil {
		return nil, fmt.Errorf("failure: nil target")
	}
	if cfg.Schedule == nil {
		if cfg.Stream == nil {
			return nil, fmt.Errorf("failure: need Stream or explicit Schedule")
		}
		if cfg.NodeMTBF <= 0 {
			return nil, fmt.Errorf("failure: NodeMTBF = %v", cfg.NodeMTBF)
		}
	}
	maxPhys := -1
	for _, sphere := range spheres {
		for _, p := range sphere {
			if p > maxPhys {
				maxPhys = p
			}
		}
	}
	inj := &Injector{
		target:    target,
		spheres:   spheres,
		cfg:       cfg,
		sphereOf:  make([]int, maxPhys+1),
		remaining: make([]int, len(spheres)),
		deadWords: make([]uint64, (maxPhys+64)/64),
		stopCh:    make(chan struct{}),
		doneCh:    make(chan struct{}),
		jobFailed: make(chan int, len(spheres)),
	}
	inj.killing.Store(-1)
	for i := range inj.sphereOf {
		inj.sphereOf[i] = -1
	}
	for v, sphere := range spheres {
		inj.remaining[v] = len(sphere)
		for _, p := range sphere {
			if inj.sphereOf[p] != -1 {
				return nil, fmt.Errorf("failure: physical rank %d in two spheres", p)
			}
			inj.sphereOf[p] = v
		}
	}
	return inj, nil
}

// JobFailed delivers the virtual rank of each sphere that was
// exhausted. Each sphere is delivered at most once between Rearms, and
// no event is dropped: events queue until the supervisor reads them.
func (inj *Injector) JobFailed() <-chan int { return inj.jobFailed }

// PollJobFailed takes one queued exhaustion without blocking. It
// synchronises with any kill in flight: once a rank's death is
// observable, the exhaustion it caused is returned here, even if the
// kill has not finished yet.
func (inj *Injector) PollJobFailed() (int, bool) {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	select {
	case v := <-inj.jobFailed:
		return v, true
	default:
		return -1, false
	}
}

// Log returns the kills performed so far, in injection order.
func (inj *Injector) Log() []Kill {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	out := make([]Kill, len(inj.log))
	copy(out, inj.log)
	return out
}

// Failures returns the number of deaths accounted so far: the
// injector's own kills plus those reported through NoteDeath.
func (inj *Injector) Failures() int {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return len(inj.log)
}

// Start applies every kill due at offset 0 on the caller's goroutine, so
// those ranks are dead (and their exhaustions queued) before anything
// the caller launches next can run, then launches the background killer
// for the rest of the schedule. Call Stop to halt it and wait for it to
// exit.
func (inj *Injector) Start() {
	inj.mu.Lock()
	if inj.started {
		inj.mu.Unlock()
		return
	}
	inj.started = true
	inj.start = time.Now()
	kills := inj.schedule()
	due := 0
	for ; due < len(kills) && kills[due].After <= 0; due++ {
		inj.killLocked(kills[due].Rank, 0)
	}
	inj.mu.Unlock()
	go inj.run(inj.start, kills[due:])
}

// Stop halts injection and waits for the background goroutine.
func (inj *Injector) Stop() {
	inj.mu.Lock()
	if !inj.started {
		inj.started = true // absorb Start after Stop
		close(inj.doneCh)
		inj.stopped = true
		inj.mu.Unlock()
		return
	}
	if inj.stopped {
		inj.mu.Unlock()
		<-inj.doneCh
		return
	}
	inj.stopped = true
	inj.mu.Unlock()
	close(inj.stopCh)
	<-inj.doneCh
}

// schedule builds the kill sequence: explicit, or one exponential draw
// per physical node (its first failure; nodes are not repaired within an
// attempt, so only the first matters).
func (inj *Injector) schedule() []Kill {
	if inj.cfg.Schedule != nil {
		out := make([]Kill, len(inj.cfg.Schedule))
		copy(out, inj.cfg.Schedule)
		sort.SliceStable(out, func(i, j int) bool { return out[i].After < out[j].After })
		return out
	}
	var kills []Kill
	for _, sphere := range inj.spheres {
		for _, p := range sphere {
			after := time.Duration(inj.cfg.Stream.Exp(float64(inj.cfg.NodeMTBF)))
			if inj.cfg.Horizon > 0 && after > inj.cfg.Horizon {
				continue
			}
			kills = append(kills, Kill{Rank: p, After: after})
		}
	}
	sort.Slice(kills, func(i, j int) bool { return kills[i].After < kills[j].After })
	return kills
}

// run applies the kills Start left (each due after offset 0) at their
// offsets from start.
func (inj *Injector) run(start time.Time, kills []Kill) {
	defer close(inj.doneCh)
	timer := time.NewTimer(0)
	defer timer.Stop()
	if !timer.Stop() {
		<-timer.C
	}
	for _, kill := range kills {
		wait := kill.After - time.Since(start)
		if wait > 0 {
			timer.Reset(wait)
			select {
			case <-timer.C:
			case <-inj.stopCh:
				return
			}
		} else {
			select {
			case <-inj.stopCh:
				return
			default:
			}
		}
		inj.kill(kill.Rank, time.Since(start))
	}
	// Schedule exhausted; wait for Stop so Log stays available.
	<-inj.stopCh
}

// kill performs one fail-stop and updates sphere accounting.
func (inj *Injector) kill(rank int, at time.Duration) {
	// The lock spans the death and the event send. A supervisor that
	// saw the drivers exit over the death polls under the same lock
	// (PollJobFailed), so it never misses the exhaustion; Rearm drains
	// under it, so an exhaustion counted before a Rearm is never
	// delivered after it; and at most one event per sphere is ever
	// queued, so the send never blocks.
	inj.mu.Lock()
	defer inj.mu.Unlock()
	inj.killLocked(rank, at)
}

// killLocked is kill with inj.mu held.
func (inj *Injector) killLocked(rank int, at time.Duration) {
	inj.killing.Store(int64(rank))
	inj.target.Kill(rank)
	inj.killing.Store(-1)
	inj.deathLocked(rank, at)
}

// NoteDeath accounts a death the injector did not cause — an external
// SIGKILL, a crash, a heartbeat timeout — exactly like one of its own
// kills: it is logged, counted, and can exhaust a sphere. A target that
// reports every death it sees also reports the injector's own kills,
// from inside Kill with the injector's lock held; NoteDeath skips those
// (the kill accounts them itself) without touching the lock. A rank
// already counted dead is not counted again.
func (inj *Injector) NoteDeath(rank int) {
	if inj.killing.Load() == int64(rank) {
		return
	}
	inj.mu.Lock()
	defer inj.mu.Unlock()
	var at time.Duration
	if !inj.start.IsZero() {
		at = time.Since(inj.start)
	}
	inj.deathLocked(rank, at)
}

// deathLocked accounts one death with inj.mu held.
func (inj *Injector) deathLocked(rank int, at time.Duration) {
	var exhausted = -1
	sphere := -1
	if rank < len(inj.sphereOf) {
		if bitGet(inj.deadWords, rank) {
			return // already dead: not a new failure
		}
		bitSet(inj.deadWords, rank)
		inj.deadList = append(inj.deadList, rank)
		if v := inj.sphereOf[rank]; v >= 0 {
			sphere = v
			if inj.remaining[v] == len(inj.spheres[v]) {
				inj.dirtySphere = append(inj.dirtySphere, v)
			}
			inj.remaining[v]--
			if inj.remaining[v] == 0 {
				exhausted = v
			}
		}
	}
	inj.log = append(inj.log, Kill{Rank: rank, After: at})
	ordinal := int64(len(inj.log))
	if reg := inj.cfg.Obs; reg != nil {
		reg.Counter("failure_kills_total").Inc()
		reg.Counter(fmt.Sprintf("failure_kills_node_%d_total", rank)).Inc()
		if sphere >= 0 {
			reg.Counter(fmt.Sprintf("failure_kills_sphere_%d_total", sphere)).Inc()
		}
		if exhausted >= 0 {
			reg.Counter("failure_sphere_exhausted_total").Inc()
		}
	}
	// Arg carries the kill ordinal (1-based), never wall time, so
	// deterministic-mode dumps stay byte-stable.
	inj.cfg.Flight.Emit("kill", rank, sphere, 0, ordinal)
	if exhausted >= 0 {
		inj.cfg.Flight.Emit("sphere_exhausted", rank, exhausted, 0, ordinal)
		inj.jobFailed <- exhausted
	}
}

// InjectNow kills a specific physical rank immediately, outside the
// schedule (test hook and manual chaos control).
func (inj *Injector) InjectNow(rank int) {
	inj.kill(rank, 0)
}

// Rearm resets the sphere accounting after an in-place recovery has
// revived every dead rank: all spheres return to full strength and every
// undelivered job-failure event is discarded as stale (each described a
// sphere that is alive again). The kill log is preserved — Failures()
// keeps counting across recoveries. Cost is O(kills this epoch): only
// the dirty spheres and the actually-dead bits are reset, never the full
// world.
func (inj *Injector) Rearm() {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	for _, v := range inj.dirtySphere {
		inj.remaining[v] = len(inj.spheres[v])
	}
	inj.dirtySphere = inj.dirtySphere[:0]
	for _, r := range inj.deadList {
		bitClear(inj.deadWords, r)
	}
	inj.deadList = inj.deadList[:0]
	for {
		select {
		case <-inj.jobFailed:
		default:
			return
		}
	}
}

// PlainSpheres builds the degenerate sphere map for an unreplicated
// n-rank job: sphere v = {v}. With it, any single failure exhausts a
// sphere, which is exactly the 1x behaviour of the paper.
func PlainSpheres(n int) [][]int {
	out := make([][]int, n)
	for v := range out {
		out[v] = []int{v}
	}
	return out
}
