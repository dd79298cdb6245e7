package mpi

import (
	"math/bits"
	"sync/atomic"
)

// Bitset is a fixed-capacity bitset with atomic per-bit updates: the
// compact liveness representation that keeps Kill/Revive/AliveCount
// and the dead-rank sweeps O(1) / O(set bits) instead of O(world size).
// A 100k-rank world's dead-set is ~12 KiB of words; iterating it skips
// zero words 64 ranks at a time, so a sweep after two failures touches
// two words, not 100k flags.
//
// Individual bit operations are linearizable (Load/CAS per word);
// whole-set iteration is not a snapshot — callers that need a frozen
// view must quiesce writers first, which is exactly what the epoch gate
// guarantees before Revive sweeps (the world is interrupted and the
// injector stopped or rearmed).
type Bitset struct {
	words []atomic.Uint64
	n     int
}

// NewBitset returns an all-clear bitset of capacity n.
func NewBitset(n int) *Bitset {
	return &Bitset{words: make([]atomic.Uint64, (n+63)/64), n: n}
}

// Get reports bit i.
func (b *Bitset) Get(i int) bool {
	return b.words[i>>6].Load()&(1<<(uint(i)&63)) != 0
}

// Set sets bit i and reports whether it was already set.
func (b *Bitset) Set(i int) bool {
	w := &b.words[i>>6]
	mask := uint64(1) << (uint(i) & 63)
	for {
		old := w.Load()
		if old&mask != 0 {
			return true
		}
		if w.CompareAndSwap(old, old|mask) {
			return false
		}
	}
}

// Clear clears bit i and reports whether it was set.
func (b *Bitset) Clear(i int) bool {
	w := &b.words[i>>6]
	mask := uint64(1) << (uint(i) & 63)
	for {
		old := w.Load()
		if old&mask == 0 {
			return false
		}
		if w.CompareAndSwap(old, old&^mask) {
			return true
		}
	}
}

// ForEachSet calls fn for every set bit in ascending order, skipping
// zero words wholesale.
func (b *Bitset) ForEachSet(fn func(i int)) {
	for wi := range b.words {
		w := b.words[wi].Load()
		for w != 0 {
			i := wi<<6 + bits.TrailingZeros64(w)
			if i >= b.n {
				return
			}
			fn(i)
			w &= w - 1
		}
	}
}

// ForEachClear calls fn for every clear bit below the capacity, skipping
// all-ones words wholesale.
func (b *Bitset) ForEachClear(fn func(i int)) {
	for wi := range b.words {
		w := ^b.words[wi].Load()
		for w != 0 {
			i := wi<<6 + bits.TrailingZeros64(w)
			if i >= b.n {
				return
			}
			fn(i)
			w &= w - 1
		}
	}
}
