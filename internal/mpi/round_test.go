package mpi_test

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/mpi"
)

// roundOp is one call on a Round: an arrival (agree or shrink), an
// excuse, an admission or a reset.
type roundOp struct {
	kind   byte // 'a' agree, 's' shrink, 'x' excuse, 'm' admit, 'r' reset
	rank   int
	flag   bool
	refuse bool // an arrival that must be refused
}

func agreeOp(rank int, flag bool) roundOp { return roundOp{kind: 'a', rank: rank, flag: flag} }
func shrinkOp(rank int) roundOp           { return roundOp{kind: 's', rank: rank, flag: true} }
func excuseOp(rank int) roundOp           { return roundOp{kind: 'x', rank: rank} }
func admitOp(rank int) roundOp            { return roundOp{kind: 'm', rank: rank} }
func resetOp() roundOp                    { return roundOp{kind: 'r'} }
func refusedOp(rank int) roundOp          { return roundOp{kind: 'a', rank: rank, refuse: true} }

// TestRoundRule drives the round's one completion rule: the ops run in
// order and the round of the last accepted arrival is checked.
func TestRoundRule(t *testing.T) {
	cases := []struct {
		name      string
		size      int
		ops       []roundOp
		wantErr   error // nil: completed; ErrInterrupted: discarded
		open      bool  // the round is still open
		wantFlag  bool
		survivors []int
	}{
		{name: "every rank arrives", size: 3,
			ops:      []roundOp{agreeOp(0, true), agreeOp(1, false), agreeOp(2, true)},
			wantFlag: false},
		{name: "waits for a live rank", size: 3,
			ops:  []roundOp{agreeOp(0, true), agreeOp(1, true)},
			open: true},
		{name: "excuse completes", size: 3,
			ops:      []roundOp{shrinkOp(1), shrinkOp(0), excuseOp(2)},
			wantFlag: true, survivors: []int{0, 1}},
		{name: "excused before the round", size: 3,
			ops:      []roundOp{excuseOp(1), agreeOp(0, true), agreeOp(2, true)},
			wantFlag: true},
		{name: "arrive then die keeps the flag", size: 3,
			ops:      []roundOp{agreeOp(0, false), excuseOp(0), shrinkOp(1), shrinkOp(2)},
			wantFlag: false, survivors: []int{1, 2}},
		{name: "no live arrival never completes", size: 2,
			ops:  []roundOp{agreeOp(0, true), excuseOp(0), excuseOp(1)},
			open: true},
		{name: "excused rank is refused", size: 2,
			ops:      []roundOp{excuseOp(1), refusedOp(1), agreeOp(0, true)},
			wantFlag: true},
		{name: "double arrival is refused", size: 2,
			ops:  []roundOp{agreeOp(0, true), refusedOp(0)},
			open: true},
		{name: "revive waits for the new incarnation", size: 2,
			ops:  []roundOp{agreeOp(1, true), excuseOp(1), admitOp(1), agreeOp(0, true)},
			open: true},
		{name: "revived rank arrives anew", size: 2,
			ops:      []roundOp{agreeOp(1, true), excuseOp(1), admitOp(1), agreeOp(0, true), shrinkOp(1)},
			wantFlag: true, survivors: []int{0, 1}},
		{name: "revive then reset discards", size: 2,
			ops:     []roundOp{excuseOp(1), admitOp(1), agreeOp(0, false), resetOp()},
			wantErr: mpi.ErrInterrupted},
		{name: "after a reset the rank arrives anew", size: 2,
			ops:      []roundOp{agreeOp(0, false), resetOp(), agreeOp(0, true), agreeOp(1, true)},
			wantFlag: true},
		{name: "survivors ascend whatever the arrival order", size: 6,
			ops:      []roundOp{shrinkOp(5), agreeOp(3, true), shrinkOp(0), excuseOp(1), agreeOp(2, true), excuseOp(4)},
			wantFlag: true, survivors: []int{0, 2, 3, 5}},
		{name: "agree-only round lists no survivors", size: 2,
			ops:      []roundOp{agreeOp(1, true), agreeOp(0, true)},
			wantFlag: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := mpi.NewRound(tc.size)
			var last uint64
			for i, op := range tc.ops {
				switch op.kind {
				case 'a', 's':
					n := r.Arrive(op.rank, op.flag, op.kind == 's')
					if (n == 0) != op.refuse {
						t.Fatalf("op %d: Arrive(%d) = %d, refused want %v", i, op.rank, n, op.refuse)
					}
					if n != 0 {
						last = n
					}
				case 'x':
					r.Excuse(op.rank)
				case 'm':
					r.Admit(op.rank)
				case 'r':
					r.Reset()
				}
			}
			ended, err := r.Ended(last)
			if ended == tc.open {
				t.Fatalf("Ended = %v, want %v", ended, !tc.open)
			}
			if tc.open {
				return
			}
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("Ended err = %v, want %v", err, tc.wantErr)
			}
			if err != nil {
				return
			}
			if r.Flag() != tc.wantFlag {
				t.Errorf("Flag = %v, want %v", r.Flag(), tc.wantFlag)
			}
			if !reflect.DeepEqual(r.Survivors(), tc.survivors) {
				t.Errorf("Survivors = %v, want %v", r.Survivors(), tc.survivors)
			}
		})
	}
}

// TestRoundExcuseReportsCompletion pins Excuse's return and that
// ForEachSurvivor lists the live arrivals of an agree-only round too.
func TestRoundExcuseReportsCompletion(t *testing.T) {
	r := mpi.NewRound(4)
	r.Arrive(2, true, false)
	r.Arrive(0, true, false)
	if r.Excuse(1) {
		t.Fatal("Excuse(1) completed a round still waiting on rank 3")
	}
	if !r.Excuse(3) {
		t.Fatal("Excuse(3) did not complete the round")
	}
	if r.Excuse(3) {
		t.Fatal("a second Excuse(3) reported a completion")
	}
	var got []int
	r.ForEachSurvivor(func(rank int) { got = append(got, rank) })
	if !reflect.DeepEqual(got, []int{0, 2}) {
		t.Fatalf("ForEachSurvivor = %v, want [0 2]", got)
	}
}

// TestRoundConcurrentWaiters runs the round the way a transport does:
// ranks arrive and park under one lock while one rank dies midway, and
// every survivor of each round must read the same outcome.
func TestRoundConcurrentWaiters(t *testing.T) {
	const size, rounds, victim = 8, 200, 5
	var mu sync.Mutex
	cond := sync.NewCond(&mu)
	r := mpi.NewRound(size)
	dead := make([]bool, size)
	seen := make([][]string, size)
	var wg sync.WaitGroup
	for rank := 0; rank < size; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				mu.Lock()
				if dead[rank] {
					mu.Unlock()
					return
				}
				if rank == victim && i == rounds/2 {
					dead[rank] = true
					r.Excuse(rank)
					cond.Broadcast()
					mu.Unlock()
					return
				}
				n := r.Arrive(rank, rank != 0 || i%3 != 0, i%2 == 0)
				for {
					if ended, err := r.Ended(n); ended {
						if err != nil {
							t.Errorf("rank %d round %d: %v", rank, i, err)
						}
						break
					}
					cond.Wait()
				}
				seen[rank] = append(seen[rank], fmt.Sprint(r.Flag(), r.Survivors()))
				cond.Broadcast()
				mu.Unlock()
			}
		}(rank)
	}
	wg.Wait()
	for rank := range seen {
		if rank == victim {
			continue
		}
		if !reflect.DeepEqual(seen[rank], seen[0]) {
			t.Fatalf("rank %d saw %v, rank 0 saw %v", rank, seen[rank], seen[0])
		}
	}
	if len(seen[0]) != rounds {
		t.Fatalf("rank 0 completed %d rounds, want %d", len(seen[0]), rounds)
	}
}

// TestRoundAllocsAt100k pins the cost of an agreement round in a
// 100k-rank world: arrivals, the completion and a reset allocate
// nothing, so no round pays for the world's size.
func TestRoundAllocsAt100k(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not meaningful under the race detector")
	}
	const size = 100_000
	r := mpi.NewRound(size)
	round := func() {
		var n uint64
		for rank := 0; rank < size; rank++ {
			n = r.Arrive(rank, true, false)
		}
		if ended, err := r.Ended(n); !ended || err != nil {
			t.Fatalf("round %d did not complete: %v", n, err)
		}
		r.Arrive(0, true, false)
		r.Reset()
	}
	if avg := testing.AllocsPerRun(5, round); avg > 0 {
		t.Fatalf("arrive + complete + reset at %d ranks allocates %.1f, want 0", size, avg)
	}
}
