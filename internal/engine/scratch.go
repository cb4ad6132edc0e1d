package engine

import (
	"sync"

	"fasthgp/internal/partition"
)

// Scratch is a per-worker arena of reusable working buffers — BFS
// queues, side arrays, gain arrays, candidate lists — so that parallel
// starts do not allocate (and garbage-collect) the same transient
// slices once per start. A worker leases one Scratch for its lifetime
// and passes it to every start it runs; Release between starts returns
// every handed-out buffer to the arena's free lists.
//
// Buffers are always returned zeroed, so reuse can never leak state
// from one start into another — a determinism requirement, not just
// hygiene. Callers must not retain a buffer past the end of their
// start (in particular, never store one in a Result).
type Scratch struct {
	freeInts, usedInts     [][]int
	freeBools, usedBools   [][]bool
	freeInt64s, usedInt64s [][]int64
	freeSides, usedSides   [][]partition.Side
	freeInt8s, usedInt8s   [][]int8
}

// Int8s leases a zeroed []int8 of length n from the arena. Fixed-side
// assignments and per-vertex flow-corridor states are int8-valued, so
// they get their own free list.
func (s *Scratch) Int8s(n int) []int8 { return lease(&s.freeInt8s, &s.usedInt8s, n) }

// Ints leases a zeroed []int of length n from the arena.
func (s *Scratch) Ints(n int) []int { return lease(&s.freeInts, &s.usedInts, n) }

// Bools leases a zeroed []bool of length n from the arena.
func (s *Scratch) Bools(n int) []bool { return lease(&s.freeBools, &s.usedBools, n) }

// Int64s leases a zeroed []int64 of length n from the arena.
func (s *Scratch) Int64s(n int) []int64 { return lease(&s.freeInt64s, &s.usedInt64s, n) }

// Sides leases a zeroed []partition.Side of length n from the arena.
// Note the zero Side is Left, not Unassigned — callers that need the
// "nothing placed yet" state must fill with partition.Unassigned
// themselves. Side arrays are the working currency of every
// partitioner's per-start state, so they get their own free list.
func (s *Scratch) Sides(n int) []partition.Side { return lease(&s.freeSides, &s.usedSides, n) }

// lease hands out a zeroed buffer of length n, recording it in used:
// the smallest buffer in free that fits, else a new one. Taking the
// smallest fit keeps a start's one large buffer (the boundary graph's
// adjacency, leased at an upper bound) from being spent on a small
// request and then allocated again for the next large one.
func lease[T any](free, used *[][]T, n int) []T {
	best := -1
	for k, b := range *free {
		if cap(b) >= n && (best < 0 || cap(b) < cap((*free)[best])) {
			best = k
		}
	}
	var buf []T
	if best < 0 {
		buf = make([]T, n)
	} else {
		f := *free
		buf = f[best][:n]
		clear(buf)
		f[best] = f[len(f)-1]
		*free = f[:len(f)-1]
	}
	*used = append(*used, buf)
	return buf
}

// Release reclaims every leased buffer back into the free lists. The
// engine calls it after each start; algorithms running several
// independent phases within one start may also call it themselves.
func (s *Scratch) Release() {
	s.freeInts = append(s.freeInts, s.usedInts...)
	s.usedInts = s.usedInts[:0]
	s.freeBools = append(s.freeBools, s.usedBools...)
	s.usedBools = s.usedBools[:0]
	s.freeInt64s = append(s.freeInt64s, s.usedInt64s...)
	s.usedInt64s = s.usedInt64s[:0]
	s.freeSides = append(s.freeSides, s.usedSides...)
	s.usedSides = s.usedSides[:0]
	s.freeInt8s = append(s.freeInt8s, s.usedInt8s...)
	s.usedInt8s = s.usedInt8s[:0]
}

var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// GetScratch leases a Scratch from the global pool.
func GetScratch() *Scratch { return scratchPool.Get().(*Scratch) }

// PutScratch releases s's buffers and returns it to the global pool.
func PutScratch(s *Scratch) {
	s.Release()
	scratchPool.Put(s)
}
