// Package freelist is the one place in the simulator that keeps spare
// storage for reuse: buffers (frame payloads, page frames, message
// segments, candidate lists) and records (an IPC engine's reassemblies,
// repair buffers, ports, requests and transactions, a CPU's requests, a
// node's pager calls). DESIGN §8 has a row for each list.
//
// A list belongs to one cluster and is used from its engine's goroutine
// only, so clusters on separate cores share nothing. It starts empty and
// keeps at most a fixed number of elements: a burst leaves a bounded
// amount behind. Put only what nothing else refers to any more: never
// calling Put is always safe, putting back early is the bug. Every list of
// a cluster reads its one Switch (sim.Engine.PoisonFreed, for tests): a
// poisoning list overwrites a buffer handed back, and a record's entry
// points panic on one that lies on its list (Check).
package freelist

import (
	"bytes"
	"slices"
)

// Switch is a cluster's poisoning switch: every list made with it poisons
// while it is true. A nil *Switch is off for good.
type Switch bool

// Check panics if l is poisoning and holds x: something still uses a
// record it handed back, which the list may hand to another user. A record
// is dead from its Put to its next Get, so handing it out again allocates
// nothing. With poisoning off it is one predictable branch.
func Check[T comparable](l *List[T], x T) {
	if l.poisoning() && slices.Contains(l.free[:l.n], x) {
		panic("freelist: a record is used after it was handed back")
	}
}

// List is a free list of records, or the list under a ResetList. Get and
// Put are small enough to be inlined where they are called, so a pair of
// them costs about what a hand-kept slice does; the one call either makes
// is Get's fresh, on an empty list.
type List[T any] struct {
	// free[:n] are the elements held, the last handed back on top. The
	// places past n keep what Get handed out until a Put overwrites them:
	// an element its user drops without a Put stays reachable until then.
	free  []T
	n     int
	keep  int
	high  int // most elements ever held at once
	fresh func() T
	sw    *Switch
}

// NewList returns an empty list that keeps at most keep elements, makes
// one with fresh — which binds what a record keeps for life, its callbacks
// included — when it has none, and poisons as sw says.
func NewList[T any](keep int, fresh func() T, sw *Switch) List[T] {
	return List[T]{keep: keep, fresh: fresh, sw: sw}
}

// Get returns the element handed back last, or a new one.
func (l *List[T]) Get() T {
	if l.n == 0 {
		return l.fresh()
	}
	l.n--
	return l.free[l.n]
}

// Put hands x back; one more than the list keeps is left to the collector.
func (l *List[T]) Put(x T) {
	n := l.n
	if n >= l.keep {
		return
	}
	if n < len(l.free) {
		l.free[n] = x
	} else {
		l.free = append(l.free, x)
	}
	l.n = n + 1
	l.high = max(l.high, n+1)
}

func (l *List[T]) poisoning() bool { return l.sw != nil && bool(*l.sw) }

// Len, High and Bound report how many elements the list holds, the most
// it has held at once, and the most it keeps.
func (l *List[T]) Len() int   { return l.n }
func (l *List[T]) High() int  { return l.high }
func (l *List[T]) Bound() int { return l.keep }

// ResetList is a free list whose elements are readied for their next user
// as they are handed back: byte buffers, which a poisoning list
// overwrites, and records that must be emptied first. Its Put is out of
// line, being a call to reset and then List's Put.
type ResetList[T any] struct {
	List[T]
	reset func(x T, poison bool) (T, bool)
}

// NewResetList is NewList with reset, which readies an element handed
// back, overwriting a buffer first when told to poison, or refuses it.
func NewResetList[T any](keep int, fresh func() T, reset func(x T, poison bool) (T, bool), sw *Switch) ResetList[T] {
	return ResetList[T]{List: NewList(keep, fresh, sw), reset: reset}
}

// Put readies x and hands it back; one that reset refuses, or one more
// than the list keeps, is left to the collector, poisoned all the same.
func (l *ResetList[T]) Put(x T) {
	if x, ok := l.reset(x, l.poisoning()); ok {
		l.List.Put(x)
	}
}

// Bytes is a free list of byte buffers of one capacity.
type Bytes = ResetList[[]byte]

// New returns a list of buffers of capacity size, keeping at most keep.
// Get returns an empty buffer; its bytes past the length are what its last
// user, or the poison, left. Put takes any slice of a buffer and keeps the
// array, unless what is left of it from the slice on is too short.
func New(size, keep int, sw *Switch) *Bytes {
	l := NewResetList(keep, func() []byte { return make([]byte, 0, size) },
		func(b []byte, poison bool) ([]byte, bool) {
			for all := b[:cap(b)]; poison && len(all) > 0; {
				all = all[copy(all, poisonBlock):]
			}
			return b[:0], cap(b) >= size
		}, sw)
	return &l
}

// Poison is the byte a poisoning list overwrites returned buffers with.
const Poison = 0xDB

// poisonBlock is what a buffer is overwritten from: written once, at init.
var poisonBlock = bytes.Repeat([]byte{Poison}, 4096)
