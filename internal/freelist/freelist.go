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
	if l.sw != nil && bool(*l.sw) && slices.Contains(l.free, x) {
		panic("freelist: a record is used after it was handed back")
	}
}

// List is a free list of buffers or of records.
type List[T any] struct {
	free  []T
	keep  int
	high  int // most elements ever held at once
	fresh func() T
	reset func(x T, poison bool) (T, bool)
	sw    *Switch
}

// NewList returns an empty list that keeps at most keep elements, makes
// one with fresh — which binds what a record keeps for life, its callbacks
// included — when it has none, and poisons as sw says. reset (nil: none)
// readies an element handed back for its next user, overwriting a buffer
// first when told to poison, or refuses it.
func NewList[T any](keep int, fresh func() T, reset func(x T, poison bool) (T, bool), sw *Switch) List[T] {
	return List[T]{keep: keep, fresh: fresh, reset: reset, sw: sw}
}

// Get returns the element handed back last, or a new one.
func (l *List[T]) Get() T {
	n := len(l.free)
	if n == 0 {
		return l.fresh()
	}
	x := l.free[n-1]
	var zero T
	l.free[n-1], l.free = zero, l.free[:n-1]
	return x
}

// Put hands x back; one that reset refuses, or one more than the list
// keeps, is left to the collector, poisoned all the same.
func (l *List[T]) Put(x T) {
	ok := true
	if l.reset != nil {
		x, ok = l.reset(x, l.poisoning())
	}
	if ok && len(l.free) < l.keep {
		l.free = append(l.free, x)
		l.high = max(l.high, len(l.free))
	}
}

func (l *List[T]) poisoning() bool { return l.sw != nil && bool(*l.sw) }

// Len, High and Bound report how many elements the list holds, the most
// it has held at once, and the most it keeps.
func (l *List[T]) Len() int   { return len(l.free) }
func (l *List[T]) High() int  { return l.high }
func (l *List[T]) Bound() int { return l.keep }

// Bytes is a free list of byte buffers of one capacity.
type Bytes = List[[]byte]

// New returns a list of buffers of capacity size, keeping at most keep.
// Get returns an empty buffer; its bytes past the length are what its last
// user, or the poison, left. Put takes any slice of a buffer and keeps the
// array, unless what is left of it from the slice on is too short.
func New(size, keep int, sw *Switch) *Bytes {
	l := NewList(keep, func() []byte { return make([]byte, 0, size) },
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
