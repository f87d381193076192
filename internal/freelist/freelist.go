// Package freelist keeps byte buffers of one capacity for reuse by the
// simulator's bulk copy path: frame payloads, address-space page frames and
// message segments, one list of each per ethernet.Bus, so per cluster.
//
// A list belongs to one cluster and is used from its engine's goroutine
// only — never a sync.Pool, never package-level — so clusters on separate
// cores share nothing. It starts empty and keeps at most a fixed number of
// buffers: nothing is allocated until a buffer is first wanted, and a burst
// leaves a bounded amount behind.
//
// The one rule for users: Put only a buffer nothing else refers to any
// more. Never calling Put is always safe — the buffer falls to the
// collector, as every buffer did before the lists existed.
package freelist

// Bytes is a free list of byte buffers. The zero value is not usable; make
// one with New.
type Bytes struct {
	size   int // capacity of every buffer handed out
	keep   int // most buffers kept
	free   [][]byte
	poison bool
}

// New returns an empty list of buffers of capacity size that keeps at most
// keep of them.
func New(size, keep int) *Bytes { return &Bytes{size: size, keep: keep} }

// Get returns an empty buffer of at least the list's capacity: the one
// returned last if there is one, else a new one. Its bytes past the length are
// whatever the previous user left.
func (l *Bytes) Get() []byte {
	if n := len(l.free); n > 0 {
		b := l.free[n-1]
		l.free[n-1] = nil
		l.free = l.free[:n-1]
		return b
	}
	return make([]byte, 0, l.size)
}

// Put gives b back; the caller must hold the only reference to its array.
// A buffer too small to be handed out again, or one more than the list
// keeps, is left to the collector.
func (l *Bytes) Put(b []byte) {
	b = b[:cap(b)]
	if l.poison {
		for i := range b {
			b[i] = Poison
		}
	}
	if len(b) >= l.size && len(l.free) < l.keep {
		l.free = append(l.free, b[:0])
	}
}

// Poison is the byte a poisoning list overwrites returned buffers with.
const Poison = 0xDB

// PoisonFreed makes Put overwrite every returned buffer, whether or not it
// is kept, so that a reader still holding it sees garbage at once instead
// of the old contents until the next reuse. For tests.
func (l *Bytes) PoisonFreed() { l.poison = true }

// Len reports how many buffers the list holds.
func (l *Bytes) Len() int { return len(l.free) }
