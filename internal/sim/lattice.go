package sim

import "time"

// A Lattice stands for a chain of events its owner leaves unscheduled, one
// at each instant start+step, start+2·step, … strictly before end. The
// clock passes those instants without stopping while nothing else is due
// there. When it is about to enter one with events due, or RunUntil is
// about to stop on one, the engine takes the lattice out of its index and,
// before anything at that instant runs, calls Hit with the instant; Hit
// schedules, with AtKey, the event that stands in for the chain's event
// there. Lattices share one step while any is indexed.
type Lattice struct {
	// Hit is set by the owner before AddLattice. It must not add
	// lattices or remove others.
	Hit        func(at Time)
	start, end Time
	phase      Time // start modulo the step
	prev, next *Lattice
	indexed    bool
}

// latticeIndex finds the lattices with an instant at a given time in O(1):
// lattices with one phase share a bucket, chained through the lattices
// themselves, so adding and removing allocate nothing once the bucket
// array has grown to the number indexed.
type latticeIndex struct {
	step    Time
	buckets []*Lattice // length a power of two
	shift   uint       // 64 - log2(len(buckets))
	n       int
}

// AddLattice indexes l for the instants start+step, start+2·step, …
// strictly before end.
func (e *Engine) AddLattice(l *Lattice, start, end Time, step time.Duration) {
	x := &e.lattices
	if l.indexed {
		panic("sim: lattice added twice")
	}
	if x.n == 0 {
		x.step = Time(step)
	} else if x.step != Time(step) {
		panic("sim: lattices of different steps")
	}
	if x.n >= len(x.buckets) {
		x.grow()
	}
	l.start, l.end, l.phase = start, end, start%x.step
	x.link(l)
	x.n++
}

// RemoveLattice takes l out of the index; a lattice not in it is left
// alone.
func (e *Engine) RemoveLattice(l *Lattice) {
	if !l.indexed {
		return
	}
	x := &e.lattices
	x.unlink(l)
	x.n--
}

// enter is called before the clock moves to t. It hits every lattice with
// an instant at t and reports whether there was one.
func (e *Engine) enter(t Time) bool {
	x := &e.lattices
	if x.n == 0 {
		return false
	}
	phase := t % x.step
	hit := false
	for l := x.buckets[x.bucket(phase)]; l != nil; {
		next := l.next
		if l.has(t, phase) {
			x.unlink(l)
			x.n--
			l.Hit(t)
			hit = true
		}
		l = next
	}
	return hit
}

// has reports whether an indexed lattice has an instant at t.
func (x *latticeIndex) has(t Time) bool {
	if x.n == 0 {
		return false
	}
	phase := t % x.step
	for l := x.buckets[x.bucket(phase)]; l != nil; l = l.next {
		if l.has(t, phase) {
			return true
		}
	}
	return false
}

// has reports whether t, whose phase is given, is one of l's instants.
func (l *Lattice) has(t, phase Time) bool {
	return l.phase == phase && l.start < t && t < l.end
}

// bucket hashes a phase (Fibonacci hashing: phases are often multiples of
// a round number, which a plain modulus would crowd into few buckets).
func (x *latticeIndex) bucket(phase Time) int {
	return int(uint64(phase) * 0x9E3779B97F4A7C15 >> x.shift)
}

func (x *latticeIndex) link(l *Lattice) {
	b := &x.buckets[x.bucket(l.phase)]
	l.prev, l.next = nil, *b
	if *b != nil {
		(*b).prev = l
	}
	*b = l
	l.indexed = true
}

func (x *latticeIndex) unlink(l *Lattice) {
	if l.prev != nil {
		l.prev.next = l.next
	} else {
		x.buckets[x.bucket(l.phase)] = l.next
	}
	if l.next != nil {
		l.next.prev = l.prev
	}
	l.prev, l.next, l.indexed = nil, nil, false
}

// grow doubles the bucket array and rehashes every indexed lattice.
func (x *latticeIndex) grow() {
	old := x.buckets
	size := max(2*len(old), 16)
	x.buckets = make([]*Lattice, size)
	x.shift = 64
	for s := size; s > 1; s >>= 1 {
		x.shift--
	}
	for _, l := range old {
		for l != nil {
			next := l.next
			x.link(l)
			l = next
		}
	}
}
