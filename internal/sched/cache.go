package sched

import (
	"slices"
	"time"

	"vsystem/internal/params"
	"vsystem/internal/sim"
	"vsystem/internal/vid"
)

// Cache is a workstation's view of cluster load: every advertisement the
// host has seen (piggybacked on replies, advertised by beacons, or carried
// in selection replies), aged by a TTL. It also keeps a negative cache of
// hosts that recently refused or failed a probe, and short-lived
// placement bumps that inflate a chosen host's apparent load until its
// own advertisements catch up (otherwise several quick placements would
// all pick the same momentarily least-loaded host).
//
// The view is one slice ordered by system logical host, so every walk of
// it is deterministic without a sort. The cache is driven entirely from
// the simulation goroutine, so it needs no locking.
type Cache struct {
	now func() sim.Time
	// ents holds one entry per host the cache knows anything of, in
	// SystemLH order: its advertisement while it has one, its negative
	// expiry and its placement bumps. An entry whose advertisement aged out
	// stays while its negative entry or a bump is live, as either outlives
	// the advertisement.
	ents []cacheEnt
	// first[s] is one more than the place in ents of station s's first
	// entry (0: none). A station's entries are adjacent, its address being
	// the high bits of their ids, and a station rarely has more than one:
	// a rebooted host's old identity until it ages out.
	first []int32
	ads   int // entries holding an advertisement

	ttl, negTTL, hold time.Duration

	// CacheStats counters (monotonic).
	hits, misses, negSkips int64
}

type cacheEnt struct {
	load  Load // load.SystemLH is the entry's key, set with or without an ad
	at    sim.Time
	ad    bool       // load holds an advertisement no sweep has aged out
	neg   sim.Time   // expiry of the negative entry (none when not after now)
	bumps []sim.Time // expiries of placement bumps, the expired ones included
}

// NewCache builds an empty cache reading virtual time from now.
func NewCache(now func() sim.Time) *Cache {
	return &Cache{
		now:    now,
		ttl:    params.SchedCacheTTL,
		negTTL: params.SchedNegTTL,
		hold:   params.SchedPlacementHold,
	}
}

// station is the index of an id in first: its station field, with the
// group bit kept so that no id shares a station with another it is not
// adjacent to.
func station(lh vid.LHID) int { return int(lh >> vid.LHSlotBits) }

// find returns the place of lh's entry in ents, or -1.
func (c *Cache) find(lh vid.LHID) int {
	s := station(lh)
	if s >= len(c.first) {
		return -1
	}
	for i := int(c.first[s]) - 1; i >= 0 && i < len(c.ents) && station(c.ents[i].load.SystemLH) == s; i++ {
		if c.ents[i].load.SystemLH == lh {
			return i
		}
	}
	return -1
}

// entry returns lh's entry, adding one without an advertisement when the
// cache has none.
func (c *Cache) entry(lh vid.LHID) *cacheEnt {
	if i := c.find(lh); i >= 0 {
		return &c.ents[i]
	}
	at, _ := slices.BinarySearchFunc(c.ents, lh, func(e cacheEnt, lh vid.LHID) int { return int(e.load.SystemLH) - int(lh) })
	c.ents = slices.Insert(c.ents, at, cacheEnt{load: Load{SystemLH: lh}})
	if s := station(lh); s >= len(c.first) {
		c.first = append(c.first, make([]int32, s+1-len(c.first))...)
	}
	c.index(at)
	return &c.ents[at]
}

// index brings first up to date for the entries from place at on, after
// an insertion there or a removal at or before it.
func (c *Cache) index(at int) {
	for i := at; i < len(c.ents); i++ {
		if s := station(c.ents[i].load.SystemLH); i == 0 || station(c.ents[i-1].load.SystemLH) != s {
			c.first[s] = int32(i + 1)
		}
	}
}

// Observe ingests a raw advertisement. Advertisements that carry no
// program manager (file servers) or no identity are ignored — they can
// never be selected.
func (c *Cache) Observe(w [6]uint32) { c.ObserveLoad(LoadFromWords(w)) }

// ObserveLoad ingests a decoded advertisement, replacing any older one for
// the same host. Every beacon a listener hears lands here, so a known
// host's entry is found through its station and overwritten where it is.
func (c *Cache) ObserveLoad(l Load) {
	if l.SystemLH == 0 || l.PM == 0 {
		return
	}
	e := c.entry(l.SystemLH)
	if !e.ad {
		e.ad = true
		c.ads++
	}
	e.load, e.at = l, c.now()
}

// Negative records that the host refused (or failed to answer) a probe;
// warm-cache selection skips it until the entry expires.
func (c *Cache) Negative(lh vid.LHID) {
	c.entry(lh).neg = c.now().Add(c.negTTL)
}

// NotePlaced records that work was just placed on the host, inflating its
// apparent ready depth by one for the placement-hold window. Expired bumps
// are dropped in place.
func (c *Cache) NotePlaced(lh vid.LHID) {
	now, e := c.now(), c.entry(lh)
	live := slices.DeleteFunc(e.bumps, func(exp sim.Time) bool { return exp <= now })
	e.bumps = append(live, now.Add(c.hold))
}

// live returns the number of the entry's placement bumps still in force.
func (e *cacheEnt) live(now sim.Time) int {
	n := 0
	for _, exp := range e.bumps {
		if exp > now {
			n++
		}
	}
	return n
}

// Candidates returns the fresh, non-negative, memory-sufficient cached
// hosts (minus the excluded ones), each with its placement bumps folded
// into Ready, in SystemLH order, in buf's array when it is large enough.
// It is also the sweep: an advertisement past its TTL goes, and so does an
// entry left with nothing live. The hit/miss counters track whether the
// cache could answer at all.
func (c *Cache) Candidates(buf []Load, minMem uint32, exclude []vid.LHID) []Load {
	now := c.now()
	out := slices.Grow(buf[:0], c.ads)
	kept := 0
	for i := range c.ents {
		e := &c.ents[i]
		if e.ad && now.Sub(e.at) > c.ttl {
			e.ad = false
			c.ads--
		}
		if !e.ad && e.neg <= now && e.live(now) == 0 {
			continue // dropped: nothing of it is in force
		}
		if kept != i {
			c.ents[kept] = *e
			e = &c.ents[kept]
		}
		kept++
		if !e.ad || slices.Contains(exclude, e.load.SystemLH) {
			continue
		}
		if e.neg > now {
			c.negSkips++
			continue
		}
		if e.load.MemFree < minMem {
			continue
		}
		l := e.load
		l.Ready += e.live(now)
		out = append(out, l)
	}
	if kept < len(c.ents) {
		clear(c.ents[kept:])
		c.ents = c.ents[:kept]
		clear(c.first)
		c.index(0)
	}
	if len(out) == 0 {
		c.misses++
		return out
	}
	c.hits++
	return out
}

// Len returns the number of cached advertisements (including stale ones
// not yet aged out by a Candidates sweep).
func (c *Cache) Len() int { return c.ads }

// CacheStats is a snapshot of the cache's counters.
type CacheStats struct {
	Hits, Misses, NegSkips int64
}

// Stats snapshots the counters.
func (c *Cache) Stats() CacheStats {
	return CacheStats{Hits: c.hits, Misses: c.misses, NegSkips: c.negSkips}
}

// Entry is one cached advertisement, aged, for inspection (the vcluster
// `hosts` command).
type Entry struct {
	Load  Load
	Age   time.Duration
	Bumps int
	Neg   bool // currently negatively cached
}

// Entries returns the cached advertisements in system logical host order.
func (c *Cache) Entries() []Entry {
	now := c.now()
	out := make([]Entry, 0, c.ads)
	for i := range c.ents {
		if e := &c.ents[i]; e.ad {
			out = append(out, Entry{Load: e.load, Age: now.Sub(e.at), Bumps: e.live(now), Neg: e.neg > now})
		}
	}
	return out
}
