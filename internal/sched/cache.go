package sched

import (
	"cmp"
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
// The cache is driven entirely from the simulation goroutine, so it needs
// no locking and its iteration results are made deterministic by sorting.
type Cache struct {
	now  func() sim.Time
	ents map[vid.LHID]*cacheEnt
	neg  map[vid.LHID]sim.Time   // expiry of the negative entry
	bump map[vid.LHID][]sim.Time // expiries of active placement bumps

	ttl, negTTL, hold time.Duration

	// CacheStats counters (monotonic).
	hits, misses, negSkips int64
}

type cacheEnt struct {
	load Load
	at   sim.Time
}

// NewCache builds an empty cache reading virtual time from now.
func NewCache(now func() sim.Time) *Cache {
	return &Cache{
		now:    now,
		ents:   make(map[vid.LHID]*cacheEnt),
		neg:    make(map[vid.LHID]sim.Time),
		bump:   make(map[vid.LHID][]sim.Time),
		ttl:    params.SchedCacheTTL,
		negTTL: params.SchedNegTTL,
		hold:   params.SchedPlacementHold,
	}
}

// Observe ingests a raw advertisement. Advertisements that carry no
// program manager (file servers) or no identity are ignored — they can
// never be selected.
func (c *Cache) Observe(w [6]uint32) { c.ObserveLoad(LoadFromWords(w)) }

// ObserveLoad ingests a decoded advertisement, replacing any older entry
// for the same host. Every beacon a listener hears lands here, so a known
// host's entry is overwritten where it is rather than reinserted.
func (c *Cache) ObserveLoad(l Load) {
	if l.SystemLH == 0 || l.PM == 0 {
		return
	}
	if e := c.ents[l.SystemLH]; e != nil {
		e.load, e.at = l, c.now()
		return
	}
	c.ents[l.SystemLH] = &cacheEnt{load: l, at: c.now()}
}

// Negative records that the host refused (or failed to answer) a probe;
// warm-cache selection skips it until the entry expires.
func (c *Cache) Negative(lh vid.LHID) {
	c.neg[lh] = c.now().Add(c.negTTL)
}

// NotePlaced records that work was just placed on the host, inflating its
// apparent ready depth by one for the placement-hold window. Expired bumps
// are dropped in place.
func (c *Cache) NotePlaced(lh vid.LHID) {
	now := c.now()
	live := slices.DeleteFunc(c.bump[lh], func(exp sim.Time) bool { return exp <= now })
	c.bump[lh] = append(live, now.Add(c.hold))
}

// bumps returns the number of active placement bumps for the host.
func (c *Cache) bumps(lh vid.LHID) int {
	now, n := c.now(), 0
	for _, exp := range c.bump[lh] {
		if exp > now {
			n++
		}
	}
	return n
}

// negative reports whether the host is negatively cached right now.
func (c *Cache) negative(lh vid.LHID) bool {
	exp, ok := c.neg[lh]
	if !ok {
		return false
	}
	if exp <= c.now() {
		delete(c.neg, lh)
		return false
	}
	return true
}

// Candidates returns the fresh, non-negative, memory-sufficient cached
// hosts (minus the excluded ones), each with its placement bumps folded
// into Ready, sorted by Better, in buf's array when it is large enough. The
// hit/miss counters track whether the cache could answer at all.
func (c *Cache) Candidates(buf []Load, minMem uint32, exclude []vid.LHID) []Load {
	now := c.now()
	out := slices.Grow(buf[:0], len(c.ents))
	for lh, e := range c.ents {
		if now.Sub(e.at) > c.ttl {
			delete(c.ents, lh)
			continue
		}
		if slices.Contains(exclude, lh) {
			continue
		}
		if c.negative(lh) {
			c.negSkips++
			continue
		}
		if e.load.MemFree < minMem {
			continue
		}
		l := e.load
		l.Ready += c.bumps(lh)
		out = append(out, l)
	}
	if len(out) == 0 {
		c.misses++
		return out
	}
	slices.SortFunc(out, byBetter)
	c.hits++
	return out
}

// Len returns the number of cached advertisements (including stale ones
// not yet aged out by a Candidates sweep).
func (c *Cache) Len() int { return len(c.ents) }

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

// Entries returns the cache contents sorted by system logical host.
func (c *Cache) Entries() []Entry {
	now := c.now()
	out := make([]Entry, 0, len(c.ents))
	for lh, e := range c.ents {
		out = append(out, Entry{
			Load:  e.load,
			Age:   now.Sub(e.at),
			Bumps: c.bumps(lh),
			Neg:   c.negative(lh),
		})
	}
	slices.SortFunc(out, func(a, b Entry) int { return cmp.Compare(a.Load.SystemLH, b.Load.SystemLH) })
	return out
}
