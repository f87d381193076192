package sched

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"vsystem/internal/params"
	"vsystem/internal/sim"
	"vsystem/internal/vid"
)

// ld builds a selectable advertisement for the host at the given station
// address (the system logical-host id carries the station in its station
// field, matching the kernel's layout).
func ld(mac uint16, ready int, memKB uint32) Load {
	lh := vid.NewHostLH(mac, 1)
	return Load{
		SystemLH: lh, MemFree: memKB * 1024, Ready: ready,
		PM: vid.NewPID(lh, 3),
	}
}

// testClock is a manually-advanced cache clock.
type testClock struct{ now sim.Time }

func (c *testClock) advance(d time.Duration) { c.now = c.now.Add(d) }
func (c *testClock) fn() func() sim.Time     { return func() sim.Time { return c.now } }

func TestLoadWordsRoundTrip(t *testing.T) {
	l := Load{SystemLH: vid.NewHostLH(3, 1), MemFree: 640 * 1024, Ready: 2,
		Residents: 1, UtilPermille: 750, PM: vid.NewPID(vid.NewHostLH(3, 1), 3)}
	if got := LoadFromWords(l.Words()); got != l {
		t.Fatalf("round trip: got %+v, want %+v", got, l)
	}
	if l.MAC() != 3 {
		t.Fatalf("MAC() = %d, want 3", l.MAC())
	}
}

func TestBetterOrdering(t *testing.T) {
	cases := []struct {
		name string
		a, b Load
	}{
		{"fewer ready wins", ld(1, 0, 512), ld(2, 1, 1024)},
		{"fewer residents breaks ready tie",
			Load{SystemLH: vid.NewHostLH(1, 1), Ready: 1, Residents: 0, PM: 1},
			Load{SystemLH: vid.NewHostLH(2, 1), Ready: 1, Residents: 2, PM: 1}},
		{"more memory breaks residents tie", ld(1, 1, 1024), ld(2, 1, 512)},
		{"lower id is the final tiebreak", ld(1, 1, 512), ld(2, 1, 512)},
	}
	for _, c := range cases {
		if !c.a.Better(c.b) || c.b.Better(c.a) {
			t.Errorf("%s: ordering not strict for %v vs %v", c.name, c.a, c.b)
		}
	}
}

func TestCacheTTLExpiry(t *testing.T) {
	clk := &testClock{}
	c := NewCache(clk.fn())
	c.ObserveLoad(ld(1, 0, 512))
	if got := c.Candidates(nil, 0, nil); len(got) != 1 {
		t.Fatalf("fresh entry not offered: %v", got)
	}
	clk.advance(params.SchedCacheTTL + time.Millisecond)
	if got := c.Candidates(nil, 0, nil); len(got) != 0 {
		t.Fatalf("stale entry offered after TTL: %v", got)
	}
	if c.Len() != 0 {
		t.Fatalf("stale entry not pruned, Len = %d", c.Len())
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("hits/misses = %d/%d, want 1/1", st.Hits, st.Misses)
	}
}

func TestCacheNegativeExpires(t *testing.T) {
	clk := &testClock{}
	c := NewCache(clk.fn())
	c.ObserveLoad(ld(1, 0, 512))
	c.ObserveLoad(ld(2, 0, 512))
	c.Negative(ld(1, 0, 512).SystemLH)
	got := c.Candidates(nil, 0, nil)
	if len(got) != 1 || got[0].MAC() != 2 {
		t.Fatalf("negative host still offered: %v", got)
	}
	if c.Stats().NegSkips != 1 {
		t.Fatalf("negSkips = %d, want 1", c.Stats().NegSkips)
	}
	// The positive entries age out with the negative one; re-observe after
	// the negative TTL — the host must be selectable again.
	clk.advance(params.SchedNegTTL + time.Millisecond)
	c.ObserveLoad(ld(1, 0, 512))
	c.ObserveLoad(ld(2, 0, 512))
	if got := c.Candidates(nil, 0, nil); len(got) != 2 {
		t.Fatalf("negative entry did not expire: %v", got)
	}
}

func TestCachePlacementBumps(t *testing.T) {
	clk := &testClock{}
	c := NewCache(clk.fn())
	a, b := ld(1, 0, 512), ld(2, 0, 512)
	c.ObserveLoad(a)
	c.ObserveLoad(b)
	// Two placements on host 1 inflate its apparent ready depth, so host 2
	// sorts first even though both advertised idle.
	c.NotePlaced(a.SystemLH)
	c.NotePlaced(a.SystemLH)
	got := c.Candidates(nil, 0, nil)
	if len(got) != 2 || got[0].MAC() != 2 || got[1].Ready != 2 {
		t.Fatalf("bumps not folded into ordering: %v", got)
	}
	clk.advance(params.SchedPlacementHold + time.Millisecond)
	if got := c.Candidates(nil, 0, nil); got[0].MAC() != 1 || got[0].Ready != 0 {
		t.Fatalf("placement bumps did not expire: %v", got)
	}
}

func TestCacheFiltersMemAndExcluded(t *testing.T) {
	clk := &testClock{}
	c := NewCache(clk.fn())
	small, big, home := ld(1, 0, 128), ld(2, 0, 1024), ld(3, 0, 1024)
	for _, l := range []Load{small, big, home} {
		c.ObserveLoad(l)
	}
	got := c.Candidates(nil, 256*1024, []vid.LHID{home.SystemLH})
	if len(got) != 1 || got[0].MAC() != 2 {
		t.Fatalf("mem/exclude filter: %v", got)
	}
}

func TestCacheIgnoresUnselectableAds(t *testing.T) {
	c := NewCache((&testClock{}).fn())
	c.Observe([6]uint32{})                // no identity
	c.Observe([6]uint32{0x0401, 1 << 20}) // no program manager (file server)
	if c.Len() != 0 {
		t.Fatalf("unselectable advertisements cached, Len = %d", c.Len())
	}
}

func TestFirstResponsePolicy(t *testing.T) {
	p := FirstResponse{}
	if p.LoadAware() {
		t.Fatal("first-response must not be load-aware (it is the paper baseline)")
	}
	cands := []Load{ld(3, 5, 128), ld(1, 0, 1024)}
	if got := p.Pick(cands, nil); got.MAC() != 3 {
		t.Fatalf("first-response picked %v, want the first (fastest) responder", got)
	}
}

// TestLeastLoadedPolicy: candidates reach a policy sorted by Better, as
// Cache.Candidates and the cold path sort them, and least-loaded takes
// the first of them.
func TestLeastLoadedPolicy(t *testing.T) {
	p := LeastLoaded{}
	cands := []Load{ld(3, 5, 128), ld(2, 1, 512), ld(1, 0, 1024)}
	slices.SortFunc(cands, byBetter)
	if got := p.Pick(cands, nil); got.MAC() != 1 {
		t.Fatalf("least-loaded picked %v, want the idle host", got)
	}
}

func TestRandomKPolicyDeterministicAndBounded(t *testing.T) {
	p := RandomK{K: 2}
	cands := []Load{ld(1, 3, 512), ld(2, 1, 512), ld(3, 0, 512), ld(4, 2, 512)}
	in := map[uint16]bool{1: true, 2: true, 3: true, 4: true}
	for seed := int64(1); seed <= 5; seed++ {
		a := p.Pick(cands, rand.New(rand.NewSource(seed)))
		b := p.Pick(cands, rand.New(rand.NewSource(seed)))
		if a != b {
			t.Fatalf("seed %d: picks differ (%v vs %v)", seed, a, b)
		}
		if !in[a.MAC()] {
			t.Fatalf("seed %d: pick %v not among candidates", seed, a)
		}
	}
	// K larger than the candidate set degrades to best-of-all.
	if got := (RandomK{K: 10}).Pick(cands, rand.New(rand.NewSource(1))); got.MAC() != 3 {
		t.Fatalf("random-K over full set picked %v, want the best host", got)
	}
}

// TestRandomKSamplesAsPerm: Pick's sample is the first K of
// rng.Perm(len(cands)), and it leaves the stream where Perm leaves it, for
// every K and candidate count up to 12.
func TestRandomKSamplesAsPerm(t *testing.T) {
	var cands []Load
	for n := 1; n <= 12; n++ {
		cands = append(cands, ld(uint16(n), (n*7)%5, 512))
		for k := 0; k <= n+1; k++ {
			for seed := int64(1); seed <= 20; seed++ {
				got, want := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
				pick := RandomK{K: k}.Pick(cands, got)
				sample := want.Perm(n)[:min(max(k, 1), n)]
				best := sample[0]
				for _, i := range sample[1:] {
					if cands[i].Better(cands[best]) {
						best = i
					}
				}
				if pick != cands[best] || got.Int63() != want.Int63() {
					t.Fatalf("n=%d k=%d seed %d: picked %v, Perm's sample picks %v (or the streams part)", n, k, seed, pick, cands[best])
				}
			}
		}
	}
}

func TestPolicyByName(t *testing.T) {
	if _, ok := PolicyByName("").(FirstResponse); !ok {
		t.Error("empty name must default to first-response")
	}
	if _, ok := PolicyByName("first").(FirstResponse); !ok {
		t.Error(`"first" did not map to FirstResponse`)
	}
	if p, ok := PolicyByName("random").(RandomK); !ok || p.K != params.SelectRandomK {
		t.Errorf(`"random" = %#v, want RandomK{K: %d}`, PolicyByName("random"), params.SelectRandomK)
	}
	if _, ok := PolicyByName("least").(LeastLoaded); !ok {
		t.Error(`"least" did not map to LeastLoaded`)
	}
	if PolicyByName("bogus") != nil {
		t.Error("unknown policy name must return nil")
	}
}

// refCache is the cache as it was when ObserveLoad stored entries by value
// and so rewrote the map slot on every advertisement: the reference the
// in-place cache is compared against. The negative cache, the placement
// bumps, the clock and the TTLs are the embedded Cache's own.
type refCache struct {
	*Cache
	ents map[vid.LHID]cacheEnt
}

func (c *refCache) ObserveLoad(l Load) {
	if l.SystemLH == 0 || l.PM == 0 {
		return
	}
	c.ents[l.SystemLH] = cacheEnt{load: l, at: c.now()}
}

func (c *refCache) Candidates(minMem uint32, exclude []vid.LHID) []Load {
	now := c.now()
	var out []Load
	for lh, e := range c.ents {
		if now.Sub(e.at) > c.ttl {
			delete(c.ents, lh)
			continue
		}
		if slices.Contains(exclude, lh) || c.negative(lh) || e.load.MemFree < minMem {
			continue
		}
		l := e.load
		l.Ready += c.bumps(lh)
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Better(out[j]) })
	return out
}

// TestCacheInPlaceMatchesReference interleaves 10 000 advertisements from
// 40 hosts with selections, refusals and placements, the clock moving
// throughout, and requires every Candidates answer — content and order —
// to equal the reference's.
func TestCacheInPlaceMatchesReference(t *testing.T) {
	clk := &testClock{}
	c := NewCache(clk.fn())
	ref := &refCache{Cache: NewCache(clk.fn()), ents: make(map[vid.LHID]cacheEnt)}
	rng := rand.New(rand.NewSource(7))
	host := func() uint16 { return uint16(1 + rng.Intn(40)) }
	asked := 0
	for i := 0; i < 10_000; i++ {
		clk.advance(time.Duration(rng.Intn(int(params.SchedCacheTTL / 200))))
		l := ld(host(), rng.Intn(4), uint32(64+rng.Intn(4)*64))
		l.Residents = rng.Intn(3)
		c.ObserveLoad(l)
		ref.ObserveLoad(l)
		switch r := rng.Intn(100); {
		case r < 10:
			exclude := []vid.LHID{vid.NewHostLH(host(), 1)}
			minMem := uint32(rng.Intn(3)*96) * 1024
			got, want := c.Candidates(nil, minMem, exclude), ref.Candidates(minMem, exclude)
			if !slices.Equal(got, want) {
				t.Fatalf("step %d: Candidates differ:\n got %v\nwant %v", i, got, want)
			}
			asked++
		case r < 13:
			lh := vid.NewHostLH(host(), 1)
			c.Negative(lh)
			ref.Negative(lh)
		case r < 16:
			lh := vid.NewHostLH(host(), 1)
			c.NotePlaced(lh)
			ref.NotePlaced(lh)
		case r < 20:
			clk.advance(params.SchedCacheTTL / 2) // let some entries age out
		}
		if c.Len() != len(ref.ents) {
			// Len counts stale entries until a Candidates sweep removes
			// them, and both sweep at the same calls.
			t.Fatalf("step %d: %d entries, reference %d", i, c.Len(), len(ref.ents))
		}
	}
	if asked < 500 {
		t.Fatalf("only %d Candidates comparisons", asked)
	}
}
