package sched

import (
	"math/rand"
	"slices"

	"vsystem/internal/params"
)

// Policy chooses an execution host among candidates. Implementations must
// be deterministic given the candidate set and the rng stream, whatever
// order the candidates come in.
type Policy interface {
	// Name identifies the policy in reports and command-line flags.
	Name() string
	// LoadAware reports whether the policy ranks candidates by advertised
	// load — enabling the cache/beacon/gather machinery — rather than
	// taking the first responder to a multicast.
	LoadAware() bool
	// Pick chooses among the candidates (never called with an empty
	// slice), which arrive in no particular order; it may reorder them.
	// Each policy is defined on the candidates sorted by Better, and finds
	// the element it would take there without sorting them.
	Pick(cands []Load, rng *rand.Rand) Load
}

// FirstResponse is the paper's baseline (§2.1): multicast the query and
// take the first willing responder. It is not load-aware — no beacons, no
// gathering window, no cache consultation — so a cluster running it
// generates byte-identical traffic to the original implementation.
type FirstResponse struct{}

// Name implements Policy.
func (FirstResponse) Name() string { return "first" }

// LoadAware implements Policy.
func (FirstResponse) LoadAware() bool { return false }

// Pick implements Policy; with first-response the mechanism already chose
// (candidates only materialize on the gather path, where the best
// candidate is the natural stand-in for "first responder").
func (FirstResponse) Pick(cands []Load, _ *rand.Rand) Load { return best(cands) }

// RandomK is power-of-K-choices: sample K distinct candidates uniformly
// at random and take the least loaded of the sample. It trades a little
// placement quality for resistance to herd behavior when many
// workstations select simultaneously from similar cached views.
type RandomK struct {
	K int
}

// Name implements Policy.
func (p RandomK) Name() string { return "random" }

// LoadAware implements Policy.
func (RandomK) LoadAware() bool { return true }

// Pick implements Policy. The sample is the first K of
// rng.Perm(len(cands)), drawn with Perm's own Intn calls, so the stream
// moves as Perm moves it; but only those K places are kept, since Perm never
// moves a value back from a later place to an earlier one. The places are
// ranks in the Better order, so the least loaded of the sample is the
// candidate ranked at the smallest of them.
func (p RandomK) Pick(cands []Load, rng *rand.Rand) Load {
	k := min(max(p.K, 1), len(cands))
	var small [8]int
	perm := small[:]
	if k > len(small) {
		perm = make([]int, k)
	}
	for i := range cands {
		j := rng.Intn(i + 1)
		if i < k {
			perm[i] = perm[j]
		}
		if j < k {
			perm[j] = i
		}
	}
	return nth(cands, slices.Min(perm[:k]))
}

// LeastLoaded always takes the best candidate under the canonical load
// ordering (fewest ready program-priority requests first).
type LeastLoaded struct{}

// Name implements Policy.
func (LeastLoaded) Name() string { return "least" }

// LoadAware implements Policy.
func (LeastLoaded) LoadAware() bool { return true }

// Pick implements Policy: the best under Better, a total order.
func (LeastLoaded) Pick(cands []Load, _ *rand.Rand) Load { return best(cands) }

// best returns the candidate Better than every other.
func best(cands []Load) Load {
	b := cands[0]
	for _, l := range cands[1:] {
		if l.Better(b) {
			b = l
		}
	}
	return b
}

// nth returns the candidate of rank r under Better (0 is the best): the
// one at place r once sorted. It partitions cands in place around a middle
// pivot and keeps the side holding r (quickselect, expected O(n)).
func nth(cands []Load, r int) Load {
	if r == 0 {
		return best(cands)
	}
	lo, hi := 0, len(cands)-1
	for lo < hi {
		mid := lo + (hi-lo)/2
		cands[mid], cands[hi] = cands[hi], cands[mid]
		p := lo
		for i := lo; i < hi; i++ {
			if cands[i].Better(cands[hi]) {
				cands[i], cands[p] = cands[p], cands[i]
				p++
			}
		}
		cands[p], cands[hi] = cands[hi], cands[p]
		switch {
		case r < p:
			hi = p - 1
		case r > p:
			lo = p + 1
		default:
			return cands[p]
		}
	}
	return cands[r]
}

// PolicyByName maps a command-line name to a policy (nil if unknown):
// "first", "random", "least".
func PolicyByName(name string) Policy {
	switch name {
	case "first", "":
		return FirstResponse{}
	case "random":
		return RandomK{K: params.SelectRandomK}
	case "least":
		return LeastLoaded{}
	}
	return nil
}
