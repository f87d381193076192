// Package sched is the decentralized scheduling layer: pluggable host
// selection over a cached cluster-load view.
//
// The paper's scheduler is deliberately minimal: multicast a query to the
// program-manager group and take the first response, "since that is
// generally the least loaded host" (§2.1). That heuristic is one *policy*
// over a distributed load-query mechanism. This package separates the
// two: kernels export a compact load advertisement (piggybacked on reply
// traffic and, for load-aware policies, a periodic beacon to the stations
// listening for it); each workstation maintains a TTL'd cache of the
// advertisements it has seen; and a Policy chooses among candidates — the
// paper's first-response baseline, power-of-K-choices random sampling, or
// least-loaded. With a warm cache, selection needs no multicast at all:
// the selector directly probes its preferred candidate and falls back to
// the gathering multicast only when the cache cannot answer. A station
// starts listening for beacons at its first load-aware selection, so that
// one has only what replies have piggybacked: a probe among those ads, or
// the multicast gather.
//
// The §4.2 observation that motivated the paper's simple policy — the
// first responder is usually the least loaded because the selection-probe
// evaluation itself is scheduled behind local work — stays reproducible:
// FirstResponse is the default policy and generates byte-identical
// traffic to the original implementation.
package sched

import (
	"errors"
	"fmt"

	"vsystem/internal/vid"
)

// Query flag bits, carried in the low half of W5 of a PmSelectHost
// request; the high half carries the reply-permille (0 = everyone
// answers). The zero value is the paper's original query: answer only if
// willing (idle and enough memory), stay silent otherwise.
const (
	// QueryUnicast marks a directed probe of one manager: the manager
	// answers CodeRefused instead of staying silent, so the prober can
	// negatively cache a refusal without waiting out a timeout.
	QueryUnicast uint32 = 1 << iota
	// QueryRelaxed asks the manager to answer with its load even when it
	// is not idle (the memory requirement still applies); load-aware
	// policies rank the answers instead of taking willingness as binary.
	QueryRelaxed
)

// ErrNoHost means selection exhausted its candidates and queries without
// finding a willing host.
var ErrNoHost = errors.New("sched: no host available")

// Load is one host's decoded load advertisement: the six words a kernel's
// LoadWords exports, a program manager's selection reply carries, and a
// KLoadAd beacon advertises.
type Load struct {
	SystemLH     vid.LHID // the host's system logical host (identity)
	MemFree      uint32   // bytes available for programs
	Ready        int      // program-priority scheduling requests (ready+running)
	Residents    int      // resident non-system logical hosts
	UtilPermille int      // CPU utilization, 0‰..1000‰
	PM           vid.PID  // the host's program manager (0: none, e.g. file server)
}

// LoadFromWords decodes an advertisement.
func LoadFromWords(w [6]uint32) Load {
	return Load{
		SystemLH:     vid.LHID(w[0]),
		MemFree:      w[1],
		Ready:        int(w[2]),
		Residents:    int(w[3]),
		UtilPermille: int(w[4]),
		PM:           vid.PID(w[5]),
	}
}

// Words encodes the advertisement.
func (l Load) Words() [6]uint32 {
	return [6]uint32{
		uint32(l.SystemLH), l.MemFree, uint32(l.Ready),
		uint32(l.Residents), uint32(l.UtilPermille), uint32(l.PM),
	}
}

// MAC returns the host's station address (the system logical-host id
// carries the allocating station in its station field).
func (l Load) MAC() uint16 { return l.SystemLH.Station() }

// Better is the canonical deterministic load ordering: fewer ready
// program-priority requests, then fewer resident programs, then more free
// memory, with the system logical-host id as the final tiebreak so equal
// loads order identically on every run.
func (l Load) Better(o Load) bool {
	if l.Ready != o.Ready {
		return l.Ready < o.Ready
	}
	if l.Residents != o.Residents {
		return l.Residents < o.Residents
	}
	if l.MemFree != o.MemFree {
		return l.MemFree > o.MemFree
	}
	return l.SystemLH < o.SystemLH
}

func (l Load) String() string {
	return fmt.Sprintf("%v ready=%d res=%d free=%dK util=%d‰",
		l.SystemLH, l.Ready, l.Residents, l.MemFree/1024, l.UtilPermille)
}
