// Package vid defines the V-System identifier types: structured process
// identifiers, logical-host identifiers, process-group identifiers, and the
// fixed-format interprocess message.
//
// As in the paper (§2.1), a process identifier is a (logical-host-id,
// local-index) pair. A process-group-id is identical in format to a
// process-id; group identifiers are distinguished by the high bit of the
// logical-host field. Well-known local indices name the host-specific
// servers (kernel server, program manager) of whatever physical host a
// logical host currently resides on, which is what makes those servers
// addressable in a location-independent way.
package vid

import "fmt"

// LHID identifies a logical host: a group of address spaces and processes
// that migrates as a unit. LHIDs with the high bit set form the group-id
// space and never name real logical hosts.
type LHID uint16

// GroupBit marks the group-id half of the LHID space.
const GroupBit LHID = 0x8000

// IsGroup reports whether the id lies in the group-id space.
func (l LHID) IsGroup() bool { return l&GroupBit != 0 }

// Real (non-group) LHIDs are allocated decentrally: the 15 usable bits
// split into a 10-bit station field (the allocating host's Ethernet
// address, so allocation needs no coordination) and a 5-bit per-host
// slot. The station field bounds cluster size at LHStationMax hosts; the
// slot field bounds LHs live on one host at LHSlotCount (slots recycle
// once a logical host is destroyed).
const (
	LHSlotBits   = 5
	LHSlotCount  = 1 << LHSlotBits
	LHStationMax = 1<<(15-LHSlotBits) - 1
)

// NewHostLH builds the LHID for a station's slot.
func NewHostLH(station, slot uint16) LHID {
	if station == 0 || station > LHStationMax {
		panic(fmt.Sprintf("vid: station %d outside the LHID station field", station))
	}
	return LHID(station<<LHSlotBits | slot&(LHSlotCount-1))
}

// Station returns the Ethernet address of the host that allocated the id
// (zero for group ids, which no station owns).
func (l LHID) Station() uint16 {
	if l.IsGroup() {
		return 0
	}
	return uint16(l) >> LHSlotBits
}

func (l LHID) String() string {
	if l.IsGroup() {
		return fmt.Sprintf("grp:%04x", uint16(l))
	}
	return fmt.Sprintf("lh:%04x", uint16(l))
}

// PID is a globally unique process identifier: LHID in the high 16 bits,
// local index in the low 16 bits.
type PID uint32

// Nil is the invalid PID.
const Nil PID = 0

// NewPID builds a PID from its parts.
func NewPID(lh LHID, index uint16) PID { return PID(uint32(lh)<<16 | uint32(index)) }

// LH returns the logical-host part.
func (p PID) LH() LHID { return LHID(p >> 16) }

// Index returns the local-index part.
func (p PID) Index() uint16 { return uint16(p) }

// IsGroup reports whether p is a process-group identifier.
func (p PID) IsGroup() bool { return p.LH().IsGroup() }

// IsWellKnown reports whether p names a host-specific server through a
// well-known local index (a "local group" in the paper's terms).
func (p PID) IsWellKnown() bool {
	return !p.IsGroup() && p.Index() >= IdxKernelServer && p.Index() < IdxFirstProcess
}

func (p PID) String() string {
	if p == Nil {
		return "pid:nil"
	}
	return fmt.Sprintf("%v.%d", p.LH(), p.Index())
}

// Well-known local indices. Index 0 is reserved/invalid. Indices below
// IdxFirstProcess address the host-specific servers of the physical host on
// which the logical host currently resides.
const (
	// IdxKernelServer addresses the kernel server of the hosting
	// workstation (low-level process and memory management, §2.1).
	IdxKernelServer uint16 = 1
	// IdxProgramManager addresses the program manager of the hosting
	// workstation.
	IdxProgramManager uint16 = 2
	// IdxFirstProcess is the first index assigned to ordinary processes.
	IdxFirstProcess uint16 = 16
)

// Well-known global process groups.
var (
	// GroupProgramManagers is the well-known group every program manager
	// belongs to; remote-execution host selection queries it (§2.1).
	GroupProgramManagers = NewPID(GroupBit|1, 1)
	// GroupLoadListeners is the group load beacons are sent to: a station
	// joins it at its first load-aware selection, so a station that never
	// selects never takes a beacon's receive interrupt.
	GroupLoadListeners = NewPID(GroupBit|8, 1)
	// GroupFileServers is the group of network file servers.
	GroupFileServers = NewPID(GroupBit|2, 1)
	// GroupNameServers is the group answering symbolic-name queries.
	GroupNameServers = NewPID(GroupBit|3, 1)
	// GroupHomePMs is the client-facing group of the consensus-backed
	// home program-manager replicas; supervised-session traffic that
	// would target a single home PM targets this group instead, and only
	// the current leader answers.
	GroupHomePMs = NewPID(GroupBit|4, 1)
	// GroupHomeRSM carries the home PM group's replication traffic
	// (votes, appends, snapshots).
	GroupHomeRSM = NewPID(GroupBit|5, 1)
	// GroupFSRSM carries the replicated file server's replication
	// traffic.
	GroupFSRSM = NewPID(GroupBit|6, 1)
	// GroupNSRSM carries the replicated name server's replication
	// traffic.
	GroupNSRSM = NewPID(GroupBit|7, 1)
)
