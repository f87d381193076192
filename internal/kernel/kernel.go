// Package kernel implements the per-workstation V kernel: logical hosts,
// processes, address spaces, freeze/unfreeze, and the kernel server.
//
// As in the paper (§2.1), a functionally identical kernel runs on every
// host, providing address spaces, processes within them, and
// network-transparent IPC. Address spaces and processes are grouped into
// logical hosts — the unit of migration. The kernel server (well-known
// local index 1) performs low-level process and memory management; all
// other services (program manager, file server, display server) are
// processes outside the kernel.
package kernel

import (
	"fmt"
	"time"

	"vsystem/internal/cpu"
	"vsystem/internal/ethernet"
	"vsystem/internal/freelist"
	"vsystem/internal/ipc"
	"vsystem/internal/mem"
	"vsystem/internal/params"
	"vsystem/internal/sim"
	"vsystem/internal/trace"
	"vsystem/internal/vid"
)

// Host is one workstation (or server machine): kernel state plus the
// hardware it manages.
type Host struct {
	Eng  *sim.Engine
	Name string
	// HostIndex is the workstation's position in the cluster; it seeds
	// the host's logical-host-id allocation range and its MAC.
	HostIndex int
	CPU       *cpu.CPU
	IPC       *ipc.Engine
	NIC       *ethernet.NIC

	// lhs holds the resident logical hosts. Its keys are the ids widened to
	// 32 bits: every received frame looks its addressee up, and the runtime
	// hashes a 16-bit key through its generic path.
	lhs       map[uint32]*LogicalHost
	residents int // non-system logical hosts in lhs
	nextLH    uint16
	slotGen   [vid.LHSlotCount]uint32 // times each slot has been minted
	retiredLH map[vid.LHID]bool       // ids migrated away; never re-mint locally
	groups    map[vid.PID][]vid.PID
	wellKnown [vid.IdxFirstProcess]vid.PID // by well-known index; Nil where none is registered
	systemLH  *LogicalHost
	memFree   uint32
	frames    *freelist.Bytes // the cluster's page frames (ethernet.Bus.PageFrames)
	ks        PageRun         // the kernel server's: the run it decodes or serves

	// MigrationOverhead enables the per-operation frozen check (the
	// paper's measured 13 µs, §4.1). Disabling it models a kernel built
	// without migration support, for the overhead ablation.
	MigrationOverhead bool

	// OnLHEmpty is invoked (if set) when the last process of a
	// non-system logical host exits; the program manager uses it to tear
	// the program down and notify waiters.
	OnLHEmpty func(lh *LogicalHost)

	// OnLHIDChanged is invoked (if set) after a resident logical host
	// assumes a new identity (the migration swap, §3.1.1); the program
	// manager uses it to arm its orphaned-receptacle watchdog so that a
	// source host dying after the swap leaves the new copy authoritative.
	OnLHIDChanged func(lh *LogicalHost, old vid.LHID)

	// OnUnfreezeLH is invoked (if set) as KsUnfreezeLH is about to
	// unfreeze lh, with its residue word; the program manager installs the
	// migrated copy's demand pager.
	OnUnfreezeLH func(lh *LogicalHost, residue vid.LHID)

	// Crashed simulates a powered-off workstation: the NIC drops all
	// traffic and no new work is accepted.
	crashed bool

	// beaconOn records that the periodic load-advertisement beacon has
	// been started (EnableLoadAds is idempotent).
	beaconOn bool

	trace      *trace.Bus // nil until wired; nil bus is a no-op target
	freezes    int64
	frozenTime time.Duration
}

// systemReserve is kernel + resident-server memory not available to
// programs.
const systemReserve = 256 * 1024

// NewHost boots a workstation kernel attached to the bus. Host indices
// start at 0; the MAC is index+1 (0 is unused, 0xFFFF is broadcast).
func NewHost(eng *sim.Engine, bus *ethernet.Bus, index int, name string) *Host {
	h := &Host{
		Eng:               eng,
		Name:              name,
		HostIndex:         index,
		CPU:               cpu.New(eng),
		NIC:               bus.Attach(ethernet.MAC(index + 1)),
		lhs:               make(map[uint32]*LogicalHost),
		retiredLH:         make(map[vid.LHID]bool),
		groups:            make(map[vid.PID][]vid.PID),
		memFree:           params.WorkstationMemory - systemReserve,
		frames:            bus.PageFrames(),
		MigrationOverhead: true,
	}
	h.IPC = ipc.New(eng, h.NIC, h.CPU, (*hostResolver)(h))
	h.systemLH, _ = h.newLH("system:"+name, false, true)
	h.startKernelServer()
	return h
}

// Trace returns the host's trace bus (nil until AttachTrace — a nil bus
// is a valid no-op publish target).
func (h *Host) Trace() *trace.Bus { return h.trace }

// AttachTrace wires the host's kernel, IPC engine, and CPU scheduler to
// the cluster's trace bus. Call once, right after NewHost; a nil bus
// detaches everything.
func (h *Host) AttachTrace(b *trace.Bus) {
	h.trace = b
	h.IPC.SetTraceBus(b)
	if b == nil {
		h.CPU.SetDispatchHook(nil)
		return
	}
	h.CPU.SetDispatchHook(func(prio int, slice time.Duration) {
		b.Publish(trace.Event{
			At: h.Eng.Now(), Host: uint16(h.NIC.MAC()), Kind: trace.EvDispatch, Prio: prio,
		})
	})
}

// FreezeStats reports how many freezes the kernel has performed and the
// cumulative frozen time across completed freeze/unfreeze pairs.
func (h *Host) FreezeStats() (freezes int64, frozen time.Duration) {
	return h.freezes, h.frozenTime
}

// SystemLH returns the host's system logical host (kernel server, program
// manager, and other resident servers live in it).
func (h *Host) SystemLH() *LogicalHost { return h.systemLH }

// MemFree reports memory available for programs, in bytes.
func (h *Host) MemFree() uint32 { return h.memFree }

// Crashed reports whether the host is simulated as powered off.
func (h *Host) Crashed() bool { return h.crashed }

// ReadyDepth reports how many program-priority scheduling requests (local
// and guest programs, ready or running) are competing for the CPU — the
// primary load figure selection policies compare hosts by.
func (h *Host) ReadyDepth() int { return h.CPU.QueueLen(params.PrioLocal) }

// Residents reports how many non-system logical hosts (programs) are
// resident.
func (h *Host) Residents() int { return h.residents }

// LoadWords packs the host's load advertisement into the six message words
// the scheduling layer (internal/sched) decodes: system logical host, free
// memory, ready-queue depth, resident programs, CPU utilization in
// per-mille, and the program manager's PID (0 when the host runs no
// program manager, e.g. the file server).
func (h *Host) LoadWords() [6]uint32 {
	return [6]uint32{
		uint32(h.systemLH.id),
		h.memFree,
		uint32(h.ReadyDepth()),
		uint32(h.Residents()),
		uint32(h.CPU.Utilization() * 1000),
		uint32(h.wellKnown[vid.IdxProgramManager]),
	}
}

// EnableLoadAds makes the kernel export its load: every outgoing reply
// frame is stamped with the current LoadWords (piggybacked dissemination,
// no extra frames), and — when beacon > 0 — a KLoadAd is also sent to
// vid.GroupLoadListeners every beacon interval, staggered by host index so
// the beacons do not collide. Only listening stations (ListenForLoad) take
// it. A beacon comes from the host's program manager — the process a
// selector probes next — so every listener knows where the system logical
// host is. Idempotent; the beacon survives crash/restart (a crashed host
// skips its ticks and the IPC engine drops beacons while down).
func (h *Host) EnableLoadAds(beacon time.Duration) {
	h.IPC.SetLoadFunc(h.LoadWords)
	if beacon <= 0 || h.beaconOn {
		return
	}
	h.beaconOn = true
	var tick func()
	tick = func() {
		if !h.crashed {
			h.IPC.AdvertiseLoad(h.wellKnown[vid.IdxProgramManager])
		}
		h.Eng.After(beacon, tick)
	}
	h.Eng.After(beacon+time.Duration(h.HostIndex*10)*time.Millisecond, tick)
}

// Crash simulates the workstation failing: all logical hosts (including
// the system one) vanish, their processes die, and the station stops
// responding to the network. Used by the residual-dependency experiments
// and the fault injector. A crashed host can be brought back with Restart.
func (h *Host) Crash() {
	if h.crashed {
		return
	}
	h.crashed = true
	for _, lh := range h.lhs {
		for _, p := range lh.procs {
			if p.task != nil {
				p.task.Kill()
			}
			p.dead = true
		}
	}
	h.CPU.Touch()
	h.IPC.ClosePorts()
	h.lhs = make(map[uint32]*LogicalHost)
	h.residents = 0
	for g := range h.groups {
		h.NIC.LeaveMulticast(ethernet.Multicast(uint16(g.LH())))
	}
	h.groups = make(map[vid.PID][]vid.PID)
	h.wellKnown = [vid.IdxFirstProcess]vid.PID{}
	h.OnLHEmpty = nil
	h.OnLHIDChanged = nil
	h.OnUnfreezeLH = nil
	h.IPC.SetDown(true)
	h.trace.Publish(trace.Event{
		At: h.Eng.Now(), Host: uint16(h.NIC.MAC()), Kind: trace.EvHostCrash,
	})
}

// Restart reboots a crashed workstation: the kernel comes back with empty
// tables, a fresh system logical host (under a new LHID — identities that
// died with the crash stay dead), a fresh kernel server, and an empty
// binding cache, then announces its system binding so peers with stale
// caches rediscover it. Resident servers (program manager, display) must
// be restarted by the boot layer on top, as at initial boot.
func (h *Host) Restart() {
	if !h.crashed {
		return
	}
	h.crashed = false
	h.memFree = params.WorkstationMemory - systemReserve
	h.IPC.Reset()
	h.systemLH, _ = h.newLH("system:"+h.Name, false, true)
	h.startKernelServer()
	h.trace.Publish(trace.Event{
		At: h.Eng.Now(), Host: uint16(h.NIC.MAC()), Kind: trace.EvHostRestart,
	})
	h.IPC.BroadcastBinding(h.systemLH.id)
}

// hostResolver adapts Host to ipc.Resolver without exporting the methods
// on Host itself.
type hostResolver Host

func (r *hostResolver) LHResident(lh vid.LHID) bool {
	_, ok := r.lhs[uint32(lh)]
	return ok
}

func (r *hostResolver) Frozen(lh vid.LHID) bool {
	l, ok := r.lhs[uint32(lh)]
	return ok && l.frozen
}

func (r *hostResolver) WellKnown(lh vid.LHID, idx uint16) (vid.PID, bool) {
	if _, ok := r.lhs[uint32(lh)]; !ok || int(idx) >= len(r.wellKnown) {
		return vid.Nil, false
	}
	pid := r.wellKnown[idx]
	return pid, pid != vid.Nil
}

func (r *hostResolver) GroupMembers(g vid.PID) []vid.PID { return r.groups[g] }

// DeferWhenFrozen implements the §3.1.3 rule: requests that modify a
// frozen logical host are deferred; read-only kernel-server operations
// (ping, queries, register/page reads — what a debugger needs on a
// suspended process) go through.
func (r *hostResolver) DeferWhenFrozen(dst vid.PID, op uint16) bool {
	if dst.Index() != vid.IdxKernelServer {
		return true
	}
	switch op {
	case KsPing, KsQueryLH, KsQueryProcess, KsReadPages, KsFetchPage:
		return false
	}
	return true
}

// RegisterWellKnown binds a well-known local index (kernel server, program
// manager; below vid.IdxFirstProcess) to a concrete local port.
func (h *Host) RegisterWellKnown(idx uint16, pid vid.PID) { h.wellKnown[idx] = pid }

// JoinGroup adds a local port to a global process group. The first local
// member programs the group's multicast address into the NIC's receive
// filter, so group traffic only costs kernels that host a member.
func (h *Host) JoinGroup(g vid.PID, pid vid.PID) {
	if !g.IsGroup() {
		panic("kernel: JoinGroup with non-group id")
	}
	if len(h.groups[g]) == 0 {
		h.NIC.JoinMulticast(ethernet.Multicast(uint16(g.LH())))
	}
	h.groups[g] = append(h.groups[g], pid)
}

// ListenForLoad has the station join vid.GroupLoadListeners, so the
// other stations' load beacons reach its load sink. The kernel server
// stands as the member: a beacon is consumed by the kernel and delivered
// to no process. Idempotent; a crash leaves the group as it leaves every
// group, and the next call joins again.
func (h *Host) ListenForLoad() {
	if len(h.groups[vid.GroupLoadListeners]) == 0 {
		h.JoinGroup(vid.GroupLoadListeners, h.wellKnown[vid.IdxKernelServer])
	}
}

// ---------------------------------------------------------- logical hosts

// LogicalHost groups address spaces and processes into the unit of
// migration (§2.1).
type LogicalHost struct {
	id     vid.LHID
	host   *Host
	name   string
	guest  bool   // remotely executed: processes run at guest priority
	system bool   // hosts the kernel server and resident servers; never migrates
	gen    uint32 // how many logical hosts held this id's slot here before

	frozen   bool
	frozenAt sim.Time
	unfreeze sim.WaitQ
	running  cpu.Gate // !frozen, bound once: the gate of its processes' CPU charges
	exitCode uint32   // exit code of the last process to exit

	// lastWrite is the virtual time of the last externally driven state
	// write (page runs, installed spaces, kernel state) — the activity
	// signal a migration receptacle's inactivity reaper keys off.
	lastWrite sim.Time

	procs   map[uint16]*Process
	spaces  map[uint32]*mem.AddressSpace
	nextIdx uint16
	nextSp  uint32
	memUsed uint32
}

// newLH allocates a logical host with an id from this host's range (the
// station address in the LHID's station field). LHID allocation is
// decentralized, like V's. Slots recycle round-robin once their logical
// host is destroyed — a long run executes an unbounded number of guest
// programs per host — but ids migrated away stay retired (see RetireLHID):
// the identity lives on at the destination and must never be re-minted
// here. A recycled slot comes back under its next generation, which its
// processes' ports number their transactions from (ipc.NewPortGen): the
// 33rd program on a host has the first one's PIDs, and the servers the
// first one talked to still remember its transaction ids. The generations
// outlive a crash, as nextLH does, so a rebooted host's servers are heard
// too. It fails with CodeNoMemory when every slot is live or retired, and
// panics then for the system logical host, which a host cannot run without.
func (h *Host) newLH(name string, guest, system bool) (*LogicalHost, error) {
	id, gen, ok := h.allocLHID()
	if !ok {
		if system {
			panic("kernel: logical-host ids exhausted")
		}
		return nil, vid.CodeError(vid.CodeNoMemory)
	}
	lh := &LogicalHost{
		id:        id,
		host:      h,
		name:      name,
		guest:     guest,
		system:    system,
		gen:       gen,
		procs:     make(map[uint16]*Process),
		spaces:    make(map[uint32]*mem.AddressSpace),
		nextIdx:   vid.IdxFirstProcess,
		lastWrite: h.Eng.Now(),
	}
	lh.running = func() bool { return !lh.frozen }
	h.lhs[uint32(id)] = lh
	if !system {
		h.residents++
	}
	return lh, nil
}

// allocLHID picks a free, unretired id from this host's slot range, and
// returns the generation it is minted at.
func (h *Host) allocLHID() (vid.LHID, uint32, bool) {
	station := uint16(h.HostIndex + 1)
	for i := 0; i < vid.LHSlotCount; i++ {
		h.nextLH++
		slot := h.nextLH % vid.LHSlotCount
		cand := vid.NewHostLH(station, slot)
		if _, live := h.lhs[uint32(cand)]; !live && !h.retiredLH[cand] {
			gen := h.slotGen[slot]
			h.slotGen[slot]++
			return cand, gen, true
		}
	}
	return 0, 0, false
}

// DetachResidue relabels a (frozen) logical host to a fresh id from this
// host's allocation range. Post-copy migration calls it right after the
// identity swap commits: the original id now lives at the destination,
// while the old copy stays behind under a private id as a page-serving
// receptacle — local references to the original id miss and rebind to
// the destination, and the destination's adoption probe correctly finds
// the identity "not resident" here. Fails when every slot is in use, in
// which case the caller must drain the residue synchronously instead.
func (h *Host) DetachResidue(lh *LogicalHost) (vid.LHID, error) {
	id, _, ok := h.allocLHID()
	if !ok {
		return 0, vid.CodeError(vid.CodeNoMemory)
	}
	if err := h.ChangeLHID(lh, id); err != nil {
		return 0, err
	}
	return id, nil
}

// CreateLH allocates a logical host for a program. guest marks remotely
// executed programs (scheduled at guest priority). It fails with
// CodeNoMemory when the host's id range is spent.
func (h *Host) CreateLH(name string, guest bool) (*LogicalHost, error) {
	return h.newLH(name, guest, false)
}

// LookupLH finds a resident logical host.
func (h *Host) LookupLH(id vid.LHID) (*LogicalHost, bool) {
	lh, ok := h.lhs[uint32(id)]
	return lh, ok
}

// LHs returns the resident logical-host ids (unordered).
func (h *Host) LHs() []*LogicalHost {
	out := make([]*LogicalHost, 0, len(h.lhs))
	for _, lh := range h.lhs {
		out = append(out, lh)
	}
	return out
}

// ID returns the logical host's identifier.
func (lh *LogicalHost) ID() vid.LHID { return lh.id }

// Name returns the program name the logical host runs.
func (lh *LogicalHost) Name() string { return lh.name }

// Guest reports whether the logical host was created for a remotely
// executed program.
func (lh *LogicalHost) Guest() bool { return lh.guest }

// System reports whether this is the host's system logical host.
func (lh *LogicalHost) System() bool { return lh.system }

// Frozen reports the freeze state.
func (lh *LogicalHost) Frozen() bool { return lh.frozen }

// ExitCode returns the exit code of the last process that exited in this
// logical host (the program's exit status once the host is empty).
func (lh *LogicalHost) ExitCode() uint32 { return lh.exitCode }

// LastWriteAt returns the virtual time of the last externally driven state
// write into this logical host (creation counts as the first). The program
// manager uses it to reap only *inactive* migration receptacles, so a slow
// but live copy is never destroyed mid-transfer.
func (lh *LogicalHost) LastWriteAt() sim.Time { return lh.lastWrite }

// Host returns the physical host the logical host currently resides on.
func (lh *LogicalHost) Host() *Host { return lh.host }

// MemUsed returns the memory reserved by the logical host's spaces.
func (lh *LogicalHost) MemUsed() uint32 { return lh.memUsed }

// CreateSpace allocates an address space of the given size within the
// logical host, reserving physical memory.
func (lh *LogicalHost) CreateSpace(size uint32) (*mem.AddressSpace, error) {
	if size%mem.PageSize != 0 {
		size += mem.PageSize - size%mem.PageSize
	}
	if !lh.system && size > lh.host.memFree {
		return nil, vid.CodeError(vid.CodeNoMemory)
	}
	lh.nextSp++
	as := mem.NewAddressSpaceOn(lh.host.frames, lh.nextSp, size)
	lh.spaces[as.ID] = as
	if !lh.system {
		lh.host.memFree -= size
		lh.memUsed += size
	}
	return as, nil
}

// Space returns an address space by id.
func (lh *LogicalHost) Space(id uint32) (*mem.AddressSpace, bool) {
	as, ok := lh.spaces[id]
	return as, ok
}

// Spaces returns the logical host's address spaces in id order.
func (lh *LogicalHost) Spaces() []*mem.AddressSpace {
	out := make([]*mem.AddressSpace, 0, len(lh.spaces))
	for id := uint32(1); id <= lh.nextSp; id++ {
		if as, ok := lh.spaces[id]; ok {
			out = append(out, as)
		}
	}
	return out
}

// Procs returns the logical host's processes in index order.
func (lh *LogicalHost) Procs() []*Process {
	out := make([]*Process, 0, len(lh.procs))
	for idx := vid.IdxFirstProcess; idx < lh.nextIdx; idx++ {
		if p, ok := lh.procs[idx]; ok {
			out = append(out, p)
		}
	}
	return out
}

// Freeze suspends execution of the logical host's processes and defers
// external interactions (§3.1): the CPU scheduler stops granting them
// time, incoming requests draw reply-pending packets, and incoming replies
// are discarded — all enforced by the freeze checks in the CPU gates and
// the IPC engine.
func (h *Host) Freeze(lh *LogicalHost) {
	if lh.frozen {
		return
	}
	lh.frozen = true
	h.CPU.Touch()
	lh.frozenAt = h.Eng.Now()
	h.freezes++
	h.trace.Publish(trace.Event{
		At: h.Eng.Now(), Host: uint16(h.NIC.MAC()), Kind: trace.EvFreeze, LH: lh.id,
	})
}

// Unfreeze resumes the logical host: blocked processes wake, restored
// processes not yet started are spawned, quiesced ports re-arm their
// retransmission timers, and (optionally) the new binding is broadcast.
func (h *Host) Unfreeze(lh *LogicalHost, broadcastBinding bool) {
	if !lh.frozen {
		return
	}
	lh.frozen = false
	h.frozenTime += h.Eng.Now().Sub(lh.frozenAt)
	h.trace.Publish(trace.Event{
		At: h.Eng.Now(), Host: uint16(h.NIC.MAC()), Kind: trace.EvUnfreeze, LH: lh.id,
	})
	lh.unfreeze.WakeAll()
	for _, p := range lh.Procs() {
		if p.port != nil {
			p.port.Activate()
		}
		if !p.started && !p.dead {
			h.startProcess(p)
		}
	}
	h.CPU.Kick()
	if broadcastBinding {
		h.IPC.BroadcastBinding(lh.id)
	}
}

// ChangeLHID relabels a logical host — the step that makes the new copy
// assume the migrated logical host's identity (§3.1.1, §3.1.3). The
// processes' PIDs follow automatically because a PID is derived from the
// logical-host id.
func (h *Host) ChangeLHID(lh *LogicalHost, final vid.LHID) error {
	if _, taken := h.lhs[uint32(final)]; taken {
		return vid.CodeError(vid.CodeRefused)
	}
	old := lh.id
	delete(h.lhs, uint32(lh.id))
	lh.id = final
	h.lhs[uint32(final)] = lh
	if h.OnLHIDChanged != nil {
		h.OnLHIDChanged(lh, old)
	}
	return nil
}

// RetireLHID marks an id from this host's allocation range as permanently
// unavailable. The migration source calls it after destroying its copy of
// a migrated logical host: the identity is now resident elsewhere, so the
// slot must never be recycled into a fresh, colliding logical host.
func (h *Host) RetireLHID(id vid.LHID) { h.retiredLH[id] = true }

// DestroyLH deletes a logical host: processes die, ports close (queued
// messages are discarded; senders re-send to the new copy, §3.1.3), and
// memory is released — the modelled reservation and the page frames
// themselves, which the cluster's next new page will be made of. (A crash
// destroys nothing in an orderly way: what its logical hosts held is the
// collector's.)
func (h *Host) DestroyLH(lh *LogicalHost) {
	if lh.system {
		panic("kernel: destroying system logical host")
	}
	for _, p := range lh.procs {
		p.dead = true
		if p.task != nil {
			p.task.Kill()
		}
		if p.port != nil {
			p.port.Close()
		}
	}
	h.CPU.Touch()
	lh.procs = make(map[uint16]*Process)
	for _, as := range lh.spaces {
		as.Release()
	}
	h.memFree += lh.memUsed
	lh.memUsed = 0
	if h.lhs[uint32(lh.id)] == lh { // not if a crash took it first
		delete(h.lhs, uint32(lh.id))
		h.residents--
	}
}

// ----------------------------------------------------------- processes

// Process is a V process: a thread of control within a logical host,
// bound to one address space. Its migratable state is the register blob
// plus its port's IPC state; its code is reconstructed from the body
// registry on the new host.
type Process struct {
	Index    uint16
	lh       *LogicalHost
	prio     int
	bodyKind string
	regs     Regs
	spaceID  uint32
	port     *ipc.Port
	task     *sim.Task
	runFn    func(*ProcCtx) // system processes only; overrides bodyKind
	started  bool
	dead     bool
}

// PID returns the process identifier, derived from the current logical
// host id.
func (p *Process) PID() vid.PID { return vid.NewPID(p.lh.id, p.Index) }

// LH returns the owning logical host.
func (p *Process) LH() *LogicalHost { return p.lh }

// Port returns the process's IPC port.
func (p *Process) Port() *ipc.Port { return p.port }

// Task returns the simulation task running the process (nil before it
// starts).
func (p *Process) Task() *sim.Task { return p.task }

// Regs returns the process's register blob (mutable).
func (p *Process) Regs() *Regs { return &p.regs }

// Dead reports whether the process has exited or been destroyed.
func (p *Process) Dead() bool { return p.dead }

// NewProcess creates a process in the logical host, not yet started: as in
// the paper's program-creation protocol, the newly created process awaits
// its creator's go-ahead (§2.1). The process's priority is derived from
// the logical host (guest or local) unless it is a system process.
func (lh *LogicalHost) NewProcess(spaceID uint32, bodyKind string, regs Regs) *Process {
	idx := lh.nextIdx
	lh.nextIdx++
	prio := params.PrioLocal
	if lh.guest {
		prio = params.PrioGuest
	}
	if lh.system {
		prio = params.PrioSystem
	}
	p := &Process{
		Index:    idx,
		lh:       lh,
		prio:     prio,
		bodyKind: bodyKind,
		regs:     regs,
		spaceID:  spaceID,
	}
	p.port = lh.host.IPC.NewPortGen(p.PID(), lh.gen)
	lh.procs[idx] = p
	return p
}

// restoreProcess recreates a migrated process from kernel state; its port
// is restored separately.
func (lh *LogicalHost) restoreProcess(st ProcState) *Process {
	p := &Process{
		Index:    st.Index,
		lh:       lh,
		prio:     st.Prio,
		bodyKind: st.BodyKind,
		regs:     st.Regs,
		spaceID:  st.SpaceID,
	}
	lh.procs[st.Index] = p
	if st.Index >= lh.nextIdx {
		lh.nextIdx = st.Index + 1
	}
	return p
}

// Start spawns the process's body. Frozen logical hosts delay the actual
// first instruction until unfreeze (the body blocks at its first gate).
func (h *Host) Start(p *Process) { h.startProcess(p) }

// exitPanic unwinds a body when the process exits explicitly.
type exitPanic struct{ code uint32 }

func (h *Host) startProcess(p *Process) {
	if p.started || p.dead {
		return
	}
	p.started = true
	name := fmt.Sprintf("%s/%v", p.lh.name, p.PID())
	ctx := &ProcCtx{host: h, proc: p}
	p.task = h.Eng.Spawn(name, func(t *sim.Task) {
		ctx.task = t
		defer func() {
			if r := recover(); r != nil {
				if sim.IsKill(r) {
					panic(r)
				}
				if ep, ok := r.(exitPanic); ok {
					p.regs.W[RegExitCode] = ep.code
				} else {
					panic(r)
				}
			}
			h.procExit(p)
		}()
		ctx.gate()
		if p.runFn != nil {
			p.runFn(ctx)
			return
		}
		NewBody(p.bodyKind).Run(ctx)
	})
}

// procExit handles a process finishing (normally or via Exit).
func (h *Host) procExit(p *Process) {
	if p.dead {
		return
	}
	p.dead = true
	p.lh.exitCode = p.regs.W[RegExitCode]
	if p.port != nil {
		p.port.Close()
	}
	delete(p.lh.procs, p.Index)
	if len(p.lh.procs) == 0 && !p.lh.system {
		if h.OnLHEmpty != nil {
			h.OnLHEmpty(p.lh)
		}
	}
}

// SpawnServer creates and immediately starts a system process in the
// host's system logical host running fn. Used for the kernel server,
// program manager, file server and display server — processes that never
// migrate.
func (h *Host) SpawnServer(name string, spaceSize uint32, fn func(*ProcCtx)) *Process {
	as, err := h.systemLH.CreateSpace(spaceSize)
	if err != nil {
		panic(err)
	}
	p := h.systemLH.NewProcess(as.ID, "server:"+name, Regs{})
	p.runFn = fn
	h.startProcess(p)
	return p
}
