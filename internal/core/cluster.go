// Package core implements the paper's contribution on top of the
// substrates: transparent remote execution (`prog args @ host`, `prog args
// @ *`), decentralized host selection through the program-manager group,
// and preemptable migration of logical hosts with pre-copying — plus the
// comparator policies used by the evaluation (stop-and-copy, the §3.2
// flush-to-file-server variant, post-copy and a hot-set hybrid).
package core

import (
	"fmt"
	"math/rand"
	"time"

	"vsystem/internal/display"
	"vsystem/internal/ethernet"
	"vsystem/internal/fault"
	"vsystem/internal/fileserver"
	"vsystem/internal/image"
	"vsystem/internal/kernel"
	"vsystem/internal/nameserver"
	"vsystem/internal/params"
	"vsystem/internal/progmgr"
	"vsystem/internal/rsm"
	"vsystem/internal/sched"
	"vsystem/internal/sim"
	"vsystem/internal/trace"
	"vsystem/internal/vid"
)

// Options configures a simulated cluster.
type Options struct {
	// Workstations is the number of diskless workstations (the paper's
	// cluster had ~25). Default 4.
	Workstations int
	// Seed drives all randomness (loss, jitter). Default 1.
	Seed int64
	// LossRate is the per-frame Ethernet loss probability. Default 0.
	LossRate float64
	// Policy selects the migration policy for all program managers.
	// Default PolicyPrecopy.
	Policy Policy
	// Select is the host-selection policy used by every workstation's
	// scheduling selector (`@ *` execution and migration destinations).
	// Default sched.FirstResponse — the paper's baseline. Load-aware
	// policies additionally turn on the periodic load beacon.
	Select sched.Policy
	// ReplicateFS runs that many server machines, each carrying a
	// consensus-backed file-server and name-server replica, so the storage
	// and naming services survive any minority of server deaths. 0 or 1
	// keeps the single unreplicated server machine (the default).
	ReplicateFS int
	// ReplicateHome backs each workstation's home services (session
	// supervision) with a consensus group of that many program managers.
	// 0 or 1 keeps the single home PM (the default).
	ReplicateHome int
	// CopyWindow is how many bulk-copy transactions every migration in this
	// cluster keeps in flight (1 = the paper's stop-and-wait copy loop).
	// Default params.CopyWindow.
	CopyWindow int
	// PrecopyMaxRounds, PrecopyStopKB and PrecopyMinShrink are the pre-copy
	// stopping rule (§3.1.2, precopyDone). Defaults: the params constants
	// of the same names.
	PrecopyMaxRounds int
	PrecopyStopKB    float64
	PrecopyMinShrink float64
}

// precopyDone is the pre-copy stopping rule: after a round (counted from
// 0) that copied copiedKB while the program dirtied dirtyKB, stop and
// freeze if the residue is small enough, the round budget is spent, or the
// dirty set is no longer shrinking.
func (o *Options) precopyDone(round int, copiedKB, dirtyKB float64) bool {
	return dirtyKB <= o.PrecopyStopKB ||
		round+1 >= o.PrecopyMaxRounds ||
		dirtyKB > copiedKB*o.PrecopyMinShrink
}

// Cluster is a simulated V installation: workstations plus a server
// machine running the network file server.
type Cluster struct {
	Sim   *sim.Engine
	Bus   *ethernet.Bus
	Nodes []*Node
	// FSHost is the dedicated server machine.
	FSHost *kernel.Host
	FS     *fileserver.Server
	// NS is the global name server (resident on the server machine).
	NS *nameserver.Server
	// FSHosts/FSReps/NSReps are the replicated server machines and the
	// file/name-server replicas riding them when Options.ReplicateFS ≥ 2
	// (FSHosts[0] == FSHost, FSReps[0] == FS, NSReps[0] == NS). The rsm
	// stores are the replicas' "disks" — they survive crash/restart.
	FSHosts  []*kernel.Host
	FSReps   []*fileserver.Server
	NSReps   []*nameserver.Server
	fsStores []*rsm.Store
	nsStores []*rsm.Store
	// homeStores are the home-group members' durable logs (workstation i
	// carries home replica i for i < len(homeStores)); non-empty exactly
	// when Options.ReplicateHome enabled the home PM group.
	homeStores []*rsm.Store
	// Trace is the cluster-wide event bus and metrics registry; every
	// layer (ethernet, ipc, kernel, migration) publishes into it.
	Trace *trace.Bus
	// Fault injects crashes, restarts, partitions, and loss/corruption
	// bursts into the cluster; it is never nil.
	Fault *fault.Injector

	opt    Options          // as booted, defaults filled in
	images []installedImage // install order preserved for FS restart
	agents int
}

type installedImage struct {
	name string
	data []byte
}

// Node is one workstation: kernel, program manager, display server.
type Node struct {
	Host    *kernel.Host
	PM      *progmgr.PM
	Display *display.Server
	// Selector runs host selection for this workstation: the configured
	// policy over the node's cached cluster-load view. It survives
	// crash/restart cycles: stale entries age out, and a dead candidate
	// drops out when it fails a probe.
	Selector *sched.Selector
	cluster  *Cluster
}

// Options returns the options the cluster was booted with, defaults
// filled in.
func (c *Cluster) Options() Options { return c.opt }

// Name returns the workstation's host name.
func (n *Node) Name() string { return n.Host.Name }

// NewCluster boots a cluster.
func NewCluster(opt Options) *Cluster {
	if opt.Workstations == 0 {
		opt.Workstations = 4
	}
	if opt.Seed == 0 {
		opt.Seed = 1
	}
	if opt.CopyWindow == 0 {
		opt.CopyWindow = params.CopyWindow
	}
	if opt.PrecopyMaxRounds == 0 {
		opt.PrecopyMaxRounds = params.PrecopyMaxRounds
	}
	if opt.PrecopyStopKB == 0 {
		opt.PrecopyStopKB = params.PrecopyStopKB
	}
	if opt.PrecopyMinShrink == 0 {
		opt.PrecopyMinShrink = params.PrecopyMinShrink
	}
	eng := sim.NewEngine(opt.Seed)
	bus := ethernet.NewBus(eng)
	if opt.LossRate > 0 {
		bus.SetLoss(ethernet.RandomLoss(eng, opt.LossRate))
	}
	tb := trace.NewBus()
	bus.SetTraceBus(tb)
	c := &Cluster{Sim: eng, Bus: bus, Trace: tb, opt: opt}
	c.Fault = fault.New(eng, bus, tb, c.roleMAC)
	selPolicy := opt.Select
	if selPolicy == nil {
		selPolicy = sched.FirstResponse{}
	}
	// Load dissemination: every kernel stamps its replies with a load
	// advertisement (piggybacking costs no extra frames); the beacon runs
	// only for load-aware policies, so the paper-baseline first-response
	// configuration puts nothing extra on the wire. A beacon goes to the
	// load listeners, which a station joins at its first load-aware
	// selection: a station that never selects never takes one.
	beacon := time.Duration(0)
	if selPolicy.LoadAware() {
		beacon = params.LoadBeaconInterval
	}
	// Multicast select replies are dallied on large clusters: hundreds of
	// hosts finishing the probe evaluation at the same instant would
	// otherwise transmit simultaneously and jam the segment (reply
	// implosion). Small clusters keep the paper's exact timings.
	var dally time.Duration
	// Reply thinning rides the same gate: multicast queries on a large
	// cluster carry a permille sized so ~SelectReplyTarget hosts answer
	// (and only those pay the probe evaluation); small clusters keep
	// every-willing-host-answers semantics.
	var replyPermille uint32
	if opt.Workstations >= params.SelectDallyMinHosts {
		dally = time.Duration(opt.Workstations) * params.SelectDallyPerHost
		if dally > params.SelectDallyMax {
			dally = params.SelectDallyMax
		}
		replyPermille = uint32(1000 * params.SelectReplyTarget / opt.Workstations)
		if replyPermille > 1000 {
			replyPermille = 1000
		}
		if replyPermille == 0 {
			replyPermille = 1
		}
	}
	for i := 0; i < opt.Workstations; i++ {
		h := kernel.NewHost(eng, bus, i, fmt.Sprintf("ws%d", i))
		h.AttachTrace(tb)
		n := &Node{Host: h, cluster: c}
		n.PM = progmgr.Start(h)
		n.PM.SelectDally = dally
		cache := sched.NewCache(eng.Now)
		n.Selector = sched.NewSelector(selPolicy, cache,
			vid.GroupProgramManagers, progmgr.PmSelectHost,
			uint16(h.NIC.MAC()), tb,
			rand.New(rand.NewSource(opt.Seed+int64(i+1)*7919)), eng.Poison())
		n.Selector.ReplyPermille = replyPermille
		h.IPC.SetLoadSink(cache.Observe)
		if selPolicy.LoadAware() {
			n.Selector.Listen = h.ListenForLoad
		}
		h.EnableLoadAds(beacon)
		n.PM.Migrator = c.newMigrator(n)
		n.PM.Selector = n.Selector
		n.Display = display.Start(h)
		c.Nodes = append(c.Nodes, n)
		c.Fault.RegisterHost(h.NIC.MAC(), h.Crash, n.Restart)
	}
	// Home PM group: the first ReplicateHome workstations' program managers
	// form a consensus group replicating the session-supervision registry,
	// so losing the member that happens to lead supervision does not lose
	// the user's sessions.
	nhome := opt.ReplicateHome
	if nhome > opt.Workstations {
		nhome = opt.Workstations
	}
	if nhome >= 2 {
		for i := 0; i < nhome; i++ {
			c.homeStores = append(c.homeStores, rsm.NewStore())
			c.Nodes[i].PM.EnableHomeGroup(i, nhome, c.homeStores[i])
		}
	}
	// Server machines: one unreplicated host by default, or ReplicateFS
	// consensus-backed replicas, each carrying a file-server and a
	// name-server replica over shared durable stores.
	nfs := opt.ReplicateFS
	if nfs < 2 {
		nfs = 1
	}
	for j := 0; j < nfs; j++ {
		name := "fserv"
		if nfs > 1 {
			name = fmt.Sprintf("fserv%d", j)
		}
		h := kernel.NewHost(eng, bus, opt.Workstations+j, name)
		h.AttachTrace(tb)
		h.EnableLoadAds(0)
		c.FSHosts = append(c.FSHosts, h)
		if nfs > 1 {
			c.fsStores = append(c.fsStores, rsm.NewStore())
			c.nsStores = append(c.nsStores, rsm.NewStore())
		}
		fs, ns := c.startServers(j, nfs)
		c.FSReps = append(c.FSReps, fs)
		c.NSReps = append(c.NSReps, ns)
		j := j
		c.Fault.RegisterHost(h.NIC.MAC(), h.Crash, func() { c.restartFSReplica(j) })
	}
	c.FSHost, c.FS, c.NS = c.FSHosts[0], c.FSReps[0], c.NSReps[0]
	// Resident servers announce themselves to the global name service. The
	// replicated service registers its group id — a pinned replica PID
	// would die with that replica.
	nameserver.RegisterSelf(c.FSHost, "fileserver", c.fsRegistryPID())
	// Stagger the workstations' boot registrations the way their load
	// beacons already are: launched simultaneously, a big cluster's
	// registration herd retransmits against the name server faster than
	// its host can even classify the duplicates.
	for i, n := range c.Nodes {
		d := time.Duration(i) * 10 * time.Millisecond
		nameserver.RegisterSelfAt(n.Host, "display."+n.Name(), n.Display.PID(), d)
		nameserver.RegisterSelfAt(n.Host, "progmgr."+n.Name(), n.PM.PID(), d)
	}
	return c
}

// Install stores a program image on every file-server replica (and
// remembers it so a restarted server can be restocked). Boot images are
// poked directly rather than committed through the log: they are the
// immutable stock a real server reloads from disk, identical on every
// replica by construction.
func (c *Cluster) Install(img *image.Image) {
	data := img.Encode()
	c.images = append(c.images, installedImage{name: img.Name, data: data})
	for _, fs := range c.FSReps {
		fs.Put(img.Name, data)
	}
}

// fsRegistryPID is the PID registered under "fileserver": the group id
// when the service is replicated (a pinned replica PID would die with
// that replica), the single server's PID otherwise.
func (c *Cluster) fsRegistryPID() vid.PID {
	if len(c.FSReps) > 1 {
		return vid.GroupFileServers
	}
	return c.FS.PID()
}

// newMigrator builds a workstation's migration engine: the cluster's
// policy and copy settings, the node's selector, the injector's phase hook.
func (c *Cluster) newMigrator(n *Node) *Migrator {
	return &Migrator{Policy: c.opt.Policy, Cluster: c, FaultHook: c.Fault.OnPhase, Selector: n.Selector}
}

// Restart reboots a crashed workstation: the kernel comes back with a
// fresh system logical host, then the resident servers (program manager,
// display) are restarted and re-announce themselves to the name service.
// Programs that were running before the crash are gone — the paper's V
// made no attempt to survive a host loss beyond migration (§3.1.3).
func (n *Node) Restart() {
	if !n.Host.Crashed() {
		return
	}
	c := n.cluster
	n.Host.Restart()
	n.PM = progmgr.Start(n.Host)
	n.PM.Migrator = c.newMigrator(n)
	n.PM.Selector = n.Selector
	// A home-group member rejoins the group over its surviving durable log
	// and catches up from the current leader (log replay or snapshot).
	if i := n.index(); i >= 0 && i < len(c.homeStores) {
		n.PM.EnableHomeGroup(i, len(c.homeStores), c.homeStores[i])
	}
	n.Display = display.Start(n.Host)
	nameserver.RegisterSelf(n.Host, "display."+n.Name(), n.Display.PID())
	nameserver.RegisterSelf(n.Host, "progmgr."+n.Name(), n.PM.PID())
}

// startServers starts server machine j's file and name servers: lone
// servers when it is the only machine, else replicas over the machine's
// durable stores.
func (c *Cluster) startServers(j, n int) (*fileserver.Server, *nameserver.Server) {
	h := c.FSHosts[j]
	if n > 1 {
		return fileserver.StartReplica(h, j, n, c.fsStores[j]), nameserver.StartReplica(h, j, n, c.nsStores[j])
	}
	return fileserver.Start(h), nameserver.Start(h)
}

// restartFSReplica reboots server machine j: its file-server and
// name-server replicas come back over the durable stores that survived
// the crash, restocked with every installed image (a real V file server
// would reload from disk); runtime mutations replay from the consensus
// log or arrive by snapshot once the replica rejoins.
func (c *Cluster) restartFSReplica(j int) {
	h := c.FSHosts[j]
	if !h.Crashed() {
		return
	}
	h.Restart()
	c.FSReps[j], c.NSReps[j] = c.startServers(j, len(c.FSHosts))
	for _, img := range c.images {
		c.FSReps[j].Put(img.name, img.data)
	}
	if j == 0 {
		c.FS, c.NS = c.FSReps[0], c.NSReps[0]
	}
	nameserver.RegisterSelf(h, "fileserver", c.fsRegistryPID())
}

// homeEnabled reports whether the cluster runs a replicated home PM group.
func (c *Cluster) homeEnabled() bool { return len(c.homeStores) > 0 }

// index returns the node's position in the cluster (-1 if foreign).
func (n *Node) index() int {
	for i, nn := range n.cluster.Nodes {
		if nn == n {
			return i
		}
	}
	return -1
}

// HomeLeaderIdx returns the workstation index currently leading the home
// PM group (-1 when no fenced leader exists or the group is disabled).
func (c *Cluster) HomeLeaderIdx() int {
	for i := 0; i < len(c.homeStores) && i < len(c.Nodes); i++ {
		n := c.Nodes[i]
		if !n.Host.Crashed() && n.PM.HomeReplica() != nil && n.PM.HomeReplica().IsLeader() {
			return i
		}
	}
	return -1
}

// roleMAC resolves a fault-schedule role to the station that holds it now
// (0 when none does, e.g. while its group is electing).
func (c *Cluster) roleMAC(w fault.Who) ethernet.MAC {
	switch w {
	case fault.HomeLeader:
		if i := c.HomeLeaderIdx(); i >= 0 {
			return c.Nodes[i].Host.NIC.MAC()
		}
	case fault.HomeFollower:
		for i := range c.homeStores {
			if i != c.HomeLeaderIdx() {
				return c.Nodes[i].Host.NIC.MAC()
			}
		}
	case fault.FSLeader:
		for i, fs := range c.FSReps {
			if !c.FSHosts[i].Crashed() && fs.Replica() != nil && fs.Replica().IsLeader() {
				return c.FSHosts[i].NIC.MAC()
			}
		}
	}
	return 0
}

// Run advances the cluster by d of virtual time.
func (c *Cluster) Run(d time.Duration) { c.Sim.RunFor(d) }

// Close ends the simulation: every task on every machine is killed and
// unwound, so that a process which builds many clusters does not keep each
// one's parked tasks (a goroutine and its stack apiece) for ever. Counters,
// stores and the trace bus stay readable; the cluster cannot run again.
func (c *Cluster) Close() { c.Sim.Shutdown() }

// Node returns the workstation with the given index.
func (c *Cluster) Node(i int) *Node { return c.Nodes[i] }

// NodeByLH maps a system logical-host id back to its node (nil if it is
// not a workstation's system LH).
func (c *Cluster) NodeByLH(lh vid.LHID) *Node {
	for _, n := range c.Nodes {
		if n.Host.SystemLH().ID() == lh {
			return n
		}
	}
	return nil
}

// FindProgram locates a program's logical host anywhere in the cluster
// (experiments/tools; not a simulated operation).
func (c *Cluster) FindProgram(lhid vid.LHID) (*Node, *kernel.LogicalHost) {
	for _, n := range c.Nodes {
		if lh, ok := n.Host.LookupLH(lhid); ok {
			return n, lh
		}
	}
	return nil, nil
}

// Agent spawns a user agent — the command-interpreter stand-in — on the
// node, running fn. The returned process finishes when fn returns.
func (n *Node) Agent(fn func(a *Agent)) *kernel.Process {
	n.cluster.agents++
	name := fmt.Sprintf("agent%d", n.cluster.agents)
	return n.Host.SpawnServer(name, 16*1024, func(ctx *kernel.ProcCtx) {
		fn(&Agent{node: n, ctx: ctx})
	})
}

// Agent is the user's command interpreter: it executes programs locally or
// remotely, waits for them, and preempts them — the client side of §2 and
// §3. All methods block within the simulation and must only be called from
// the agent's own function.
type Agent struct {
	node  *Node
	ctx   *kernel.ProcCtx
	names map[string]vid.PID // local name cache (§6)
}

// Resolve maps a symbolic name to a PID, consulting the agent's cache
// first and the global name-server group on a miss.
func (a *Agent) Resolve(name string) (vid.PID, error) {
	if pid, ok := a.names[name]; ok {
		return pid, nil
	}
	pid, err := nameserver.Lookup(a.ctx, name)
	if err != nil {
		return vid.Nil, err
	}
	if a.names == nil {
		a.names = make(map[string]vid.PID)
	}
	a.names[name] = pid
	return pid, nil
}

// Node returns the agent's home workstation.
func (a *Agent) Node() *Node { return a.node }

// Ctx exposes the underlying process context for advanced scenarios.
func (a *Agent) Ctx() *kernel.ProcCtx { return a.ctx }

// Sleep suspends the agent.
func (a *Agent) Sleep(d time.Duration) { a.ctx.Sleep(d) }

// Now returns the virtual time.
func (a *Agent) Now() sim.Time { return a.ctx.Now() }
