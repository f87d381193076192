// Command vcluster is a scriptable command interpreter for a simulated
// V-System cluster: the `exec @ machine` / `migrateprog` experience of the
// paper, driven from stdin.
//
// Commands (one per line; `#` starts a comment):
//
//	run <prog> [args] [@ <where>]   execute a program (local, * = any idle)
//	run -restarts <n> ...      same, with an explicit recovery budget: how
//	                           many times the home manager may re-execute
//	                           the program if its hosting workstation dies
//	                           (0 disables supervision; `exec` is an alias)
//	jobs                       list supervised exec sessions: job, current
//	                           host, incarnation, lease age, state
//	wait <job>                 wait for a job to exit
//	migrate <job>              migrateprog: move the job elsewhere
//	migrate -n <job>           migrateprog -n: destroy if no host accepts
//	migrateall <host>          evict all guest programs from a host
//	suspend <job>              freeze a program (transparent to location)
//	resume <job>               unfreeze a suspended program
//	inspect <job>              read the program's registers (remote debug)
//	ps <host>                  list programs on a host
//	display [<host>]           show a workstation's display contents
//	crash <host>               power a workstation off
//	restart <host>             reboot a crashed workstation
//	partition <a,b,..> <c,..>  sever the segment between two host sets
//	heal                       remove all active partitions
//	advance <dur>              advance virtual time (e.g. 2s, 500ms)
//	names                      list global name-service bindings
//	stats                      cluster-wide metrics snapshot
//	trace on|off               stream trace-bus events (packet, freeze,
//	                           rebind, loss) as the simulation advances
//	loss <p>                   set the Ethernet frame-loss probability
//	hosts                      list workstations: advertised load plus each
//	                           host's selection-cache contents and age, and
//	                           any stations its failure detector suspects
//	time                       print the virtual clock
//	quit
//
// Example:
//
//	echo 'run primes5000 @ *
//	wait j1
//	display' | vcluster -n 5
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"vsystem/internal/ethernet"

	"vsystem/internal/core"
	"vsystem/internal/nameserver"
	"vsystem/internal/params"
	"vsystem/internal/progs"
	"vsystem/internal/rsm"
	"vsystem/internal/sched"
	"vsystem/internal/trace"
	"vsystem/internal/vid"
	"vsystem/internal/workload"
)

func main() {
	var (
		n      = flag.Int("n", 4, "number of workstations")
		seed   = flag.Int64("seed", 1, "simulation seed")
		loss   = flag.Float64("loss", 0, "Ethernet frame loss probability")
		policy = flag.String("policy", "precopy", "migration policy: precopy|stopcopy|flush|postcopy|hybrid")
		sel    = flag.String("select", "first", "host-selection policy: first|random|least")
		window = flag.Int("window", params.CopyWindow, "bulk-transfer copy window (1 = stop-and-wait)")
		repFS  = flag.Int("replicate-fs", 0, "file/name-server replicas (0 or 1 = single server machine)")
		repPM  = flag.Int("replicate-home", 0, "home-PM group replicas (0 or 1 = unreplicated home)")
	)
	flag.Parse()

	if *window < 1 {
		fmt.Fprintln(os.Stderr, "vcluster: -window must be >= 1")
		os.Exit(2)
	}

	selPol := sched.PolicyByName(*sel)
	if selPol == nil {
		fmt.Fprintln(os.Stderr, "vcluster: unknown selection policy", *sel)
		os.Exit(2)
	}

	pol, err := core.ParsePolicy(*policy)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vcluster:", err)
		os.Exit(2)
	}

	r := newRepl(core.Options{
		Workstations: *n, Seed: *seed, LossRate: *loss, Policy: pol, Select: selPol,
		ReplicateFS: *repFS, ReplicateHome: *repPM, CopyWindow: *window,
	}, os.Stdout)
	r.loop(os.Stdin)
}

type repl struct {
	c       *core.Cluster
	jobs    map[string]*core.Job
	jobSeq  int
	out     io.Writer
	traceOn bool
}

// newRepl boots a cluster with the standard images installed.
func newRepl(opt core.Options, out io.Writer) *repl {
	c := core.NewCluster(opt)
	c.Install(progs.Hello())
	c.Install(progs.Primes(5000))
	c.Install(progs.Ticker(100))
	c.Install(progs.MemWalker(128, 300))
	c.Install(progs.PrimesRange())
	c.Install(progs.FileIO())
	for _, img := range workload.PaperImages() {
		c.Install(img)
	}
	r := &repl{c: c, jobs: map[string]*core.Job{}, out: out}
	c.Trace.Subscribe(r.printEvent)
	c.Trace.SubscribeSpans(r.printSpan)
	return r
}

// printEvent streams one trace-bus event while `trace on`. Receive,
// frame-transmit and scheduler-dispatch events are suppressed: they mirror
// the transmit events (or fire every quantum) and would drown the log.
func (r *repl) printEvent(ev trace.Event) {
	if !r.traceOn {
		return
	}
	switch ev.Kind {
	case trace.EvPktRx, trace.EvFrameTx, trace.EvDispatch:
		return
	}
	switch {
	case ev.Pkt != nil:
		r.printf("trace %12v host%d %-13v %v %v→%v",
			ev.At, ev.Host, ev.Kind, ev.Pkt.Kind, ev.Pkt.Src, ev.Pkt.Dst)
	case ev.Kind == trace.EvSelectProbe:
		r.printf("trace %12v host%d %-13v lh=%v answered=%d ready=%d",
			ev.At, ev.Host, ev.Kind, ev.LH, ev.Prio, ev.Size)
	case ev.LH != 0:
		r.printf("trace %12v host%d %-13v lh=%v", ev.At, ev.Host, ev.Kind, ev.LH)
	default:
		r.printf("trace %12v host%d %-13v %dB→host%d", ev.At, ev.Host, ev.Kind, ev.Size, ev.Peer)
	}
}

// printSpan streams one completed migration phase while `trace on`.
func (r *repl) printSpan(s trace.Span) {
	if !r.traceOn {
		return
	}
	r.printf("trace span %v", s)
}

func (r *repl) printf(f string, a ...any) { fmt.Fprintf(r.out, f+"\n", a...) }

// do runs fn on a fresh agent on node 0 and advances the simulation until
// it completes (bounded).
func (r *repl) do(fn func(a *core.Agent)) {
	done := false
	r.c.Node(0).Agent(func(a *core.Agent) {
		fn(a)
		done = true
	})
	for i := 0; i < 600 && !done; i++ {
		r.c.Run(time.Second)
	}
	if !done {
		r.printf("! command did not complete within 10 minutes of virtual time")
	}
}

func (r *repl) node(name string) *core.Node {
	for _, n := range r.c.Nodes {
		if n.Name() == name {
			return n
		}
	}
	r.printf("! no such host %q", name)
	return nil
}

func (r *repl) loop(in io.Reader) {
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		if line == "" {
			continue
		}
		if !r.exec(line) {
			return
		}
	}
}

// exec runs one command; false means quit.
func (r *repl) exec(line string) bool {
	f := strings.Fields(line)
	switch f[0] {
	case "quit", "exit":
		return false

	case "time":
		r.printf("%v", r.c.Sim.Now())

	case "hosts":
		for _, n := range r.c.Nodes {
			state := "idle"
			if !n.Host.CPU.Idle() {
				state = "busy"
			}
			if n.Host.Crashed() {
				state = "crashed"
				r.printf("%-6s %-7s", n.Name(), state)
				continue
			}
			l := sched.LoadFromWords(n.Host.LoadWords())
			r.printf("%-6s %-7s %5d KB free  ready=%d residents=%d util=%d‰  policy=%s",
				n.Name(), state, n.Host.MemFree()/1024,
				l.Ready, l.Residents, l.UtilPermille, n.Selector.Policy.Name())
			for _, e := range n.Selector.Cache.Entries() {
				tag := ""
				if e.Neg {
					tag = " NEG"
				}
				if e.Bumps > 0 {
					tag += fmt.Sprintf(" +%d placed", e.Bumps)
				}
				r.printf("         cache %v ready=%d free=%dK age=%v%s",
					e.Load.SystemLH, e.Load.Ready, e.Load.MemFree/1024,
					e.Age.Round(time.Millisecond), tag)
			}
			if sus := n.Host.IPC.Suspects(); len(sus) > 0 {
				names := make([]string, 0, len(sus))
				for _, mac := range sus {
					names = append(names, r.nodeByMAC(mac))
				}
				r.printf("         suspects dead: %s", strings.Join(names, ", "))
			}
		}

	case "jobs":
		any := false
		for _, n := range r.c.Nodes {
			for _, v := range n.PM.Sessions() {
				any = true
				host := "?"
				if hn := r.c.NodeByLH(v.HostLH); hn != nil {
					host = hn.Name()
				}
				id := "-"
				for jid, job := range r.jobs {
					// A Wait that followed the recovery may have rebound
					// the handle to the current incarnation's LHID.
					if job.LHID == v.LHID || job.LHID == v.CurLH {
						id = jid
						break
					}
				}
				r.printf("%-4s %-12s home=%-5s host=%-5s lh=%v incarnation=%d restarts=%d lease=%v %s",
					id, v.Name, n.Name(), host, v.CurLH, v.Incarnation, v.Restarts,
					v.LeaseAge.Round(time.Millisecond), v.State)
			}
		}
		if !any {
			r.printf("(no supervised jobs)")
		}

	case "advance":
		if len(f) < 2 {
			r.printf("! advance <duration>")
			break
		}
		d, err := time.ParseDuration(f[1])
		if err != nil {
			r.printf("! %v", err)
			break
		}
		r.c.Run(d)
		r.printf("clock: %v", r.c.Sim.Now())

	case "run", "exec":
		where := ""
		rest := f[1:]
		restarts := params.ExecMaxRestarts
		if len(rest) >= 2 && rest[0] == "-restarts" {
			n, err := strconv.Atoi(rest[1])
			if err != nil || n < 0 {
				r.printf("! -restarts needs a non-negative count")
				break
			}
			restarts = n
			rest = rest[2:]
		}
		for i, a := range rest {
			if a == "@" {
				if i+1 < len(rest) {
					where = rest[i+1]
				}
				rest = rest[:i]
				break
			}
		}
		if len(rest) == 0 {
			r.printf("! run [-restarts n] <prog> [args] [@ where]")
			break
		}
		prog, args := rest[0], rest[1:]
		r.do(func(a *core.Agent) {
			job, err := a.ExecR(prog, args, where, restarts)
			if err != nil {
				r.printf("! %v", err)
				return
			}
			r.jobSeq++
			id := fmt.Sprintf("j%d", r.jobSeq)
			r.jobs[id] = job
			r.printf("%s: %s on %s (lh %v)", id, prog, job.Host, job.LHID)
		})

	case "wait":
		job := r.job(f)
		if job == nil {
			break
		}
		r.do(func(a *core.Agent) {
			code, err := a.Wait(job)
			if err != nil {
				r.printf("! %v", err)
				return
			}
			r.printf("%s exited with code %d at %v", job.Name, code, a.Now())
		})

	case "migrate":
		kill := false
		if len(f) > 1 && f[1] == "-n" {
			kill = true
			f = append(f[:1], f[2:]...)
		}
		job := r.job(f)
		if job == nil {
			break
		}
		r.do(func(a *core.Agent) {
			rep, err := a.Migrate(job, kill)
			if err != nil {
				r.printf("! %v", err)
				return
			}
			if rep == nil {
				r.printf("%s destroyed (no host would accept it)", job.Name)
				return
			}
			r.printf("%s migrated (%s): %d round(s), residual %.1f KB, frozen %v",
				job.Name, rep.Policy, len(rep.Rounds), rep.ResidualKB, rep.FreezeTime)
			for i, rd := range rep.Rounds {
				r.printf("  round %d: %.1f KB in %v (%.0f KB/s)", i+1, rd.KB, rd.Dur, rd.CopyRateKBps)
			}
			r.printf("  window %d: %d run(s), %d stall(s), occupancy %.1f, wire %.1f KB",
				rep.WindowSize, rep.WindowSends, rep.WindowStalls, rep.WindowOccupancy,
				float64(rep.WireBytes)/1024)
			if rep.PostSwapFaults > 0 || rep.PostSwapPullKB > 0 || rep.ResiduePushKB > 0 {
				r.printf("  post-swap: %d fault(s), %v stalled, demand %.1f KB, push %.1f KB",
					rep.PostSwapFaults, rep.PostSwapStall, rep.PostSwapPullKB, rep.ResiduePushKB)
			}
			if rep.ResidueAborted {
				r.printf("  post-swap residue ABORTED (guest left to supervision)")
			}
		})

	case "suspend", "resume":
		job := r.job(f)
		if job == nil {
			break
		}
		op := f[0]
		r.do(func(a *core.Agent) {
			var err error
			if op == "suspend" {
				err = a.Suspend(job)
			} else {
				err = a.Resume(job)
			}
			if err != nil {
				r.printf("! %v", err)
				return
			}
			past := "suspended"
			if op == "resume" {
				past = "resumed"
			}
			r.printf("%s %s", job.Name, past)
		})

	case "inspect":
		job := r.job(f)
		if job == nil {
			break
		}
		r.do(func(a *core.Agent) {
			regs, state, err := a.Inspect(job.PID)
			if err != nil {
				r.printf("! %v", err)
				return
			}
			states := []string{"running", "stopped", "dead"}
			r.printf("%s (%v) %s", job.Name, job.PID, states[state%3])
			r.printf("  phase=%d exit=%d w=%v", regs.W[0], regs.W[1], regs.W[2:10])
		})

	case "migrateall":
		if len(f) < 2 {
			r.printf("! migrateall <host>")
			break
		}
		n := r.node(f[1])
		if n == nil {
			break
		}
		r.do(func(a *core.Agent) {
			if err := a.MigrateAll(n, false); err != nil {
				r.printf("! %v", err)
				return
			}
			r.printf("eviction of guests from %s requested", n.Name())
		})

	case "ps":
		if len(f) < 2 {
			r.printf("! ps <host>")
			break
		}
		n := r.node(f[1])
		if n == nil {
			break
		}
		r.do(func(a *core.Agent) {
			s, err := a.PS(n)
			if err != nil {
				r.printf("! %v", err)
				return
			}
			if s == "" {
				s = "(no programs)\n"
			}
			fmt.Fprint(r.out, s)
		})

	case "display":
		name := "ws0"
		if len(f) > 1 {
			name = f[1]
		}
		n := r.node(name)
		if n == nil {
			break
		}
		for _, l := range n.Display.Lines() {
			r.printf("%s| %s", name, l)
		}

	case "stats":
		// Every server machine counts: under -replicate-fs the log
		// windows run on whichever replica leads.
		var serverFrames, wsends, wstalls int64
		for _, h := range r.c.FSHosts {
			tx, rx := h.NIC.Counters()
			ist := h.IPC.Stats()
			serverFrames += tx + rx
			wsends += ist.WindowSends
			wstalls += ist.WindowStalls
		}
		bs := r.c.Bus.Stats()
		r.printf("t=%v  frames=%d lost=%d bus-busy=%v  fileserver-frames=%d",
			r.c.Sim.Now(), bs.Frames, bs.Dropped, bs.BusyTime, serverFrames)
		for _, n := range r.c.Nodes {
			h := n.Host
			ist := h.IPC.Stats()
			wsends += ist.WindowSends
			wstalls += ist.WindowStalls
			freezes, frozen := h.FreezeStats()
			var guests, locals int
			for _, lh := range h.LHs() {
				switch {
				case lh.System():
				case lh.Guest():
					guests++
				default:
					locals++
				}
			}
			r.printf("  %-5s util=%5.1f%% guests=%d locals=%d memfree=%dK pkts=%d/%d retx=%d locates=%d freezes=%d frozen=%v",
				n.Name(), h.CPU.Utilization()*100, guests, locals, h.MemFree()/1024,
				ist.TxPackets, ist.RxPackets, ist.Retransmits, ist.Locates, freezes, frozen)
		}
		tb := r.c.Trace
		r.printf("  events: tx=%d local=%d retx=%d drop=%d frame-drop=%d reply-pending=%d locate=%d rebind=%d freeze=%d",
			tb.Count(trace.EvPktTx), tb.Count(trace.EvPktLocal), tb.Count(trace.EvPktRetx),
			tb.Count(trace.EvPktDrop), tb.Count(trace.EvFrameDrop), tb.Count(trace.EvReplyPending),
			tb.Count(trace.EvLocate), tb.Count(trace.EvRebind), tb.Count(trace.EvFreeze))
		r.printf("  bulk-transfer: window=%d sends=%d stalls=%d copy-window-events=%d",
			r.c.Options().CopyWindow, wsends, wstalls, tb.Count(trace.EvCopyWindow))
		rf := r.c.RemoteFaultTotals()
		r.printf("  remote faults: %d (%.1f KB) stalled=%v demand=%.1fK push=%.1fK events=%d aborted=%v",
			rf.Faults, rf.FaultKB(), rf.StallTime, rf.PullKB, rf.PushKB,
			tb.Count(trace.EvRemoteFault), rf.Aborted)
		es := r.c.Sim.Stats()
		r.printf("  engine: fired=%d task-dispatches=%d merged-wakes=%d skipped-slice-ends=%d timers-stopped=%d pending=%d max-pending=%d",
			es.Fired, es.Dispatches, es.Merged, es.Skipped, es.Stopped, r.c.Sim.Pending(), es.MaxPending)

	case "trace":
		if len(f) < 2 || (f[1] != "on" && f[1] != "off") {
			r.printf("! trace on|off")
			break
		}
		r.traceOn = f[1] == "on"
		r.printf("trace %s", f[1])

	case "loss":
		if len(f) < 2 {
			r.printf("! loss <probability>")
			break
		}
		p, err := strconv.ParseFloat(f[1], 64)
		if err != nil || p < 0 || p > 1 {
			r.printf("! loss must be in [0,1]")
			break
		}
		if p == 0 {
			r.c.Bus.SetLoss(nil)
		} else {
			r.c.Bus.SetLoss(ethernet.RandomLoss(r.c.Sim, p))
		}
		r.printf("frame loss set to %.0f%%", p*100)

	case "names":
		r.do(func(a *core.Agent) {
			m, err := a.Ctx().Send(vid.GroupNameServers, vid.Message{Op: nameserver.NsList})
			if err != nil || !m.OK() {
				r.printf("! name service unavailable")
				return
			}
			fmt.Fprint(r.out, m.SegString())
		})

	case "crash":
		if len(f) < 2 {
			r.printf("! crash <host>")
			break
		}
		n := r.node(f[1])
		if n == nil {
			break
		}
		r.c.Fault.Crash(n.Host.NIC.MAC())
		r.printf("%s crashed", n.Name())

	case "restart":
		if len(f) < 2 {
			r.printf("! restart <host>")
			break
		}
		n := r.node(f[1])
		if n == nil {
			break
		}
		if !n.Host.Crashed() {
			r.printf("! %s is not crashed", n.Name())
			break
		}
		r.c.Fault.Restart(n.Host.NIC.MAC())
		r.printf("%s restarted", n.Name())

	case "partition":
		if len(f) != 3 {
			r.printf("! partition <hosts,comma-separated> <hosts,comma-separated>")
			break
		}
		a, okA := r.macSet(f[1])
		b, okB := r.macSet(f[2])
		if !okA || !okB {
			break
		}
		r.c.Fault.Partition(a, b)
		r.printf("partitioned %s | %s", f[1], f[2])

	case "heal":
		if !r.c.Fault.Partitioned() {
			r.printf("! no active partition")
			break
		}
		r.c.Fault.Heal()
		r.printf("all partitions healed")

	case "replicas":
		any := false
		if rep := r.c.Nodes[0].PM.HomeReplica(); rep != nil {
			any = true
			r.printf("home-PM group:")
			for _, n := range r.c.Nodes {
				hr := n.PM.HomeReplica()
				if hr == nil {
					continue
				}
				r.printReplica(n.Name(), n.Host.Crashed(), hr)
			}
		}
		if len(r.c.FSReps) > 1 {
			any = true
			r.printf("file/name servers:")
			for i, h := range r.c.FSHosts {
				r.printReplica(fmt.Sprintf("fs%d", i), h.Crashed(), r.c.FSReps[i].Replica())
				r.printReplica(fmt.Sprintf("ns%d", i), h.Crashed(), r.c.NSReps[i].Replica())
			}
		}
		if !any {
			r.printf("no replicated services (boot with -replicate-home / -replicate-fs)")
		}

	default:
		r.printf("! unknown command %q", f[0])
	}
	return true
}

// printReplica shows one consensus-group member's role and progress.
func (r *repl) printReplica(name string, crashed bool, rep *rsm.Replica) {
	if rep == nil {
		return
	}
	if crashed {
		r.printf("  %-5s crashed", name)
		return
	}
	role := "follower"
	if rep.IsLeader() {
		role = "LEADER"
	}
	st := rep.Stats()
	r.printf("  %-5s %-8s term=%d applied=%d commits=%d elections=%d failovers=%d",
		name, role, rep.Term(), rep.AppliedIndex(), st.Commits, st.Elections, st.Failovers)
}

// nodeByMAC names the workstation behind a station address.
func (r *repl) nodeByMAC(mac ethernet.MAC) string {
	for _, n := range r.c.Nodes {
		if n.Host.NIC.MAC() == mac {
			return n.Name()
		}
	}
	return fmt.Sprintf("station %d", mac)
}

// macSet resolves a comma-separated host-name list ("ws0,ws2") to MACs.
func (r *repl) macSet(list string) ([]ethernet.MAC, bool) {
	var out []ethernet.MAC
	for _, name := range strings.Split(list, ",") {
		n := r.node(strings.TrimSpace(name))
		if n == nil {
			return nil, false
		}
		out = append(out, n.Host.NIC.MAC())
	}
	return out, true
}

func (r *repl) job(f []string) *core.Job {
	if len(f) < 2 {
		r.printf("! need a job id")
		return nil
	}
	job := r.jobs[f[1]]
	if job == nil {
		r.printf("! unknown job %q", f[1])
	}
	return job
}
