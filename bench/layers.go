package main

import (
	"math"
	"vsystem/internal/core"
	"vsystem/internal/ipc"
	"vsystem/internal/rsm"
	"vsystem/internal/trace"
)

// counters accumulates the public counters of every layer of a cluster,
// read when the run ends. A workload that runs several clusters (migrate)
// adds each in turn; derived shares are computed once at the end by
// finish.
type counters struct {
	virtS                            float64
	txPackets, retransmits, locates  float64
	replyPendings, suspects          float64
	bindHits, bindMisses             float64
	frames, bytes, dropped, bcasts   float64
	busBusyS                         float64
	fsBytes                          float64
	fsUtil                           float64 // summed over clusters; divided by clusters in finish
	clusters                         float64
	dispatches, freezes, frozenMs    float64
	queries, warm, multicasts        float64
	probes, probeFails               float64
	renews, expires, restarts        float64
	elections, commits, snapInstalls float64
}

func (k *counters) addCluster(c *core.Cluster) {
	k.clusters++
	k.virtS += c.Sim.Now().Seconds()
	for _, n := range c.Nodes {
		k.addIPC(n.Host.IPC.Stats())
		fz, frozen := n.Host.FreezeStats()
		k.freezes += float64(fz)
		k.frozenMs += ms(frozen)
		ss := n.Selector.Stats()
		k.queries += float64(ss.Queries)
		k.warm += float64(ss.WarmPicks)
		k.multicasts += float64(ss.Multicasts)
		k.probes += float64(ss.Probes)
		k.probeFails += float64(ss.ProbeFailures)
		// A restarted workstation has a fresh manager, so renewals count
		// only since each manager's last boot; expiries and re-executions
		// come from the trace bus's totals below, which survive restarts.
		k.renews += float64(n.PM.SupStats().LeaseRenews)
		k.addReplica(n.PM.HomeReplica())
	}
	for i, h := range c.FSHosts {
		k.addIPC(h.IPC.Stats())
		tx, rx := h.NIC.ByteCounters()
		k.fsBytes += float64(tx + rx)
		k.addReplica(c.FSReps[i].Replica())
		k.addReplica(c.NSReps[i].Replica())
	}
	k.fsUtil += c.FSHost.CPU.Utilization()
	bs := c.Bus.Stats()
	k.frames += float64(bs.Frames)
	k.bytes += float64(bs.Bytes)
	k.dropped += float64(bs.Dropped)
	k.bcasts += float64(bs.Broadcasts)
	k.busBusyS += bs.BusyTime.Seconds()
	k.dispatches += float64(c.Trace.Count(trace.EvDispatch))
	k.expires += float64(c.Trace.Count(trace.EvLeaseExpire))
	k.restarts += float64(c.Trace.Count(trace.EvExecRestart))
	k.elections += float64(c.Trace.Count(trace.EvElect))
	k.commits += float64(c.Trace.Count(trace.EvCommit))
}

func (k *counters) addIPC(st ipc.Stats) {
	k.txPackets += float64(st.TxPackets)
	k.retransmits += float64(st.Retransmits)
	k.locates += float64(st.Locates)
	k.replyPendings += float64(st.ReplyPendings)
	k.suspects += float64(st.HostSuspects)
	k.bindHits += float64(st.BindingHits)
	k.bindMisses += float64(st.BindingMisses)
}

func (k *counters) addReplica(r *rsm.Replica) {
	if r == nil {
		return
	}
	// A restarted member is a fresh Replica: its counters cover only its
	// current incarnation. Elections and commits therefore come from the
	// trace bus's per-kind totals instead (held to parity with these
	// counters by the rsm tests).
	k.snapInstalls += float64(r.Stats().SnapInstalls)
}

// finish writes the counter-derived per-layer metrics.
func (k *counters) finish(m map[string]float64) {
	m["sim.virt_s"] = k.virtS
	m["ipc.tx_packets"] = k.txPackets
	m["ipc.retransmits"] = k.retransmits
	m["ipc.retx_share"] = ratio(k.retransmits, k.txPackets)
	m["ipc.locates"] = k.locates
	m["ipc.reply_pendings"] = k.replyPendings
	m["ipc.bind_miss_share"] = ratio(k.bindMisses, k.bindHits+k.bindMisses)
	m["ipc.suspects"] = k.suspects
	m["ethernet.frames"] = k.frames
	m["ethernet.kbytes"] = k.bytes / 1024
	m["ethernet.busy_share"] = ratio(k.busBusyS, k.virtS)
	m["ethernet.dropped"] = k.dropped
	m["ethernet.broadcasts"] = k.bcasts
	m["fileserver.kbytes"] = k.fsBytes / 1024
	m["fileserver.cpu_util"] = ratio(k.fsUtil, k.clusters)
	m["kernel.dispatches"] = k.dispatches
	m["kernel.freezes"] = k.freezes
	m["kernel.frozen_ms"] = k.frozenMs
	m["sched.warm_share"] = ratio(k.warm, k.queries)
	m["sched.multicasts_per_query"] = ratio(k.multicasts, k.queries)
	m["sched.probe_fail_share"] = ratio(k.probeFails, k.probes)
	m["progmgr.lease_renews"] = k.renews
	m["progmgr.lease_expires"] = k.expires
	m["progmgr.exec_restarts"] = k.restarts
	m["rsm.elections"] = k.elections
	m["rsm.commits"] = k.commits
	m["rsm.snap_installs"] = k.snapInstalls
}

// execSpans writes the per-layer metrics that come from the exec spans of
// the traced run (farm100, exec25, failover).
func execSpans(rec *recorder, ops []*op, m map[string]float64) {
	if rec == nil {
		return
	}
	sel, create, start := rec.byName("select"), rec.byName("create"), rec.byName("start")
	m["sched.select_p50_ms"] = sel.median()
	m["sched.select_p95_ms"], _ = sel.quantile(0.95)
	m["progmgr.create_p50_ms"] = create.median()
	m["progmgr.create_p95_ms"], _ = create.quantile(0.95)
	m["kernel.start_p50_ms"] = start.median()

	byOp := make(map[int]*op, len(ops))
	for _, o := range ops {
		byOp[o.id] = o
	}
	var notify samples
	var createMs, imageKB float64
	// Every exec attempt: the steps must add up to the attempt.
	parts := map[int]float64{}
	for _, s := range rec.spans {
		switch s.Name {
		case "select", "create", "start":
			parts[s.Parent] += s.ms()
		}
		o := byOp[s.Op]
		if o == nil {
			continue
		}
		switch {
		case s.Name == "wait" && o.state == opDone:
			notify = append(notify, s.ms()-ms(o.service))
		case s.Name == "create" && o.running:
			createMs += s.ms()
			imageKB += o.imageKB
		}
	}
	worst := 0.0
	for _, s := range rec.spans {
		if sum, ok := parts[s.ID]; ok && s.Name == "exec" && s.ms() > 0 {
			if e := math.Abs(sum-s.ms()) / s.ms(); e > worst {
				worst = e
			}
		}
	}
	m["bench.exec_sum_err_max"] = worst
	m["progmgr.wait_notify_p50_ms"] = notify.median()
	m["fileserver.load_ms_per_kb"] = ratio(createMs, imageKB)
}
