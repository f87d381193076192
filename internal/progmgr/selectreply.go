package progmgr

import (
	"time"

	"vsystem/internal/ipc"
	"vsystem/internal/kernel"
	"vsystem/internal/params"
	"vsystem/internal/sched"
	"vsystem/internal/vid"
)

// Select-reply policy: who answers a PmSelectHost query, and when.

// selectHost serves PmSelectHost. It evaluates availability: CPU idle at
// program priorities and enough free memory. The evaluation cost dominates
// the paper's 23 ms host-selection time. W1..W4 carry excluded system LHs:
// the requester's own host plus destinations that already failed this
// migration. W5 carries sched query flags: a relaxed query is answered
// with the load even when the CPU is busy, and a unicast probe earns an
// explicit refusal where a multicast would get silence.
func (pm *PM) selectHost(ctx *kernel.ProcCtx, req *ipc.Req) {
	m, port := req.Msg, pm.proc.Port()
	flags := m.W[5] & 0xFFFF
	refuse := func() {
		if flags&sched.QueryUnicast != 0 {
			ctx.Reply(req, vid.ErrMsg(vid.CodeRefused))
		} else {
			port.Drop(req)
		}
	}
	// Reply thinning: on large clusters the query's high flag half
	// carries a permille; most managers hash themselves out before
	// paying the probe evaluation, bounding both the cluster-wide
	// evaluation cost and the reply implosion at the submitter.
	if permille := m.W[5] >> 16; permille > 0 && flags&sched.QueryUnicast == 0 &&
		replyLottery(uint64(pm.host.NIC.MAC()), req.TxID()) >= permille {
		port.Drop(req)
		return
	}
	self := uint32(pm.host.SystemLH().ID())
	if m.W[1] == self || m.W[2] == self || m.W[3] == self || m.W[4] == self {
		refuse()
		return
	}
	willing := func() bool {
		return pm.host.MemFree() >= m.W[0] && (flags&sched.QueryRelaxed != 0 || pm.host.CPU.Idle())
	}
	// A copy of a query this manager refused is evaluated again only once
	// the answer can have changed, so a busy host pays the evaluation once
	// per query, not once per retransmission, and an idle one answers.
	if req.Again() && !willing() {
		refuse()
		return
	}
	ctx.Compute(params.SelectProbeCPU)
	if !willing() {
		refuse()
		return
	}
	if pm.SelectDally > 0 && flags&sched.QueryUnicast == 0 {
		ctx.Sleep(dallySlot(uint64(pm.host.NIC.MAC()), req.TxID(), pm.SelectDally))
	}
	ctx.Reply(req, vid.Message{Op: m.Op, W: pm.host.LoadWords()})
}

// dallySlot spreads multicast select replies over a window: a
// deterministic hash of (station, transaction) picks the slot, so a
// retransmitted query meets the same reply schedule and double runs stay
// byte-identical.
func dallySlot(mac uint64, txid uint32, window time.Duration) time.Duration {
	us := uint64(window / time.Microsecond)
	if us == 0 {
		return 0
	}
	return time.Duration(selectMix(mac, txid)%us) * time.Microsecond
}

// replyLottery draws this host's deterministic permille ticket for a
// thinned multicast query. Salted differently from dallySlot so the
// sample of repliers and their dally slots stay uncorrelated.
func replyLottery(mac uint64, txid uint32) uint32 {
	return uint32(selectMix(mac^0xA5A5A5A5A5A5A5A5, txid) % 1000)
}

// selectMix hashes (station, transaction) into a well-spread 64-bit
// value; retransmissions reuse the TxID, so a host's draw is stable
// across resends of the same query.
func selectMix(mac uint64, txid uint32) uint64 {
	h := mac*0x9E3779B97F4A7C15 ^ uint64(txid)*0xC2B2AE3D27D4EB4F
	h ^= h >> 33
	h *= 0xFF51AFD7ED558CCD
	h ^= h >> 33
	return h
}
