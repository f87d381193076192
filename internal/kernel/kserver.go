package kernel

import (
	"time"

	"vsystem/internal/mem"
	"vsystem/internal/params"
	"vsystem/internal/vid"
)

// Kernel server operation codes. The kernel server of a workstation is
// addressed location-independently as (logical-host-id, IdxKernelServer)
// for any logical host resident there (§2.1). Operations addressed through
// a *frozen* logical host are deferred by the IPC layer (reply-pending);
// migration control traffic therefore addresses the target's kernel server
// through the target's system logical host.
const (
	KsPing uint16 = 0x10
	// KsCreateLH: Seg=name, W0=guest → W0=new LHID; CodeNoMemory when
	// the host's id range is spent.
	KsCreateLH uint16 = 0x11
	// KsCreateSpace: W0=lh, W1=size → W0=space id.
	KsCreateSpace uint16 = 0x12
	// KsCreateProcess: W0=lh, W1=space id, Seg=body kind NUL regs blob →
	// W0=new pid. Lets a program create sub-processes in its own logical
	// host (§3: "a program may create sub-programs, all of which
	// typically execute within a single logical host").
	KsCreateProcess uint16 = 0x14
	// KsStartProcess: W0=pid — the creator's "reply to the initial
	// process" that starts a newly created program (§2.1).
	KsStartProcess uint16 = 0x15
	// KsWritePages: W0=lh, Seg=page run → OK.
	KsWritePages uint16 = 0x16
	// KsReadPages: W0=lh, W1=space, W2=first page, W3=count → Seg=run.
	KsReadPages uint16 = 0x17
	// KsUnfreezeLH: W0=lh, W1=the migration's residue receptacle at the
	// source (0: none), handed to OnUnfreezeLH; the new binding is
	// broadcast.
	KsUnfreezeLH uint16 = 0x19
	// KsSetState: W0=placeholder lh, Seg = encoded LHState.
	KsSetState uint16 = 0x1B
	// KsChangeLHID: W0=placeholder lh, W1=final LHID.
	KsChangeLHID uint16 = 0x1C
	// KsQueryLH: W0=lh → W0=#procs, W1=#spaces, W2=mem used, W3=frozen.
	KsQueryLH uint16 = 0x1E
	// KsQueryProcess: W0=pid → Seg=register blob, W0=state (0 running,
	// 1 stopped, 2 dead). The V debugger's read-registers primitive:
	// works identically on local and remote processes (§6).
	KsQueryProcess uint16 = 0x1F
	// KsFetchPage: W0=lh, Seg=fetch request (AppendFetchReq: space id plus
	// an explicit page list) → Seg=page run. The post-copy remote-fault
	// path: a faulting destination fetches the page it needs (plus
	// read-ahead) from the frozen source receptacle. Serving a page clears
	// its dirty bit on the receptacle — the source's not-yet-delivered
	// marker, which its push-out consults, so a served page is not also
	// pushed — and refreshes the receptacle's activity timestamp so the
	// inactivity reaper holds off. Requests are idempotent: duplicates and
	// out-of-order arrivals re-serve the same (frozen, hence stable)
	// contents.
	KsFetchPage uint16 = 0x21
)

// Write modes for KsWritePages (W1).
const (
	// WriteModeCopy overwrites pages: the pre-swap copy stream, where the
	// destination placeholder is frozen and the source copy authoritative.
	WriteModeCopy uint32 = iota
	// WriteModeIfAbsent installs only pages the destination does not
	// already hold: the post-swap residue push-out, racing demand fetches
	// and the running guest's own writes (first writer wins, never
	// double-apply).
	WriteModeIfAbsent
	// WriteModeInvalidate drops the listed pages instead of installing
	// them: the hybrid policy's freeze-time correction for hot pages
	// re-dirtied after their pre-copy. Run bodies are all zero-elided, so
	// an invalidation run costs ~4 bytes per page on the wire.
	WriteModeInvalidate
)

// KernelServerPID returns the kernel server address reachable through the
// given logical host.
func KernelServerPID(lh vid.LHID) vid.PID { return vid.NewPID(lh, vid.IdxKernelServer) }

// startKernelServer spawns the kernel server process and registers its
// well-known index.
func (h *Host) startKernelServer() {
	p := h.SpawnServer("kserver", 16*1024, h.kernelServerLoop)
	p.prio = params.PrioKernel
	h.RegisterWellKnown(vid.IdxKernelServer, p.PID())
}

func (h *Host) kernelServerLoop(ctx *ProcCtx) {
	for {
		req := ctx.Receive()
		ctx.Compute(params.KernelOpCPU)
		reply := h.handleKs(ctx, req.Msg)
		// Every operation copies out of the request's segment what it keeps
		// (a write installs or drops the pages, a state install decodes the
		// state), and an error keeps nothing: a lent buffer is free.
		ctx.ReleaseSeg(req)
		ctx.Reply(req, reply)
	}
}

func (h *Host) handleKs(ctx *ProcCtx, m vid.Message) vid.Message {
	switch m.Op {
	case KsPing:
		return vid.Message{Op: m.Op}

	case KsCreateLH:
		lh, err := h.CreateLH(m.SegString(), m.W[0] != 0)
		if err != nil {
			return vid.ErrMsg(vid.CodeNoMemory)
		}
		return vid.Message{Op: m.Op, W: [6]uint32{uint32(lh.id)}}

	case KsCreateSpace:
		lh, ok := h.LookupLH(vid.LHID(m.W[0]))
		if !ok {
			return vid.ErrMsg(vid.CodeNotFound)
		}
		as, err := lh.CreateSpace(m.W[1])
		if err != nil {
			return vid.ErrMsg(vid.CodeNoMemory)
		}
		return vid.Message{Op: m.Op, W: [6]uint32{as.ID}}

	case KsCreateProcess:
		lh, ok := h.LookupLH(vid.LHID(m.W[0]))
		if !ok {
			return vid.ErrMsg(vid.CodeNotFound)
		}
		if _, ok := lh.spaces[m.W[1]]; !ok {
			return vid.ErrMsg(vid.CodeNotFound)
		}
		kind, regs, err := decodeCreateProc(m.Seg)
		if err != nil {
			return vid.ErrMsg(vid.CodeBadRequest)
		}
		p := lh.NewProcess(m.W[1], kind, regs)
		return vid.Message{Op: m.Op, W: [6]uint32{uint32(p.PID())}}

	case KsStartProcess:
		pid := vid.PID(m.W[0])
		lh, ok := h.LookupLH(pid.LH())
		if !ok {
			return vid.ErrMsg(vid.CodeNotFound)
		}
		p, ok := lh.procs[pid.Index()]
		if !ok {
			return vid.ErrMsg(vid.CodeNoProcess)
		}
		h.startProcess(p)
		return vid.Message{Op: m.Op}

	case KsWritePages:
		lh, ok := h.LookupLH(vid.LHID(m.W[0]))
		if !ok {
			return vid.ErrMsg(vid.CodeNotFound)
		}
		run := &h.ks
		if err := run.Decode(m.Seg); err != nil {
			return vid.ErrMsg(vid.CodeBadRequest)
		}
		pages, data := run.Pages, run.Data
		as, ok := lh.spaces[run.Space]
		if !ok {
			return vid.ErrMsg(vid.CodeNotFound)
		}
		switch m.W[1] {
		case WriteModeCopy:
			for i, pn := range pages {
				if err := as.InstallPage(pn, data[i]); err != nil {
					return vid.ErrMsg(vid.CodeBadRequest)
				}
			}
		case WriteModeIfAbsent:
			for i, pn := range pages {
				if _, err := as.InstallPageIfAbsent(pn, data[i]); err != nil {
					return vid.ErrMsg(vid.CodeBadRequest)
				}
			}
		case WriteModeInvalidate:
			for _, pn := range pages {
				as.Drop(pn)
			}
		default:
			return vid.ErrMsg(vid.CodeBadRequest)
		}
		lh.lastWrite = h.Eng.Now()
		return vid.Message{Op: m.Op}

	case KsFetchPage:
		lh, ok := h.LookupLH(vid.LHID(m.W[0]))
		if !ok {
			return vid.ErrMsg(vid.CodeNotFound)
		}
		h.ks.room()
		spaceID, pages, err := decodeFetchReq(m.Seg, h.ks.Pages)
		if err != nil {
			return vid.ErrMsg(vid.CodeBadRequest)
		}
		as, ok := lh.spaces[spaceID]
		if !ok {
			return vid.ErrMsg(vid.CodeNotFound)
		}
		data := h.pageViews(as, pages)
		for _, pn := range pages {
			// Delivered: the source's push-out skips pages whose marker is
			// already clear. A duplicate fetch just re-serves the page — the
			// receptacle is frozen, so the contents cannot have changed.
			as.ClearDirtyPage(pn)
		}
		lh.lastWrite = h.Eng.Now()
		return vid.Message{Op: m.Op, Seg: h.pageRunReply(ctx, as.ID, pages, data)}

	case KsReadPages:
		lh, ok := h.LookupLH(vid.LHID(m.W[0]))
		if !ok {
			return vid.ErrMsg(vid.CodeNotFound)
		}
		as, ok := lh.spaces[m.W[1]]
		if !ok {
			return vid.ErrMsg(vid.CodeNotFound)
		}
		first, count := m.W[2], m.W[3]
		if count > MaxRunPages {
			return vid.ErrMsg(vid.CodeBadRequest)
		}
		h.ks.room()
		pages := h.ks.Pages[:count]
		for i := range pages {
			pages[i] = mem.PageNo(first) + mem.PageNo(i)
		}
		return vid.Message{Op: m.Op, Seg: h.pageRunReply(ctx, as.ID, pages, h.pageViews(as, pages))}

	case KsUnfreezeLH:
		lh, ok := h.LookupLH(vid.LHID(m.W[0]))
		if !ok {
			return vid.ErrMsg(vid.CodeNotFound)
		}
		if h.OnUnfreezeLH != nil {
			h.OnUnfreezeLH(lh, vid.LHID(m.W[1]))
		}
		h.Unfreeze(lh, true)
		return vid.Message{Op: m.Op}

	case KsSetState:
		lh, ok := h.LookupLH(vid.LHID(m.W[0]))
		if !ok {
			return vid.ErrMsg(vid.CodeNotFound)
		}
		st, err := DecodeLHState(m.Seg)
		if err != nil {
			return vid.ErrMsg(vid.CodeBadRequest)
		}
		ctx.Compute(params.KernelStateBaseCPU/2 + time.Duration(st.Items())*params.KernelStatePerItemCPU/2)
		if err := h.InstallKernelState(lh, st); err != nil {
			return vid.ErrMsg(vid.CodeRefused)
		}
		lh.lastWrite = h.Eng.Now()
		return vid.Message{Op: m.Op}

	case KsChangeLHID:
		lh, ok := h.LookupLH(vid.LHID(m.W[0]))
		if !ok {
			return vid.ErrMsg(vid.CodeNotFound)
		}
		if err := h.ChangeLHID(lh, vid.LHID(m.W[1])); err != nil {
			return vid.ErrMsg(vid.CodeRefused)
		}
		return vid.Message{Op: m.Op}

	case KsQueryProcess:
		pid := vid.PID(m.W[0])
		lh, ok := h.LookupLH(pid.LH())
		if !ok {
			return vid.ErrMsg(vid.CodeNotFound)
		}
		p, ok := lh.procs[pid.Index()]
		if !ok {
			return vid.ErrMsg(vid.CodeNoProcess)
		}
		state := uint32(0)
		if !p.started {
			state = 1
		}
		if p.dead {
			state = 2
		}
		return vid.Message{Op: m.Op, W: [6]uint32{state}, Seg: EncodeRegs(&p.regs)}

	case KsQueryLH:
		lh, ok := h.LookupLH(vid.LHID(m.W[0]))
		if !ok {
			return vid.ErrMsg(vid.CodeNotFound)
		}
		frozen := uint32(0)
		if lh.frozen {
			frozen = 1
		}
		return vid.Message{Op: m.Op, W: [6]uint32{
			uint32(len(lh.procs)), uint32(len(lh.spaces)), lh.memUsed, frozen,
		}}
	}
	return vid.ErrMsg(vid.CodeBadRequest)
}

// pageViews returns views of the pages of as, in the kernel server's
// scratch (valid until its next request), which has room for them.
func (h *Host) pageViews(as *mem.AddressSpace, pages []mem.PageNo) [][]byte {
	data := h.ks.Data[:len(pages)]
	for i, pn := range pages {
		data[i] = as.PageView(pn) // the encoder copies it at once
	}
	return data
}

// pageRunReply encodes a run for the reply the kernel server is about to
// send, in a buffer its port lends for it (ipc.Port.ReplyBuf): the reply
// hands the buffer back once nothing reads it.
func (h *Host) pageRunReply(ctx *ProcCtx, spaceID uint32, pages []mem.PageNo, data [][]byte) []byte {
	n := 8 + 4*len(pages)
	for _, d := range data {
		if !mem.IsZeroPage(d) { // a zero page goes without its body
			n += mem.PageSize
		}
	}
	seg := AppendPageRun(ctx.ReplyBuf(n), spaceID, pages, data)
	clear(data) // no view of a page outlives the request
	return seg
}

// EncodeCreateProc builds the KsCreateProcess segment.
func EncodeCreateProc(kind string, regs *Regs) []byte {
	seg := append([]byte(kind), 0)
	return append(seg, EncodeRegs(regs)...)
}

func decodeCreateProc(seg []byte) (string, Regs, error) {
	for i, b := range seg {
		if b == 0 {
			regs, err := DecodeRegs(seg[i+1:])
			return string(seg[:i]), regs, err
		}
	}
	return "", Regs{}, vid.CodeError(vid.CodeBadRequest)
}

// EncodeRegs serializes a register blob: the words in order.
func EncodeRegs(r *Regs) []byte {
	a := vid.Appender{B: make([]byte, 0, 4*len(r.W))}
	for _, w := range r.W {
		a.U32(w)
	}
	return a.B
}

// DecodeRegs parses a register blob.
func DecodeRegs(b []byte) (Regs, error) {
	var regs Regs
	r := vid.NewReader(b)
	for i := range regs.W {
		regs.W[i] = r.U32()
	}
	if r.Done() != nil {
		return Regs{}, vid.CodeError(vid.CodeBadRequest)
	}
	return regs, nil
}
