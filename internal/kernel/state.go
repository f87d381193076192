package kernel

import (
	"fmt"
	"slices"

	"vsystem/internal/ipc"
	"vsystem/internal/mem"
	"vsystem/internal/vid"
)

// SpaceDesc describes one address space for migration.
type SpaceDesc struct {
	ID   uint32
	Size uint32
}

// ProcState is one process's kernel state: everything migration must move
// besides the address-space contents (§3.1.3 "copying its state in the
// kernel server and program manager").
type ProcState struct {
	Index    uint16
	Prio     int
	SpaceID  uint32
	BodyKind string
	Regs     Regs
	Port     *ipc.PortState
}

// LHState is a logical host's complete kernel state.
type LHState struct {
	LHID    vid.LHID // the identity the new copy will assume
	Name    string
	Guest   bool
	Spaces  []SpaceDesc
	Procs   []ProcState
	NextIdx uint16
	NextSp  uint32
}

// Items counts the processes and address spaces, the unit of the paper's
// "9 milliseconds for each process and address space" cost.
func (st *LHState) Items() int { return len(st.Procs) + len(st.Spaces) }

// Wire form of an LHState — the segment of KsSetState, crossing inside the
// §3.1.3 freeze window (DESIGN §10): LHID, a guest flag byte, NextIdx,
// NextSp, the name; the counted space descriptors (id, size); the counted
// processes, each index, priority byte, space id, body kind, the 32
// register words, a flag byte and the port state if it has one.
const (
	spaceDescLen = 8
	procStateMin = 2 + 1 + 4 + 2 + 4*len(Regs{}.W) + 1
)

// Encode serializes the state for transfer.
func (st *LHState) Encode() []byte {
	var a vid.Appender
	a.U16(uint16(st.LHID))
	a.Bool(st.Guest)
	a.U16(st.NextIdx)
	a.U32(st.NextSp)
	a.String(st.Name)
	a.Count(len(st.Spaces))
	for _, sd := range st.Spaces {
		a.U32(sd.ID)
		a.U32(sd.Size)
	}
	a.Count(len(st.Procs))
	for i := range st.Procs {
		ps := &st.Procs[i]
		if ps.Prio < 0 || ps.Prio > 255 {
			panic(fmt.Sprintf("kernel: LHState encode: priority %d", ps.Prio))
		}
		a.U16(ps.Index)
		a.U8(uint8(ps.Prio))
		a.U32(ps.SpaceID)
		a.String(ps.BodyKind)
		for _, w := range ps.Regs.W {
			a.U32(w)
		}
		a.Bool(ps.Port != nil)
		if ps.Port != nil {
			ps.Port.AppendTo(&a)
		}
	}
	return a.B
}

// DecodeLHState parses an encoded LHState.
func DecodeLHState(b []byte) (*LHState, error) {
	r := vid.NewReader(b)
	st := &LHState{LHID: vid.LHID(r.U16()), Guest: r.Bool(), NextIdx: r.U16(), NextSp: r.U32(), Name: r.String()}
	for i, n := 0, r.Count(spaceDescLen); i < n; i++ {
		st.Spaces = append(st.Spaces, SpaceDesc{ID: r.U32(), Size: r.U32()})
	}
	for i, n := 0, r.Count(procStateMin); i < n && r.Err() == nil; i++ {
		ps := ProcState{Index: r.U16(), Prio: int(r.U8()), SpaceID: r.U32(), BodyKind: r.String()}
		for j := range ps.Regs.W {
			ps.Regs.W[j] = r.U32()
		}
		if r.Bool() {
			ps.Port = ipc.ReadPortState(&r)
		}
		st.Procs = append(st.Procs, ps)
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("kernel: LHState decode: %w", err)
	}
	return st, nil
}

// SnapshotKernelState captures a frozen logical host's kernel state. The
// snapshot carries the logical host's current identity; migration installs
// it on the new host and relabels the placeholder logical host with it.
func (h *Host) SnapshotKernelState(lh *LogicalHost) *LHState {
	st := &LHState{
		LHID:    lh.id,
		Name:    lh.name,
		Guest:   lh.guest,
		NextIdx: lh.nextIdx,
		NextSp:  lh.nextSp,
	}
	for _, as := range lh.Spaces() {
		st.Spaces = append(st.Spaces, SpaceDesc{ID: as.ID, Size: as.Size()})
	}
	for _, p := range lh.Procs() {
		ps := ProcState{
			Index:    p.Index,
			Prio:     p.prio,
			SpaceID:  p.spaceID,
			BodyKind: p.bodyKind,
			Regs:     p.regs,
		}
		if p.port != nil {
			ps.Port = p.port.Snapshot()
		}
		st.Procs = append(st.Procs, ps)
	}
	return st
}

// InstallSpace creates (or verifies) an address space with a fixed id, as
// described by a migration descriptor.
func (lh *LogicalHost) InstallSpace(id, size uint32) (*mem.AddressSpace, error) {
	if as, ok := lh.spaces[id]; ok {
		if as.Size() != size {
			return nil, vid.CodeError(vid.CodeRefused)
		}
		return as, nil
	}
	if size%mem.PageSize != 0 {
		size += mem.PageSize - size%mem.PageSize
	}
	if !lh.system && size > lh.host.memFree {
		return nil, vid.CodeError(vid.CodeNoMemory)
	}
	as := mem.NewAddressSpaceOn(lh.host.frames, id, size)
	lh.spaces[id] = as
	if id > lh.nextSp {
		lh.nextSp = id
	}
	if !lh.system {
		lh.host.memFree -= size
		lh.memUsed += size
	}
	return as, nil
}

// InstallKernelState restores processes (and any missing spaces) into a
// placeholder logical host on the new physical host. The logical host must
// be frozen; ports are restored quiesced with the *final* PIDs (the
// snapshot's logical-host id) and start acting only at unfreeze. The
// name/guest attributes are also assumed.
func (h *Host) InstallKernelState(lh *LogicalHost, st *LHState) error {
	if !lh.frozen {
		return vid.CodeError(vid.CodeRefused)
	}
	lh.name = st.Name
	lh.guest = st.Guest
	for _, sd := range st.Spaces {
		if _, err := lh.InstallSpace(sd.ID, sd.Size); err != nil {
			return err
		}
	}
	for _, ps := range st.Procs {
		p := lh.restoreProcess(ps)
		if ps.Port != nil {
			p.port = h.IPC.RestorePort(ps.Port, false)
		}
	}
	if st.NextIdx > lh.nextIdx {
		lh.nextIdx = st.NextIdx
	}
	if st.NextSp > lh.nextSp {
		lh.nextSp = st.NextSp
	}
	return nil
}

// --------------------------------------------------------- page runs

// MaxRunPages bounds pages per WritePages/ReadPages run so an encoded run
// fits the 32 KB segment limit (with room for a page-out run's key prefix).
const MaxRunPages = 30

// ZeroPageFlag marks a page-number word whose page is all zero: the body
// is elided from the run and the destination reinstalls the shared zero
// page. Page numbers are small (a space is at most a few MB) so bit 31 is
// free in the wire format.
const ZeroPageFlag = uint32(1) << 31

// AppendPageRun appends to dst the encoding of a run of at most MaxRunPages
// pages of one address space, for a bulk write, and returns the extended
// buffer. Bodies are copied out of data here and now, so data may be live
// page views. All-zero pages travel as just their flagged 4-byte header
// word, and dst grows — at most once — by what is written: no room is
// reserved for an elided body.
func AppendPageRun(dst []byte, spaceID uint32, pages []mem.PageNo, data [][]byte) []byte {
	if len(pages) != len(data) {
		panic("kernel: page/data mismatch")
	}
	if len(pages) > MaxRunPages {
		panic("kernel: page run longer than MaxRunPages")
	}
	var zero uint32 // bit i: page i is all zero
	bodies := 0
	for i, d := range data {
		if len(d) != mem.PageSize {
			panic("kernel: short page in run")
		}
		if mem.IsZeroPage(d) {
			zero |= 1 << i
		} else {
			bodies++
		}
	}
	a := vid.Appender{B: slices.Grow(dst, 8+4*len(pages)+bodies*mem.PageSize)}
	a.U32(spaceID)
	a.U32(uint32(len(pages)))
	for i, pn := range pages {
		w := uint32(pn)
		if zero&(1<<i) != 0 {
			w |= ZeroPageFlag
		}
		a.U32(w)
	}
	for i, d := range data {
		if zero&(1<<i) == 0 {
			a.B = append(a.B, d...)
		}
	}
	return a.B
}

// DecodePageRun unpacks a page run: the space id, the page count, the page
// words, then a body for each page whose word is unflagged. Elided
// (all-zero) pages decode to the shared zero page; both consumers of the
// data copy before storing. A body is taken as it comes — an unflagged
// all-zero body is a valid page, not a malformation.
func DecodePageRun(seg []byte) (spaceID uint32, pages []mem.PageNo, data [][]byte, err error) {
	var run PageRun
	if err := run.Decode(seg); err != nil {
		return 0, nil, nil, err
	}
	return run.Space, run.Pages, run.Data, nil
}

// PageRun is a decoded page run (DecodePageRun) whose arrays a decoder that
// runs again and again reuses: each Decode overwrites the last one's.
type PageRun struct {
	Space uint32
	Pages []mem.PageNo
	Data  [][]byte // slices of the segment, or the shared zero page
}

// room gives the run's arrays room for MaxRunPages pages.
func (run *PageRun) room() {
	if cap(run.Pages) < MaxRunPages || cap(run.Data) < MaxRunPages {
		run.Pages, run.Data = make([]mem.PageNo, 0, MaxRunPages), make([][]byte, 0, MaxRunPages)
	}
}

// Decode unpacks seg into the run, as DecodePageRun does.
func (run *PageRun) Decode(seg []byte) error {
	r := vid.NewReader(seg)
	run.Space = r.U32()
	n := r.U32()
	if n > MaxRunPages {
		r.Fail(vid.ErrMalformed)
		n = 0
	}
	run.room()
	run.Pages, run.Data = run.Pages[:n], run.Data[:n]
	for i := range run.Pages {
		run.Pages[i] = mem.PageNo(r.U32())
	}
	for i, pn := range run.Pages {
		if uint32(pn)&ZeroPageFlag != 0 {
			run.Pages[i], run.Data[i] = pn&^mem.PageNo(ZeroPageFlag), mem.ZeroPage()
		} else {
			run.Data[i] = r.Take(mem.PageSize)
		}
	}
	if err := r.Done(); err != nil {
		clear(run.Data) // nothing of a malformed segment stays reachable
		run.Space, run.Pages, run.Data = 0, run.Pages[:0], run.Data[:0]
		return fmt.Errorf("kernel: page run: %w", err)
	}
	return nil
}

// ----------------------------------------------------- fetch requests

// AppendFetchReq appends a KsFetchPage request to dst: one space id plus
// an explicit page list. Unlike KsReadPages' (first, count) range, the
// list is scattered — by the time the destination faults, the hot pages in
// a range have usually arrived through pre-copy or push-out and only the
// gaps need fetching. The reply is a page run, so the list is bounded by
// MaxRunPages.
func AppendFetchReq(dst []byte, spaceID uint32, pages []mem.PageNo) []byte {
	a := vid.Appender{B: dst}
	a.U32(spaceID)
	a.U32(uint32(len(pages)))
	for _, pn := range pages {
		a.U32(uint32(pn))
	}
	return a.B
}

// DecodeFetchReq unpacks a fetch request. Page-number words must fit the
// real page-number space (no ZeroPageFlag bit: elision is a reply-side
// concept) and the list must be non-empty and reply-sized.
func DecodeFetchReq(seg []byte) (spaceID uint32, pages []mem.PageNo, err error) {
	return decodeFetchReq(seg, nil)
}

// decodeFetchReq is DecodeFetchReq into buf's array if it has room.
func decodeFetchReq(seg []byte, buf []mem.PageNo) (spaceID uint32, pages []mem.PageNo, err error) {
	r := vid.NewReader(seg)
	spaceID = r.U32()
	if n := r.U32(); n >= 1 && n <= MaxRunPages {
		pages = slices.Grow(buf[:0], int(n))[:n]
	} else {
		r.Fail(vid.ErrMalformed)
	}
	for i := range pages {
		if w := r.U32(); w&ZeroPageFlag == 0 {
			pages[i] = mem.PageNo(w)
		} else {
			r.Fail(vid.ErrMalformed)
		}
	}
	if err := r.Done(); err != nil {
		return 0, nil, fmt.Errorf("kernel: fetch request: %w", err)
	}
	return spaceID, pages, nil
}
