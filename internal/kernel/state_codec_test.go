package kernel

import (
	"testing"

	"vsystem/internal/ipc"
	"vsystem/internal/mem"
	"vsystem/internal/packet"
	"vsystem/internal/vid"
	"vsystem/internal/vid/wiretest"
)

var lhStateForm = wiretest.Form[LHState]{
	Encode: (*LHState).Encode,
	Decode: DecodeLHState,
}

// fetchReq is a fetch request as a value, for the shared wire-form checks.
type fetchReq struct {
	Space uint32
	Pages []mem.PageNo
}

var fetchReqForm = wiretest.Form[fetchReq]{
	Encode: func(f *fetchReq) []byte { return AppendFetchReq(nil, f.Space, f.Pages) },
	Decode: func(seg []byte) (*fetchReq, error) {
		space, pages, err := DecodeFetchReq(seg)
		return &fetchReq{space, pages}, err
	},
}

var regsForm = wiretest.Form[Regs]{
	Encode: EncodeRegs,
	Decode: func(b []byte) (*Regs, error) { r, err := DecodeRegs(b); return &r, err },
}

// populatedLHState is a two-space, two-process guest, one process blocked
// in a send with a request open and a reply cached.
func populatedLHState() *LHState {
	return &LHState{
		LHID: 0x0105, Name: "cc68", Guest: true, NextIdx: 18, NextSp: 2,
		Spaces: []SpaceDesc{{ID: 1, Size: 128 * 1024}, {ID: 2, Size: 64 * 1024}},
		Procs: []ProcState{
			{Index: 16, Prio: 3, SpaceID: 1, BodyKind: "vvm", Regs: Regs{W: [32]uint32{1, 2, 3}},
				Port: &ipc.PortState{
					PID: vid.NewPID(0x0105, 16), TxSeq: 12,
					Send:  &ipc.SendState{TxID: 12, Dst: vid.NewPID(0x0203, 17), Msg: vid.Message{Op: 5, Seg: []byte("line")}},
					Open:  []ipc.CurState{{Src: vid.NewPID(0x0303, 16), TxID: 4, Msg: vid.Message{Op: 9}}},
					Last:  []ipc.LastState{{Src: vid.NewPID(0x0303, 16), TxID: 4}, {Src: vid.NewPID(0x0403, 16), TxID: 8}},
					Cache: []ipc.CachedReplyState{{Src: vid.NewPID(0x0403, 16), TxID: 8, Msg: vid.Message{Code: vid.CodeOK, W: [6]uint32{7}}}},
				}},
			{Index: 17, Prio: 2, SpaceID: 2, BodyKind: "workload"},
		},
	}
}

func TestLHStateWireForm(t *testing.T) {
	st := populatedLHState()
	seg := lhStateForm.RoundTrip(t, st)
	spaces := 2 + 1 + 2 + 4 + 2 + len(st.Name)
	procs := spaces + 2 + 2*spaceDescLen
	lhStateForm.Malformed(t, seg,
		wiretest.Count{Off: spaces, N: 2}, wiretest.Count{Off: procs, N: 2})

	zero := lhStateForm.RoundTrip(t, &LHState{})
	lhStateForm.Malformed(t, zero)
}

func TestLHStateRefusesBadFlags(t *testing.T) {
	seg := (&LHState{LHID: 1, Name: "x"}).Encode()
	seg[2] = 2 // the guest flag
	if _, err := DecodeLHState(seg); err == nil {
		t.Fatal("guest flag 2 decoded")
	}
}

// fullFetch asks for a whole run's worth of scattered pages.
func fullFetch() []mem.PageNo {
	full := make([]mem.PageNo, MaxRunPages)
	for i := range full {
		full[i] = mem.PageNo(i * 7)
	}
	return full
}

func TestFetchReqWireForm(t *testing.T) {
	full := fullFetch()
	for _, f := range []fetchReq{{3, []mem.PageNo{0, 1, 2}}, {0, []mem.PageNo{511}}, {9, full}} {
		fetchReqForm.Malformed(t, fetchReqForm.RoundTrip(t, &f))
	}
	for name, seg := range map[string][]byte{
		"an empty list":       AppendFetchReq(nil, 1, nil),
		"a list over max":     AppendFetchReq(nil, 1, append(full, 1)),
		"a flagged page word": AppendFetchReq(nil, 1, []mem.PageNo{mem.PageNo(ZeroPageFlag | 5)}),
	} {
		if _, _, err := DecodeFetchReq(seg); err == nil {
			t.Errorf("%s: decoded", name)
		}
	}
}

func TestRegsWireForm(t *testing.T) {
	var r Regs
	for i := range r.W {
		r.W[i] = uint32(i * 0x01010101)
	}
	regsForm.Malformed(t, regsForm.RoundTrip(t, &r))
	regsForm.Malformed(t, regsForm.RoundTrip(t, &Regs{}))
}

// FuzzDecodeFetchReq hammers the receptacle's fetch-request parser with
// arbitrary segments: it must reject them or decode a bounded, in-range
// page list that re-encodes to the same segment.
func FuzzDecodeFetchReq(f *testing.F) {
	f.Add(AppendFetchReq(nil, 3, []mem.PageNo{0, 1, 2}))
	f.Add(AppendFetchReq(nil, 0, []mem.PageNo{511}))
	f.Add(AppendFetchReq(nil, 9, fullFetch()))
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0})                      // empty list
	f.Add([]byte{1, 0, 0, 0, 0xff, 0xff, 0xff, 0xff})          // absurd count
	f.Add([]byte{1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0x80})       // ZeroPageFlag set
	f.Add([]byte{1, 0, 0, 0, 2, 0, 0, 0, 5, 0, 0, 0})          // truncated list
	f.Add([]byte{1, 0, 0, 0, 1, 0, 0, 0, 5, 0, 0, 0, 6, 0, 0}) // trailing junk
	fetchReqForm.Fuzz(f)
}

func FuzzDecodeLHState(f *testing.F) {
	f.Add(populatedLHState().Encode())
	f.Add((&LHState{}).Encode())
	f.Add([]byte{})
	lhStateForm.Fuzz(f)
}

// TestWireSizesPinned: a segment's length is virtual wire time, so a layout
// change must show up as a diff here (and in DESIGN §10's table). The
// reference is a paper guest as migration finds it — one space, one
// process, a port with nothing in flight — which has to stay well inside
// one frame: it crosses inside the freeze window.
func TestWireSizesPinned(t *testing.T) {
	guest := &LHState{
		LHID: 0x0045, Name: "tex", Guest: true, NextIdx: 17, NextSp: 1,
		Spaces: []SpaceDesc{{ID: 1, Size: 708 * 1024}},
		Procs: []ProcState{{
			Index: 16, Prio: 3, SpaceID: 1, BodyKind: "workload", Regs: Regs{W: [32]uint32{2: 1}},
			Port: &ipc.PortState{PID: vid.NewPID(0x0045, 16), TxSeq: 3},
		}},
	}
	mixedPages, mixedData := runPages(4, 9, func(i int) bool { return i%3 == 0 })
	zeroPages, zeroData := runPages(0, MaxRunPages, func(int) bool { return true })
	for _, c := range []struct {
		form string
		got  int
		want int
	}{
		{"LHState, one-process paper guest", len(guest.Encode()), 187},
		{"LHState, two processes, one mid-send", len(populatedLHState().Encode()), 507},
		{"LHState, zero", len((&LHState{}).Encode()), 15},
		{"page run, 9 pages, 6 of them non-zero", len(AppendPageRun(nil, 7, mixedPages, mixedData)), 8 + 9*4 + 6*1024},
		{"page run, 30 all-zero pages", len(AppendPageRun(nil, 1, zeroPages, zeroData)), 8 + 30*4},
		{"fetch request, 3 pages", len(AppendFetchReq(nil, 3, []mem.PageNo{0, 1, 2})), 8 + 3*4},
		{"register blob", len(EncodeRegs(&Regs{})), 128},
	} {
		if c.got != c.want {
			t.Errorf("%s: %d bytes, pinned at %d", c.form, c.got, c.want)
		}
	}
	if n := len(guest.Encode()); n > packet.InlineSegMax/4 {
		t.Errorf("a one-process guest's state is %d bytes: not well under the %d-byte inline limit", n, packet.InlineSegMax)
	}
}
