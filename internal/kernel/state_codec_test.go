package kernel

import (
	"testing"

	"vsystem/internal/ipc"
	"vsystem/internal/packet"
	"vsystem/internal/vid"
	"vsystem/internal/vid/wiretest"
)

var lhStateForm = wiretest.Form[LHState]{
	Encode: (*LHState).Encode,
	Decode: DecodeLHState,
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
	for _, c := range []struct {
		form string
		got  int
		want int
	}{
		{"LHState, one-process paper guest", len(guest.Encode()), 187},
		{"LHState, two processes, one mid-send", len(populatedLHState().Encode()), 505},
		{"LHState, zero", len((&LHState{}).Encode()), 15},
	} {
		if c.got != c.want {
			t.Errorf("%s: %d bytes, pinned at %d", c.form, c.got, c.want)
		}
	}
	if n := len(guest.Encode()); n > packet.InlineSegMax/4 {
		t.Errorf("a one-process guest's state is %d bytes: not well under the %d-byte inline limit", n, packet.InlineSegMax)
	}
}
