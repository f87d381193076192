package ipc

import (
	"bytes"
	"testing"
	"time"

	"vsystem/internal/sim"
	"vsystem/internal/vid"
	"vsystem/internal/vid/wiretest"
)

var portStateForm = wiretest.Form[PortState]{
	Encode: func(st *PortState) []byte {
		var a vid.Appender
		st.AppendTo(&a)
		return a.B
	},
	Decode: func(b []byte) (*PortState, error) {
		r := vid.NewReader(b)
		st := ReadPortState(&r)
		if err := r.Done(); err != nil {
			return nil, err
		}
		return st, nil
	},
}

func populatedPortState() *PortState {
	msg := func(op uint16, seg string) vid.Message {
		m := vid.Message{Op: op, W: [6]uint32{uint32(op), 2, 3}}
		if seg != "" {
			m.Seg = []byte(seg)
		}
		return m
	}
	return &PortState{
		PID:   vid.NewPID(0x0105, 16),
		TxSeq: 41,
		Send: &SendState{
			TxID: 41, Dst: vid.NewPID(0x0203, 17), Msg: msg(7, "request"), Group: true,
			Done: true, Code: vid.CodeTimeout, Reply: msg(7, ""),
		},
		Open: []CurState{
			{Src: vid.NewPID(0x0203, 16), TxID: 9, Msg: msg(3, "open")},
			{Src: vid.NewPID(0x0303, 16), TxID: 1, Msg: msg(4, "")},
		},
		Last: []LastState{
			{Src: vid.NewPID(0x0203, 16), TxID: 9},
			{Src: vid.NewPID(0x0303, 16), TxID: 1, Dropped: true},
			{Src: vid.NewPID(0x0403, 16), TxID: 77},
		},
		Cache: []CachedReplyState{
			{Src: vid.NewPID(0x0403, 16), TxID: 77, Msg: msg(5, "cached reply")},
		},
	}
}

func TestPortStateWireForm(t *testing.T) {
	seg := portStateForm.RoundTrip(t, populatedPortState())
	// Offsets of the three list counts: after the fixed words, the send
	// flag and the send transaction come Open, then Last, then Cache.
	send := 8 + 1 + 4 + 4 + 1 + 1 + 2 + (vid.MessageLen + len("request")) + vid.MessageLen
	open := send + 2 + (8 + vid.MessageLen + len("open")) + (8 + vid.MessageLen)
	last := open + 2 + 3*9
	portStateForm.Malformed(t, seg,
		wiretest.Count{Off: send, N: 2}, wiretest.Count{Off: open, N: 3}, wiretest.Count{Off: last, N: 1})

	zero := portStateForm.RoundTrip(t, &PortState{})
	portStateForm.Malformed(t, zero)
}

// Equal states have one encoding: a list out of key order, or with a key
// twice, is refused.
func TestPortStateRefusesUnsortedLists(t *testing.T) {
	for name, mangle := range map[string]func(*PortState){
		"open swapped":  func(st *PortState) { st.Open[0], st.Open[1] = st.Open[1], st.Open[0] },
		"last swapped":  func(st *PortState) { st.Last[1], st.Last[2] = st.Last[2], st.Last[1] },
		"last repeated": func(st *PortState) { st.Last[1].Src = st.Last[0].Src },
		"cache repeated": func(st *PortState) {
			st.Cache = append(st.Cache, st.Cache[0])
		},
	} {
		st := populatedPortState()
		mangle(st)
		if _, err := portStateForm.Decode(portStateForm.Encode(st)); err == nil {
			t.Errorf("%s: decoded", name)
		}
	}
}

// TestFrozenPortEncodesToEqualBytes is the map-order regression: the
// duplicate table and the reply cache are Go maps inside the port, and a
// snapshot used to carry them as maps, so the same frozen port could put
// different bytes on the wire from one run to the next (and its new host
// armed the cache sweeps in whatever order the map yielded). A server that
// has answered four clients snapshots and encodes to the same bytes fifty
// times over, its lists in key order; restored elsewhere, it snapshots to
// those bytes again.
func TestFrozenPortEncodesToEqualBytes(t *testing.T) {
	r := newRig(t, 3, 21)
	t.Cleanup(r.sim.Shutdown)
	lhC, lhS := vid.LHID(10), vid.LHID(20)
	r.place(lhC, 0)
	r.place(lhS, 1)
	server := r.hosts[1].eng.NewPort(vid.NewPID(lhS, 16))
	echoServer(r.sim, server)
	const clients = 4
	for i := 0; i < clients; i++ {
		p := r.hosts[0].eng.NewPort(vid.NewPID(lhC, uint16(20-i))) // descending: not insertion order
		r.sim.Spawn("client", func(tk *sim.Task) {
			if _, err := p.Send(tk, server.PID(), vid.Message{Op: testOp, W: [6]uint32{uint32(i)}}); err != nil {
				t.Errorf("client %d: %v", i, err)
			}
		})
	}
	r.sim.RunFor(time.Second)

	r.hosts[1].frozen[lhS] = true
	first := server.Snapshot()
	if len(first.Cache) != clients || len(first.Last) != clients {
		t.Fatalf("snapshot has %d cache and %d duplicate-table entries, want %d each",
			len(first.Cache), len(first.Last), clients)
	}
	for i := 1; i < clients; i++ {
		if first.Cache[i-1].Src >= first.Cache[i].Src || first.Last[i-1].Src >= first.Last[i].Src {
			t.Fatalf("snapshot lists not in key order: %+v %+v", first.Last, first.Cache)
		}
	}
	want := portStateForm.Encode(first)
	for i := 0; i < 50; i++ {
		if got := portStateForm.Encode(server.Snapshot()); !bytes.Equal(got, want) {
			t.Fatalf("encoding %d differs:\n got %x\nwant %x", i, got, want)
		}
	}

	server.Close()
	r.hosts[1].resident[lhS], r.hosts[1].frozen[lhS] = false, false
	r.hosts[2].resident[lhS] = true
	moved := r.hosts[2].eng.RestorePort(first, false)
	if got := portStateForm.Encode(moved.Snapshot()); !bytes.Equal(got, want) {
		t.Fatalf("restored port encodes differently:\n got %x\nwant %x", got, want)
	}
}
