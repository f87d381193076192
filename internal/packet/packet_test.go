package packet

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"vsystem/internal/vid"
	"vsystem/internal/vid/wiretest"
)

var packetForm = wiretest.Form[Packet]{Encode: Marshal, Decode: Unmarshal}

// TestPacketWireForm: every kind round-trips, and a frame cut short,
// carrying a byte too many or declaring a length its bytes cannot hold
// does not decode.
func TestPacketWireForm(t *testing.T) {
	src, dst := vid.NewPID(1, 16), vid.NewPID(2, 1)
	const msgSeg = headerLen + 2 + 2 + 6*4 + 4 + 2 // the inline segment's length word
	for _, c := range []struct {
		p      Packet
		counts []wiretest.Count
	}{
		{Packet{Kind: KRequest, TxID: 42, Src: src, Dst: dst, Msg: vid.Message{Op: 7, W: [6]uint32{1, 2, 3, 4, 5, 6}, Seg: []byte("payload")}},
			[]wiretest.Count{{Off: msgSeg, N: 7}}},
		{Packet{Kind: KRequest, TxID: 43, Src: src, Dst: dst, SegLen: 5000, FragCount: 5}, nil},
		{Packet{Kind: KReply, TxID: 42, Src: dst, Dst: src, LH: 9, Msg: vid.Message{Code: vid.CodeRefused}}, nil},
		{Packet{Kind: KReply, TxID: 44, Src: dst, Dst: src, Msg: vid.Message{Seg: []byte("ok")}, HasAd: true, Ad: [6]uint32{1, 2, 3, 4, 5, 6}},
			[]wiretest.Count{{Off: msgSeg, N: 2}}},
		{Packet{Kind: KLoadAd, Src: src, HasAd: true, Ad: [6]uint32{7, 0, 3}}, nil},
		{Packet{Kind: KFrag, TxID: 3, Src: src, Dst: dst, OfKind: KReply, FragIdx: 4, FragCount: 9, Data: []byte("chunk")},
			[]wiretest.Count{{Off: headerLen + 1 + 2 + 2, N: 5}}},
		{Packet{Kind: KFragNack, TxID: 8, Src: src, Dst: dst, OfKind: KReply, Missing: []uint16{0, 3, 31}},
			[]wiretest.Count{{Off: headerLen + 1, N: 3}}},
		{Packet{Kind: KReplyPending, TxID: 9, Src: src, Dst: dst}, nil},
		{Packet{Kind: KBinding, LH: 5}, nil},
	} {
		packetForm.Malformed(t, packetForm.RoundTrip(t, &c.p), c.counts...)
	}
	seg := Marshal(&Packet{Kind: KReply})
	seg[len(seg)-1] = 2 // the load-ad flag
	if _, err := Unmarshal(seg); err == nil {
		t.Fatal("load-ad flag 2 decoded")
	}
}

func TestRoundTripRequest(t *testing.T) {
	p := &Packet{
		Kind: KRequest,
		TxID: 42,
		Src:  vid.NewPID(3, 17),
		Dst:  vid.NewPID(9, 1),
		Msg: vid.Message{
			Op:   7,
			Code: 0,
			W:    [6]uint32{1, 2, 3, 4, 5, 6},
			Seg:  []byte("payload"),
		},
	}
	got, err := Unmarshal(AppendMarshal(nil, p))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, p) {
		t.Fatalf("got %+v\nwant %+v", got, p)
	}
}

func TestRoundTripHeaderOnlyKinds(t *testing.T) {
	for _, k := range []Kind{KReplyPending, KNoProc, KLocateReq, KLocateResp, KBinding} {
		p := &Packet{Kind: k, TxID: 9, Src: vid.NewPID(1, 16), Dst: vid.NewPID(2, 16), LH: 5}
		got, err := Unmarshal(AppendMarshal(nil, p))
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if !reflect.DeepEqual(got, p) {
			t.Fatalf("%v: got %+v want %+v", k, got, p)
		}
	}
}

func TestRoundTripFrag(t *testing.T) {
	p := &Packet{
		Kind:      KFrag,
		TxID:      3,
		Src:       vid.NewPID(1, 16),
		Dst:       vid.NewPID(2, 1),
		OfKind:    KRequest,
		FragIdx:   4,
		FragCount: 9,
		Data:      bytes.Repeat([]byte{0xAB}, FragChunk),
	}
	got, err := Unmarshal(AppendMarshal(nil, p))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, p) {
		t.Fatal("frag round trip mismatch")
	}
}

func TestRoundTripFragNack(t *testing.T) {
	p := &Packet{
		Kind:    KFragNack,
		TxID:    8,
		Src:     vid.NewPID(1, 16),
		Dst:     vid.NewPID(2, 16),
		OfKind:  KReply,
		Missing: []uint16{0, 3, 31},
	}
	got, err := Unmarshal(AppendMarshal(nil, p))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, p) {
		t.Fatal("nack round trip mismatch")
	}
}

// TestWireSizesPinned: a frame's length is virtual wire time, so a layout
// change must show up as a diff here (and in DESIGN §10's table).
func TestWireSizesPinned(t *testing.T) {
	for _, c := range []struct {
		form string
		p    Packet
		want int
	}{
		{"header-only kinds", Packet{Kind: KReplyPending}, headerLen},
		{"request, empty segment", Packet{Kind: KRequest}, 51},
		{"reply, no load ad", Packet{Kind: KReply}, 52},
		{"reply with a load ad", Packet{Kind: KReply, HasAd: true}, 76},
		{"load beacon", Packet{Kind: KLoadAd}, 39},
		{"full fragment", Packet{Kind: KFrag, Data: make([]byte, FragChunk)}, 22 + FragChunk},
		{"NACK of 3 fragments", Packet{Kind: KFragNack, Missing: []uint16{0, 3, 31}}, 18 + 3*2},
	} {
		if got := len(Marshal(&c.p)); got != c.want {
			t.Errorf("%s: %d bytes, pinned at %d", c.form, got, c.want)
		}
	}
}

func TestUnmarshalErrors(t *testing.T) {
	if _, err := Unmarshal(nil); err == nil {
		t.Fatal("nil decode succeeded")
	}
	if _, err := Unmarshal([]byte{0xFF, 0, 0}); err != ErrBadKind {
		t.Fatalf("bad kind: %v", err)
	}
	good := AppendMarshal(nil, &Packet{Kind: KRequest, Msg: vid.Message{Seg: []byte("abcdef")}})
	for n := 1; n < len(good); n++ {
		if _, err := Unmarshal(good[:n]); err == nil {
			t.Fatalf("truncated decode at %d succeeded", n)
		}
	}
}

func TestNumFrags(t *testing.T) {
	cases := []struct{ n, want int }{
		{0, 0}, {1, 0}, {InlineSegMax, 0},
		{InlineSegMax + 1, 2}, {2048, 2}, {2049, 3}, {32768, 32},
	}
	for _, c := range cases {
		if got := NumFrags(c.n); got != c.want {
			t.Errorf("NumFrags(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestFragOfReassembles(t *testing.T) {
	seg := make([]byte, 5000)
	rand.New(rand.NewSource(1)).Read(seg)
	n := NumFrags(len(seg))
	var out []byte
	for i := 0; i < n; i++ {
		out = append(out, FragOf(seg, i)...)
	}
	if !bytes.Equal(out, seg) {
		t.Fatal("fragments do not reassemble")
	}
}

// Property: marshal→unmarshal is the identity for randomly generated
// request/reply packets.
func TestQuickRoundTrip(t *testing.T) {
	f := func(txid uint32, src, dst uint32, op, code uint16, w [6]uint32, seg []byte, isReply bool) bool {
		if len(seg) > InlineSegMax {
			seg = seg[:InlineSegMax]
		}
		if len(seg) == 0 {
			seg = nil
		}
		k := KRequest
		if isReply {
			k = KReply
		}
		p := &Packet{
			Kind: k, TxID: txid,
			Src: vid.PID(src), Dst: vid.PID(dst),
			Msg: vid.Message{Op: op, Code: code, W: w, Seg: seg},
		}
		got, err := Unmarshal(AppendMarshal(nil, p))
		return err == nil && reflect.DeepEqual(got, p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: random garbage either fails to decode or decodes without
// panicking; never both panics.
func TestQuickFuzzNoPanic(t *testing.T) {
	f := func(b []byte) bool {
		defer func() {
			if recover() != nil {
				t.Error("Unmarshal panicked")
			}
		}()
		Unmarshal(b)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestUnmarshalAliasing is the buffer-ownership contract of the package
// comment: a fragment's Data and an inline segment are the input's bytes,
// clipped to their length.
func TestUnmarshalAliasing(t *testing.T) {
	frag := AppendMarshal(nil, &Packet{
		Kind: KFrag, TxID: 3, Src: vid.NewPID(1, 16), Dst: vid.NewPID(2, 1),
		OfKind: KRequest, FragIdx: 1, FragCount: 2, Data: bytes.Repeat([]byte{0xAB}, FragChunk),
	})
	p, err := Unmarshal(frag)
	if err != nil {
		t.Fatal(err)
	}
	for i := range frag {
		frag[i] = 0xCD
	}
	if !bytes.Equal(p.Data, bytes.Repeat([]byte{0xCD}, FragChunk)) {
		t.Fatal("KFrag Data did not follow the input: it is a copy, not an alias")
	}
	if cap(p.Data) != len(p.Data) {
		t.Fatalf("KFrag Data has cap %d beyond its len %d: an append would write into the frame", cap(p.Data), len(p.Data))
	}

	req := AppendMarshal(nil, &Packet{
		Kind: KRequest, TxID: 4, Src: vid.NewPID(1, 16), Dst: vid.NewPID(2, 1),
		Msg: vid.Message{Op: 9, Seg: bytes.Repeat([]byte{0x11}, 300)},
	})
	p, err = Unmarshal(req)
	if err != nil {
		t.Fatal(err)
	}
	for i := range req {
		req[i] = 0xCD
	}
	if !bytes.Equal(p.Msg.Seg, bytes.Repeat([]byte{0xCD}, 300)) {
		t.Fatal("inline Msg.Seg did not follow the input: it is a copy, not an alias")
	}
	if cap(p.Msg.Seg) != len(p.Msg.Seg) {
		t.Fatalf("inline Msg.Seg has cap %d beyond its len %d: an append would write into the frame", cap(p.Msg.Seg), len(p.Msg.Seg))
	}
}

// TestUnmarshalIntoOverwrites: decoding into a used Packet leaves nothing
// of the previous one behind.
func TestUnmarshalIntoOverwrites(t *testing.T) {
	var p Packet
	first := &Packet{Kind: KReply, TxID: 1, Src: vid.NewPID(1, 16), Dst: vid.NewPID(2, 1),
		Msg: vid.Message{Op: 5, W: [6]uint32{1, 2, 3, 4, 5, 6}, Seg: []byte("seg")}, HasAd: true, Ad: [6]uint32{9, 9, 9, 9, 9, 9}}
	if err := UnmarshalInto(&p, AppendMarshal(nil, first)); err != nil {
		t.Fatal(err)
	}
	second := &Packet{Kind: KLocateReq, LH: 7}
	if err := UnmarshalInto(&p, AppendMarshal(nil, second)); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&p, second) {
		t.Fatalf("got %+v, want %+v", p, *second)
	}
}

// TestUnmarshalFragAllocation: decoding a full fragment allocates the
// Packet and nothing else.
func TestUnmarshalFragAllocation(t *testing.T) {
	frag := AppendMarshal(nil, &Packet{
		Kind: KFrag, TxID: 3, Src: vid.NewPID(1, 16), Dst: vid.NewPID(2, 1),
		OfKind: KRequest, FragIdx: 1, FragCount: 2, Data: make([]byte, FragChunk),
	})
	var p *Packet
	if n := testing.AllocsPerRun(100, func() { p, _ = Unmarshal(frag) }); n != 1 {
		t.Fatalf("Unmarshal of a 1 KB KFrag: %v allocations, want 1", n)
	}
	var q Packet
	if n := testing.AllocsPerRun(100, func() { _ = UnmarshalInto(&q, frag) }); n != 0 {
		t.Fatalf("UnmarshalInto of a 1 KB KFrag: %v allocations, want 0", n)
	}
	if len(p.Data) != FragChunk || len(q.Data) != FragChunk {
		t.Fatal("short decode")
	}
}

// TestAppendMarshalInPlace: the encoding lands behind whatever dst already
// holds, in dst's own array when it has the room — a full fragment into a
// frame buffer allocates nothing — and Marshal is the same bytes in a new
// buffer.
func TestAppendMarshalInPlace(t *testing.T) {
	p := &Packet{
		Kind: KFrag, TxID: 3, Src: vid.NewPID(1, 16), Dst: vid.NewPID(2, 1),
		OfKind: KRequest, FragIdx: 1, FragCount: 2, Data: bytes.Repeat([]byte{7}, FragChunk),
	}
	want := Marshal(p)
	buf := make([]byte, 0, 1500)
	var out []byte
	if n := testing.AllocsPerRun(100, func() { out = AppendMarshal(buf, p) }); n != 0 {
		t.Fatalf("AppendMarshal into a frame-sized buffer: %v allocations, want 0", n)
	}
	if !bytes.Equal(out, want) || &out[0] != &buf[:1][0] {
		t.Fatal("AppendMarshal into a buffer with room: other bytes, or another array")
	}
	if out = AppendMarshal([]byte("head"), p); string(out[:4]) != "head" || !bytes.Equal(out[4:], want) {
		t.Fatal("AppendMarshal behind a prefix: prefix or encoding damaged")
	}
}
