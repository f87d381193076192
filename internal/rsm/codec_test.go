package rsm

import (
	"bytes"
	"reflect"
	"testing"

	"vsystem/internal/vid"
	"vsystem/internal/vid/wiretest"
)

// form adapts a replication codec, which passes values, to the shared
// wire-form checks (vid/wiretest): round trip, every truncation, a trailing
// byte, lying counts, and under fuzzing "whatever decodes re-encodes to the
// segment it came from". A malformed segment must decode to an error the
// replica maps to CodeBadRequest, never panic.
func form[T any](enc func(T) []byte, dec func([]byte) (T, error)) wiretest.Form[T] {
	return wiretest.Form[T]{
		Encode: func(v *T) []byte { return enc(*v) },
		Decode: func(b []byte) (*T, error) { v, err := dec(b); return &v, err },
	}
}

var (
	voteReqForm   = form(EncodeVoteReq, DecodeVoteReq)
	voteReplyForm = form(EncodeVoteReply, DecodeVoteReply)
	appendReqForm = form(EncodeAppendReq, DecodeAppendReq)
	snapChunkForm = form(EncodeSnapChunk, DecodeSnapChunk)
	// sortedMapForm is one map alone: here the bytes after it are malformed.
	sortedMapForm = form(func(m map[string][]byte) []byte { return AppendSortedMap(nil, m) },
		func(b []byte) (map[string][]byte, error) {
			m, rest, ok := DecodeSortedMap(b)
			if !ok || len(rest) > 0 {
				return nil, vid.ErrMalformed
			}
			return m, nil
		})
)

func sampleAppendReq() AppendReq {
	return AppendReq{Term: 2, Leader: 1, LeaderPID: 0x10001, SvcPID: 0x10009, PrevIndex: 4, PrevTerm: 2, Commit: 3,
		Entries: []Entry{{Term: 1, Cmd: []byte("a=1")}, {Term: 2, Cmd: []byte{}}, {Term: 2, Cmd: []byte("b=2")}}}
}

func sampleSnapChunk() SnapChunk {
	return SnapChunk{Term: 4, Leader: 1, LeaderPID: 0x10001, SvcPID: 0x10009, LastIndex: 64, LastTerm: 3,
		Offset: 5, Total: 16, Data: []byte("hello world")}
}

func TestVoteReqWireForm(t *testing.T) {
	for _, pre := range []bool{false, true} {
		v := VoteReq{Term: 3, Pre: pre, Cand: 1, CandPID: 0x10002, SvcPID: 0x10003, LastIndex: 7, LastTerm: 2}
		voteReqForm.Malformed(t, voteReqForm.RoundTrip(t, &v))
	}
	seg := EncodeVoteReq(VoteReq{})
	seg[24] = 2 // the pre-vote flag
	if _, err := DecodeVoteReq(seg); err == nil {
		t.Fatal("pre-vote flag 2 decoded")
	}
}

func TestVoteReplyWireForm(t *testing.T) {
	for _, granted := range []bool{false, true} {
		v := VoteReply{Term: 3, Granted: granted, Voter: 2, VoterPID: 0x20002, SvcPID: 0x20003}
		voteReplyForm.Malformed(t, voteReplyForm.RoundTrip(t, &v))
	}
	seg := EncodeVoteReply(VoteReply{})
	seg[4] = 2 // the granted flag
	if _, err := DecodeVoteReply(seg); err == nil {
		t.Fatal("granted flag 2 decoded")
	}
}

func TestAppendReqWireForm(t *testing.T) {
	a := sampleAppendReq()
	seg := appendReqForm.RoundTrip(t, &a)
	// The entry count and the first command's length are 32-bit words whose
	// high halves are zero here; 65535 is past both maxEntries and what is left.
	appendReqForm.Malformed(t, seg, wiretest.Count{Off: 28, N: 3}, wiretest.Count{Off: 36, N: 3})
	appendReqForm.Malformed(t, appendReqForm.RoundTrip(t, &AppendReq{Term: 1, Commit: 9}))

	for name, bad := range map[string]AppendReq{
		"more entries than maxEntries": {Entries: make([]Entry, maxEntries+1)},
		"a command past vid.SegMax":    {Entries: []Entry{{Cmd: make([]byte, vid.SegMax+1)}}},
	} {
		if _, err := DecodeAppendReq(EncodeAppendReq(bad)); err == nil {
			t.Errorf("%s: decoded", name)
		}
	}
}

func TestSnapChunkWireForm(t *testing.T) {
	c := sampleSnapChunk()
	seg := snapChunkForm.RoundTrip(t, &c)
	// The data runs to the end of the segment, so only a cut into the eight
	// header words is a truncation; this chunk ends at Total, so one byte
	// more overruns it.
	for n := 0; n < 8*4; n++ {
		if _, err := DecodeSnapChunk(seg[:n:n]); err == nil {
			t.Fatalf("decoded a chunk truncated to %d bytes", n)
		}
	}
	if _, err := DecodeSnapChunk(append(bytes.Clone(seg), 0)); err == nil {
		t.Fatal("decoded a chunk with a byte past its total")
	}
	snapChunkForm.RoundTrip(t, &SnapChunk{Term: 1, Data: []byte{}}) // an empty snapshot

	for name, bad := range map[string]SnapChunk{
		"total over maxSnapTotal": {Total: maxSnapTotal + 1},
		"offset past the total":   {Offset: 2, Total: 4, Data: []byte("abcd")},
	} {
		if _, err := DecodeSnapChunk(EncodeSnapChunk(bad)); err == nil {
			t.Errorf("%s: decoded", name)
		}
	}
}

func TestSortedMapWireForm(t *testing.T) {
	m := map[string][]byte{"b": []byte("two"), "a": nil}
	seg := sortedMapForm.RoundTrip(t, &m)
	sortedMapForm.Malformed(t, seg, wiretest.Count{Off: 0, N: 2})
	empty := map[string][]byte{}
	sortedMapForm.Malformed(t, sortedMapForm.RoundTrip(t, &empty))

	// Two maps back to back, as a snapshot carries them: the first hands
	// back the second.
	both := AppendSortedMap(bytes.Clone(seg), map[string][]byte{"c": []byte("3")})
	if got, rest, ok := DecodeSortedMap(both); !ok || !reflect.DeepEqual(got, m) || !bytes.Equal(rest, both[len(seg):]) {
		t.Fatalf("first of two maps: ok=%v %q, rest %x", ok, got, rest)
	}

	// One map has one form: keys that repeat or descend are not it.
	for name, keys := range map[string][2]string{"repeated": {"a", "a"}, "descending": {"b", "a"}} {
		var a vid.Appender
		a.U32(2)
		for _, k := range keys {
			a.U32(uint32(len(k)))
			a.B = append(a.B, k...)
			a.U32(0)
		}
		if got, rest, ok := DecodeSortedMap(a.B); ok || got != nil || rest != nil {
			t.Errorf("%s keys: ok=%v %q, rest %x", name, ok, got, rest)
		}
	}
}

// TestWireSizesPinned: a segment's length is virtual wire time, so a layout
// change must show up as a diff here (and in DESIGN §10's table).
func TestWireSizesPinned(t *testing.T) {
	snapshot := map[string][]byte{"b": []byte("two"), "a": nil}
	for _, c := range []struct {
		form      string
		got, want int
	}{
		{"VoteReq", len(EncodeVoteReq(VoteReq{})), 25},
		{"VoteReply", len(EncodeVoteReply(VoteReply{})), 17},
		{"AppendReq, heartbeat", len(EncodeAppendReq(AppendReq{})), 32},
		{"AppendReq, entries of 3, 0 and 3 bytes", len(EncodeAppendReq(sampleAppendReq())), 32 + 3*8 + 6},
		{"SnapChunk, 11 bytes of data", len(EncodeSnapChunk(sampleSnapChunk())), 32 + 11},
		{"sorted map {a: nil, b: two}", len(AppendSortedMap(nil, snapshot)), 4 + 2*8 + 5},
	} {
		if c.got != c.want {
			t.Errorf("%s: %d bytes, pinned at %d", c.form, c.got, c.want)
		}
	}
}

func FuzzDecodeVoteReq(f *testing.F) {
	f.Add(EncodeVoteReq(VoteReq{Term: 3, Cand: 1, CandPID: 0x10002,
		SvcPID: 0x10003, LastIndex: 7, LastTerm: 2}))
	f.Add(EncodeVoteReq(VoteReq{Term: 9, Pre: true, Cand: 2, LastIndex: 1}))
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0})                  // truncated
	f.Add(append(make([]byte, 24), 2))         // bad pre-vote flag
	f.Add(append(EncodeVoteReq(VoteReq{}), 0)) // trailing junk
	voteReqForm.Fuzz(f)
}

func FuzzDecodeVoteReply(f *testing.F) {
	f.Add(EncodeVoteReply(VoteReply{Term: 3, Granted: true, Voter: 2,
		VoterPID: 0x20002, SvcPID: 0x20003}))
	f.Add(EncodeVoteReply(VoteReply{Term: 1, Voter: 0}))
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0, 2}) // bad granted flag
	f.Add(append(EncodeVoteReply(VoteReply{}), 0))
	voteReplyForm.Fuzz(f)
}

func FuzzDecodeAppendReq(f *testing.F) {
	f.Add(EncodeAppendReq(AppendReq{Term: 2, Leader: 0, LeaderPID: 0x10001,
		SvcPID: 0x10009, PrevIndex: 4, PrevTerm: 2, Commit: 3}))
	f.Add(EncodeAppendReq(sampleAppendReq()))
	f.Add([]byte{})
	f.Add(make([]byte, 31))                                 // short header
	f.Add(append(make([]byte, 28), 0xff, 0xff, 0xff, 0xff)) // absurd count
	f.Add(append(make([]byte, 28), 1, 0, 0, 0))             // count 1, no entry
	hdr := append(make([]byte, 28), 1, 0, 0, 0)
	f.Add(append(hdr, 1, 0, 0, 0, 0xff, 0xff, 0, 0)) // entry len lies
	f.Add(append(EncodeAppendReq(AppendReq{}), 0))   // trailing junk
	appendReqForm.Fuzz(f)
}

func FuzzDecodeSnapChunk(f *testing.F) {
	f.Add(EncodeSnapChunk(sampleSnapChunk()))
	f.Add(EncodeSnapChunk(SnapChunk{Term: 1, Total: 0})) // empty snapshot
	f.Add([]byte{})
	f.Add(make([]byte, 31)) // short header
	f.Add(EncodeSnapChunk(SnapChunk{Offset: 2, Total: 4, Data: []byte("abcd")}))
	f.Add(EncodeSnapChunk(SnapChunk{Total: 0xffffffff}))
	snapChunkForm.Fuzz(f)
}

// Snapshots reach DecodeSortedMap over the wire in install chunks. A
// length word near 2^32 must not wrap a bounds sum and slice out of range,
// and an absurd count must not size an allocation.
func FuzzDecodeSortedMap(f *testing.F) {
	valid := AppendSortedMap(nil, map[string][]byte{"b": []byte("two"), "a": nil})
	f.Add(valid)
	f.Add(append(valid, AppendSortedMap(nil, nil)...)) // two maps back to back
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0, 0xfc, 0xff, 0xff, 0xff, 'x', 0, 0, 0, 0})    // key length wraps +4
	f.Add([]byte{1, 0, 0, 0, 1, 0, 0, 0, 'x', 0xff, 0xff, 0xff, 0xff, 0}) // value length wraps
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 0, 0, 0, 0})         // absurd count
	f.Add(valid[:len(valid)-1])                                           // truncated
	sortedMapForm.Fuzz(f)
}
