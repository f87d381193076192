package rsm

import (
	"testing"

	"vsystem/internal/vid"
)

// The four replication codecs share the same contract as the kernel's
// fetch-request parser: arbitrary segments must either decode to a bounded,
// well-formed value or reject with an error the server maps to
// CodeBadRequest — never panic. Valid decodes must re-encode byte-identically
// (the formats carry no redundancy), so a lying length field cannot smuggle
// bytes past the bounds checks.

func FuzzDecodeVoteReq(f *testing.F) {
	f.Add(EncodeVoteReq(VoteReq{Term: 3, Cand: 1, CandPID: 0x10002,
		SvcPID: 0x10003, LastIndex: 7, LastTerm: 2}))
	f.Add(EncodeVoteReq(VoteReq{Term: 9, Pre: true, Cand: 2, LastIndex: 1}))
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0})                  // truncated
	f.Add(append(make([]byte, 24), 2))         // bad pre-vote flag
	f.Add(append(EncodeVoteReq(VoteReq{}), 0)) // trailing junk
	f.Fuzz(func(t *testing.T, seg []byte) {
		v, err := DecodeVoteReq(seg)
		if err != nil {
			return
		}
		if reseg := EncodeVoteReq(v); string(reseg) != string(seg) {
			t.Fatalf("round trip changed encoding:\n got %x\nwant %x", reseg, seg)
		}
	})
}

func FuzzDecodeVoteReply(f *testing.F) {
	f.Add(EncodeVoteReply(VoteReply{Term: 3, Granted: true, Voter: 2,
		VoterPID: 0x20002, SvcPID: 0x20003}))
	f.Add(EncodeVoteReply(VoteReply{Term: 1, Voter: 0}))
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0, 2}) // bad granted flag
	f.Add(append(EncodeVoteReply(VoteReply{}), 0))
	f.Fuzz(func(t *testing.T, seg []byte) {
		v, err := DecodeVoteReply(seg)
		if err != nil {
			return
		}
		if reseg := EncodeVoteReply(v); string(reseg) != string(seg) {
			t.Fatalf("round trip changed encoding:\n got %x\nwant %x", reseg, seg)
		}
	})
}

func FuzzDecodeAppendReq(f *testing.F) {
	f.Add(EncodeAppendReq(AppendReq{Term: 2, Leader: 0, LeaderPID: 0x10001,
		SvcPID: 0x10009, PrevIndex: 4, PrevTerm: 2, Commit: 3}))
	f.Add(EncodeAppendReq(AppendReq{Term: 2, Entries: []Entry{
		{Term: 1, Cmd: []byte("a=1")},
		{Term: 2, Cmd: nil}, // barrier
		{Term: 2, Cmd: []byte("b=2")},
	}}))
	f.Add([]byte{})
	f.Add(make([]byte, 31))                                 // short header
	f.Add(append(make([]byte, 28), 0xff, 0xff, 0xff, 0xff)) // absurd count
	f.Add(append(make([]byte, 28), 1, 0, 0, 0))             // count 1, no entry
	hdr := append(make([]byte, 28), 1, 0, 0, 0)
	f.Add(append(hdr, 1, 0, 0, 0, 0xff, 0xff, 0, 0)) // entry len lies
	f.Add(append(EncodeAppendReq(AppendReq{}), 0))   // trailing junk
	f.Fuzz(func(t *testing.T, seg []byte) {
		a, err := DecodeAppendReq(seg)
		if err != nil {
			return
		}
		if len(a.Entries) > maxEntries {
			t.Fatalf("decoded %d entries, cap %d", len(a.Entries), maxEntries)
		}
		for _, e := range a.Entries {
			if len(e.Cmd) > vid.SegMax {
				t.Fatalf("entry cmd %d bytes exceeds SegMax", len(e.Cmd))
			}
		}
		if reseg := EncodeAppendReq(a); string(reseg) != string(seg) {
			t.Fatalf("round trip changed encoding:\n got %x\nwant %x", reseg, seg)
		}
	})
}

func FuzzDecodeSnapChunk(f *testing.F) {
	f.Add(EncodeSnapChunk(SnapChunk{Term: 4, Leader: 1, LeaderPID: 0x10001,
		SvcPID: 0x10009, LastIndex: 64, LastTerm: 3, Offset: 0, Total: 11,
		Data: []byte("hello world")}))
	f.Add(EncodeSnapChunk(SnapChunk{Term: 1, Total: 0})) // empty snapshot
	f.Add([]byte{})
	f.Add(make([]byte, 31)) // short header
	bad := EncodeSnapChunk(SnapChunk{Total: 4, Data: []byte("abcd")})
	bad[24] = 2 // offset 2 + 4 data bytes > total 4
	f.Add(bad)
	over := make([]byte, snapHdrLen)
	over[28], over[29], over[30], over[31] = 0xff, 0xff, 0xff, 0xff // total > cap
	f.Add(over)
	f.Fuzz(func(t *testing.T, seg []byte) {
		c, err := DecodeSnapChunk(seg)
		if err != nil {
			return
		}
		if c.Total > maxSnapTotal {
			t.Fatalf("decoded total %d exceeds cap", c.Total)
		}
		if uint64(c.Offset)+uint64(len(c.Data)) > uint64(c.Total) {
			t.Fatalf("chunk [%d, %d+%d) overruns total %d",
				c.Offset, c.Offset, len(c.Data), c.Total)
		}
		if reseg := EncodeSnapChunk(c); string(reseg) != string(seg) {
			t.Fatalf("round trip changed encoding:\n got %x\nwant %x", reseg, seg)
		}
	})
}

// Snapshots reach DecodeSortedMap over the wire in install chunks. A
// length word near 2^32 must not wrap a bounds sum and slice out of range,
// an absurd count must not size an allocation, and a reject must hand back
// nothing.
func FuzzDecodeSortedMap(f *testing.F) {
	valid := AppendSortedMap(nil, map[string][]byte{"b": []byte("two"), "a": nil})
	f.Add(valid)
	f.Add(append(valid, AppendSortedMap(nil, nil)...)) // two maps back to back
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0, 0xfc, 0xff, 0xff, 0xff, 'x', 0, 0, 0, 0})    // key length wraps +4
	f.Add([]byte{1, 0, 0, 0, 1, 0, 0, 0, 'x', 0xff, 0xff, 0xff, 0xff, 0}) // value length wraps
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 0, 0, 0, 0})         // absurd count
	f.Add(valid[:len(valid)-1])                                           // truncated
	f.Fuzz(func(t *testing.T, b []byte) {
		m, rest, ok := DecodeSortedMap(b)
		if !ok {
			if m != nil || rest != nil {
				t.Fatalf("reject returned data: %v %x", m, rest)
			}
			return
		}
		if len(rest) > len(b) || string(b[len(b)-len(rest):]) != string(rest) {
			t.Fatalf("rest %x is not a suffix of %x", rest, b)
		}
		// Re-encoding sorts and dedupes, so only the decoded content — not
		// the input bytes — must survive a round trip.
		m2, rest2, ok := DecodeSortedMap(AppendSortedMap(nil, m))
		if !ok || len(rest2) != 0 || len(m2) != len(m) {
			t.Fatalf("round trip: ok=%v rest=%x %d→%d entries", ok, rest2, len(m), len(m2))
		}
		for k, v := range m {
			if string(m2[k]) != string(v) {
				t.Fatalf("round trip changed %q: %x → %x", k, v, m2[k])
			}
		}
	})
}
