package rsm

import (
	"maps"
	"slices"

	"vsystem/internal/vid"
)

// Wire codecs for the replication protocol: fixed little-endian layouts
// over vid.Appender / vid.Reader (DESIGN §10), their counts and lengths
// 32-bit words. A malformed segment must decode to an error — the replica
// answers CodeBadRequest — and never panic.

// maxEntries bounds the entry count a decoder will accept; an encoded
// append can never legitimately carry more (the batch cap is far lower).
const maxEntries = 4096

// maxSnapTotal bounds the declared total size of a snapshot transfer.
const maxSnapTotal = 64 * 1024 * 1024

// done returns v, or the zero value and the reader's first failure — a
// trailing byte included.
func done[T any](r *vid.Reader, v T) (T, error) {
	if err := r.Done(); err != nil {
		var zero T
		return zero, err
	}
	return v, nil
}

// VoteReq is a candidate's request for a vote. Pre marks a pre-vote probe:
// the candidate has not incremented its term and the voter must answer
// without mutating any of its own state (term, votedFor, election timer).
type VoteReq struct {
	Term      uint32
	Pre       bool
	Cand      uint32 // candidate replica id
	CandPID   uint32 // candidate's replica process
	SvcPID    uint32 // candidate's co-located service process (redirect hint)
	LastIndex uint32 // candidate log tail, for the up-to-date check
	LastTerm  uint32
}

// EncodeVoteReq serializes a vote request: six words, then the pre-vote
// flag.
func EncodeVoteReq(v VoteReq) []byte {
	a := vid.Appender{B: make([]byte, 0, 6*4+1)}
	a.U32(v.Term)
	a.U32(v.Cand)
	a.U32(v.CandPID)
	a.U32(v.SvcPID)
	a.U32(v.LastIndex)
	a.U32(v.LastTerm)
	a.Bool(v.Pre)
	return a.B
}

// DecodeVoteReq parses a vote request.
func DecodeVoteReq(b []byte) (VoteReq, error) {
	r := vid.NewReader(b)
	return done(&r, VoteReq{Term: r.U32(), Cand: r.U32(), CandPID: r.U32(), SvcPID: r.U32(),
		LastIndex: r.U32(), LastTerm: r.U32(), Pre: r.Bool()})
}

// VoteReply is a replica's answer to a vote request.
type VoteReply struct {
	Term     uint32
	Granted  bool
	Voter    uint32
	VoterPID uint32
	SvcPID   uint32
}

// EncodeVoteReply serializes a vote reply: the term, the granted flag, then
// three words.
func EncodeVoteReply(v VoteReply) []byte {
	a := vid.Appender{B: make([]byte, 0, 4+1+3*4)}
	a.U32(v.Term)
	a.Bool(v.Granted)
	a.U32(v.Voter)
	a.U32(v.VoterPID)
	a.U32(v.SvcPID)
	return a.B
}

// DecodeVoteReply parses a vote reply.
func DecodeVoteReply(b []byte) (VoteReply, error) {
	r := vid.NewReader(b)
	return done(&r, VoteReply{Term: r.U32(), Granted: r.Bool(), Voter: r.U32(), VoterPID: r.U32(), SvcPID: r.U32()})
}

// Entry is one replicated log entry. An empty Cmd is the no-op barrier a
// new leader commits to fence its term; state machines never see it.
type Entry struct {
	Term uint32
	Cmd  []byte
}

// AppendReq is the leader's append-entries / heartbeat message. Entry
// indices are implicit: PrevIndex+1, PrevIndex+2, ...
type AppendReq struct {
	Term      uint32
	Leader    uint32 // leader replica id
	LeaderPID uint32
	SvcPID    uint32
	PrevIndex uint32
	PrevTerm  uint32
	Commit    uint32
	Entries   []Entry
}

// EncodeAppendReq serializes an append request: seven words and the entry
// count, then each entry's term, command length and command.
func EncodeAppendReq(a AppendReq) []byte {
	n := 8 * 4
	for _, e := range a.Entries {
		n += 8 + len(e.Cmd)
	}
	w := vid.Appender{B: make([]byte, 0, n)}
	w.U32(a.Term)
	w.U32(a.Leader)
	w.U32(a.LeaderPID)
	w.U32(a.SvcPID)
	w.U32(a.PrevIndex)
	w.U32(a.PrevTerm)
	w.U32(a.Commit)
	w.U32(uint32(len(a.Entries)))
	for _, e := range a.Entries {
		w.U32(e.Term)
		w.U32(uint32(len(e.Cmd)))
		w.B = append(w.B, e.Cmd...)
	}
	return w.B
}

// DecodeAppendReq parses an append request. Each command is a slice of b.
func DecodeAppendReq(b []byte) (AppendReq, error) {
	r := vid.NewReader(b)
	a := AppendReq{Term: r.U32(), Leader: r.U32(), LeaderPID: r.U32(), SvcPID: r.U32(),
		PrevIndex: r.U32(), PrevTerm: r.U32(), Commit: r.U32()}
	n := r.U32()
	if n > maxEntries || uint64(n) > uint64(r.Len()/8) { // an entry is at least its two words
		r.Fail(vid.ErrMalformed)
	} else if n > 0 {
		a.Entries = make([]Entry, n)
	}
	for i := 0; i < len(a.Entries) && r.Err() == nil; i++ {
		e := &a.Entries[i]
		e.Term = r.U32()
		if n := r.U32(); n > vid.SegMax {
			r.Fail(vid.ErrMalformed)
		} else {
			e.Cmd = r.Take(int(n))
		}
	}
	return done(&r, a)
}

// SnapChunk is one piece of a snapshot transfer to a lagging replica. The
// receiver assembles chunks of the same (Term, LastIndex, Total) identity
// into a buffer, in any order, and installs when every byte has arrived.
type SnapChunk struct {
	Term      uint32
	Leader    uint32
	LeaderPID uint32
	SvcPID    uint32
	LastIndex uint32 // log index the snapshot covers through
	LastTerm  uint32
	Offset    uint32
	Total     uint32
	Data      []byte
}

// EncodeSnapChunk serializes a snapshot chunk: eight words, then the data
// to the end of the segment.
func EncodeSnapChunk(c SnapChunk) []byte {
	a := vid.Appender{B: make([]byte, 0, 8*4+len(c.Data))}
	a.U32(c.Term)
	a.U32(c.Leader)
	a.U32(c.LeaderPID)
	a.U32(c.SvcPID)
	a.U32(c.LastIndex)
	a.U32(c.LastTerm)
	a.U32(c.Offset)
	a.U32(c.Total)
	a.B = append(a.B, c.Data...)
	return a.B
}

// DecodeSnapChunk parses a snapshot chunk. Data is a slice of b.
func DecodeSnapChunk(b []byte) (SnapChunk, error) {
	r := vid.NewReader(b)
	c := SnapChunk{Term: r.U32(), Leader: r.U32(), LeaderPID: r.U32(), SvcPID: r.U32(),
		LastIndex: r.U32(), LastTerm: r.U32(), Offset: r.U32(), Total: r.U32(), Data: r.Rest()}
	if c.Total > maxSnapTotal || uint64(c.Offset)+uint64(len(c.Data)) > uint64(c.Total) {
		r.Fail(vid.ErrMalformed)
	}
	return done(&r, c)
}

// AppendSortedMap appends m's snapshot form to b: a count, then each entry
// as length-prefixed key and value, keys in ascending order — byte-identical
// for equal maps, which a map-order-dependent encoding would not be.
func AppendSortedMap(b []byte, m map[string][]byte) []byte {
	a := vid.Appender{B: b}
	a.U32(uint32(len(m)))
	for _, k := range slices.Sorted(maps.Keys(m)) {
		a.U32(uint32(len(k)))
		a.B = append(a.B, k...)
		a.U32(uint32(len(m[k])))
		a.B = append(a.B, m[k]...)
	}
	return a.B
}

// DecodeSortedMap parses one AppendSortedMap form off the front of b and
// returns the bytes after it. Keys must be strictly ascending, as
// AppendSortedMap writes them, so one map has one form. Snapshots arrive
// over the wire in install chunks, so nothing is sized by a count before
// the count is checked against the bytes left; on any malformation it
// returns ok=false and no map.
func DecodeSortedMap(b []byte) (m map[string][]byte, rest []byte, ok bool) {
	r := vid.NewReader(b)
	n := r.U32()
	if r.Err() != nil || uint64(n) > uint64(r.Len()/8) { // an entry is at least its two length words
		return nil, nil, false
	}
	m = make(map[string][]byte, n)
	prev := ""
	for i := 0; i < int(n) && r.Err() == nil; i++ {
		k := string(r.Take(int(r.U32())))
		if i > 0 && k <= prev {
			r.Fail(vid.ErrMalformed)
		}
		m[k] = append([]byte(nil), r.Take(int(r.U32()))...)
		prev = k
	}
	if rest = r.Rest(); r.Err() != nil {
		return nil, nil, false
	}
	return m, rest, true
}
