package rsm

import (
	"encoding/binary"
	"errors"
	"maps"
	"slices"

	"vsystem/internal/vid"
)

// Wire codecs for the replication protocol. Hand-rolled little-endian
// fixed-header formats (like the kernel's page-run and fetch-request
// codecs): deterministic byte-for-byte, bounds-checked on decode, and
// fuzzed with committed corpora. A malformed segment must decode to an
// error — the replica answers CodeBadRequest — and never panic.

var errBadWire = errors.New("rsm: malformed wire segment")

// maxEntries bounds the entry count a decoder will accept; an encoded
// append can never legitimately carry more (the batch cap is far lower).
const maxEntries = 4096

// maxSnapTotal bounds the declared total size of a snapshot transfer.
const maxSnapTotal = 64 * 1024 * 1024

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

const voteReqLen = 25

// EncodeVoteReq serializes a vote request.
func EncodeVoteReq(v VoteReq) []byte {
	b := make([]byte, voteReqLen)
	le := binary.LittleEndian
	le.PutUint32(b[0:], v.Term)
	le.PutUint32(b[4:], v.Cand)
	le.PutUint32(b[8:], v.CandPID)
	le.PutUint32(b[12:], v.SvcPID)
	le.PutUint32(b[16:], v.LastIndex)
	le.PutUint32(b[20:], v.LastTerm)
	if v.Pre {
		b[24] = 1
	}
	return b
}

// DecodeVoteReq parses a vote request.
func DecodeVoteReq(b []byte) (VoteReq, error) {
	if len(b) != voteReqLen || b[24] > 1 {
		return VoteReq{}, errBadWire
	}
	le := binary.LittleEndian
	return VoteReq{
		Term:      le.Uint32(b[0:]),
		Pre:       b[24] == 1,
		Cand:      le.Uint32(b[4:]),
		CandPID:   le.Uint32(b[8:]),
		SvcPID:    le.Uint32(b[12:]),
		LastIndex: le.Uint32(b[16:]),
		LastTerm:  le.Uint32(b[20:]),
	}, nil
}

// VoteReply is a replica's answer to a vote request.
type VoteReply struct {
	Term     uint32
	Granted  bool
	Voter    uint32
	VoterPID uint32
	SvcPID   uint32
}

const voteReplyLen = 17

// EncodeVoteReply serializes a vote reply.
func EncodeVoteReply(v VoteReply) []byte {
	b := make([]byte, voteReplyLen)
	le := binary.LittleEndian
	le.PutUint32(b[0:], v.Term)
	if v.Granted {
		b[4] = 1
	}
	le.PutUint32(b[5:], v.Voter)
	le.PutUint32(b[9:], v.VoterPID)
	le.PutUint32(b[13:], v.SvcPID)
	return b
}

// DecodeVoteReply parses a vote reply.
func DecodeVoteReply(b []byte) (VoteReply, error) {
	if len(b) != voteReplyLen || b[4] > 1 {
		return VoteReply{}, errBadWire
	}
	le := binary.LittleEndian
	return VoteReply{
		Term:     le.Uint32(b[0:]),
		Granted:  b[4] == 1,
		Voter:    le.Uint32(b[5:]),
		VoterPID: le.Uint32(b[9:]),
		SvcPID:   le.Uint32(b[13:]),
	}, nil
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

const appendHdrLen = 32

// EncodeAppendReq serializes an append request.
func EncodeAppendReq(a AppendReq) []byte {
	n := appendHdrLen
	for _, e := range a.Entries {
		n += 8 + len(e.Cmd)
	}
	b := make([]byte, n)
	le := binary.LittleEndian
	le.PutUint32(b[0:], a.Term)
	le.PutUint32(b[4:], a.Leader)
	le.PutUint32(b[8:], a.LeaderPID)
	le.PutUint32(b[12:], a.SvcPID)
	le.PutUint32(b[16:], a.PrevIndex)
	le.PutUint32(b[20:], a.PrevTerm)
	le.PutUint32(b[24:], a.Commit)
	le.PutUint32(b[28:], uint32(len(a.Entries)))
	off := appendHdrLen
	for _, e := range a.Entries {
		le.PutUint32(b[off:], e.Term)
		le.PutUint32(b[off+4:], uint32(len(e.Cmd)))
		copy(b[off+8:], e.Cmd)
		off += 8 + len(e.Cmd)
	}
	return b
}

// DecodeAppendReq parses an append request.
func DecodeAppendReq(b []byte) (AppendReq, error) {
	if len(b) < appendHdrLen {
		return AppendReq{}, errBadWire
	}
	le := binary.LittleEndian
	a := AppendReq{
		Term:      le.Uint32(b[0:]),
		Leader:    le.Uint32(b[4:]),
		LeaderPID: le.Uint32(b[8:]),
		SvcPID:    le.Uint32(b[12:]),
		PrevIndex: le.Uint32(b[16:]),
		PrevTerm:  le.Uint32(b[20:]),
		Commit:    le.Uint32(b[24:]),
	}
	count := le.Uint32(b[28:])
	if count > maxEntries {
		return AppendReq{}, errBadWire
	}
	off := appendHdrLen
	for i := uint32(0); i < count; i++ {
		if off+8 > len(b) {
			return AppendReq{}, errBadWire
		}
		term := le.Uint32(b[off:])
		n := int(le.Uint32(b[off+4:]))
		if n > vid.SegMax || off+8+n > len(b) {
			return AppendReq{}, errBadWire
		}
		a.Entries = append(a.Entries, Entry{Term: term, Cmd: b[off+8 : off+8+n : off+8+n]})
		off += 8 + n
	}
	if off != len(b) {
		return AppendReq{}, errBadWire
	}
	return a, nil
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

const snapHdrLen = 32

// EncodeSnapChunk serializes a snapshot chunk.
func EncodeSnapChunk(c SnapChunk) []byte {
	b := make([]byte, snapHdrLen+len(c.Data))
	le := binary.LittleEndian
	le.PutUint32(b[0:], c.Term)
	le.PutUint32(b[4:], c.Leader)
	le.PutUint32(b[8:], c.LeaderPID)
	le.PutUint32(b[12:], c.SvcPID)
	le.PutUint32(b[16:], c.LastIndex)
	le.PutUint32(b[20:], c.LastTerm)
	le.PutUint32(b[24:], c.Offset)
	le.PutUint32(b[28:], c.Total)
	copy(b[snapHdrLen:], c.Data)
	return b
}

// DecodeSnapChunk parses a snapshot chunk.
func DecodeSnapChunk(b []byte) (SnapChunk, error) {
	if len(b) < snapHdrLen {
		return SnapChunk{}, errBadWire
	}
	le := binary.LittleEndian
	c := SnapChunk{
		Term:      le.Uint32(b[0:]),
		Leader:    le.Uint32(b[4:]),
		LeaderPID: le.Uint32(b[8:]),
		SvcPID:    le.Uint32(b[12:]),
		LastIndex: le.Uint32(b[16:]),
		LastTerm:  le.Uint32(b[20:]),
		Offset:    le.Uint32(b[24:]),
		Total:     le.Uint32(b[28:]),
		Data:      b[snapHdrLen:len(b):len(b)],
	}
	if c.Total > maxSnapTotal ||
		uint64(c.Offset)+uint64(len(c.Data)) > uint64(c.Total) {
		return SnapChunk{}, errBadWire
	}
	return c, nil
}

// AppendSortedMap appends m's snapshot form to b: a count, then each entry
// as length-prefixed key and value, keys in sorted order — byte-identical
// for equal maps, which a map-order-dependent encoding would not be.
func AppendSortedMap(b []byte, m map[string][]byte) []byte {
	le := binary.LittleEndian
	b = le.AppendUint32(b, uint32(len(m)))
	for _, k := range slices.Sorted(maps.Keys(m)) {
		b = le.AppendUint32(b, uint32(len(k)))
		b = append(b, k...)
		b = le.AppendUint32(b, uint32(len(m[k])))
		b = append(b, m[k]...)
	}
	return b
}

// DecodeSortedMap parses one AppendSortedMap form off the front of b and
// returns the bytes after it. Snapshots arrive over the wire in install
// chunks, so every length is checked against what is actually left before
// it is used (widened, never summed: a huge length word cannot wrap);
// on any malformation it returns ok=false and no map.
func DecodeSortedMap(b []byte) (m map[string][]byte, rest []byte, ok bool) {
	field := func() ([]byte, bool) {
		if len(b) < 4 {
			return nil, false
		}
		n := binary.LittleEndian.Uint32(b)
		if b = b[4:]; uint64(n) > uint64(len(b)) {
			return nil, false
		}
		f := b[:n]
		b = b[n:]
		return f, true
	}
	if len(b) < 4 {
		return nil, nil, false
	}
	n := binary.LittleEndian.Uint32(b)
	if b = b[4:]; uint64(n) > uint64(len(b)/8) { // an entry is at least its two length words
		return nil, nil, false
	}
	m = make(map[string][]byte, n)
	for i := uint32(0); i < n; i++ {
		k, ok1 := field()
		v, ok2 := field()
		if !ok1 || !ok2 {
			return nil, nil, false
		}
		m[string(k)] = append([]byte(nil), v...)
	}
	return m, b, true
}
