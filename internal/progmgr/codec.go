package progmgr

import (
	"slices"

	"vsystem/internal/kernel"
	"vsystem/internal/sim"
	"vsystem/internal/vid"
)

// Wire forms of the program manager's four structured segments, fixed
// little-endian layouts over vid.Appender / vid.Reader (DESIGN §10 has the
// table): the PmInitMigration and PmSupervise requests, and the home
// group's log command and registry snapshot. Equal values encode to equal
// bytes — the registry keeps its lists sorted and the decoder refuses them
// unsorted — and a malformed segment decodes to an error, never a panic.

// ------------------------------------------------------------ InitReq

// EncodeInitReq serializes an InitReq: FinalLH, SrcLH, the guest flag,
// Stdout, Home, the name, the counted space descriptors, the argument list.
func EncodeInitReq(q *InitReq) []byte {
	var a vid.Appender
	a.U16(uint16(q.FinalLH))
	a.U16(uint16(q.SrcLH))
	a.Bool(q.Guest)
	a.U32(uint32(q.Stdout))
	a.U32(uint32(q.Home))
	a.String(q.Name)
	a.Count(len(q.Spaces))
	for _, sd := range q.Spaces {
		a.U32(sd.ID)
		a.U32(sd.Size)
	}
	a.Strings(q.Args)
	return a.B
}

// DecodeInitReq parses an InitReq.
func DecodeInitReq(b []byte) (*InitReq, error) {
	r := vid.NewReader(b)
	q := &InitReq{
		FinalLH: vid.LHID(r.U16()), SrcLH: vid.LHID(r.U16()), Guest: r.Bool(),
		Stdout: vid.PID(r.U32()), Home: vid.PID(r.U32()), Name: r.String(),
	}
	for i, n := 0, r.Count(8); i < n; i++ {
		q.Spaces = append(q.Spaces, kernel.SpaceDesc{ID: r.U32(), Size: r.U32()})
	}
	q.Args = r.Strings()
	if err := r.Done(); err != nil {
		return nil, err
	}
	return q, nil
}

// -------------------------------------------------------- SessionInfo

// appendSessionInfo writes LHID, PID, Stdout, MinMem, HostPM, HostLH,
// MaxRestarts, then the name and the argument list.
func appendSessionInfo(a *vid.Appender, si *SessionInfo) {
	a.U16(uint16(si.LHID))
	a.U32(uint32(si.PID))
	a.U32(uint32(si.Stdout))
	a.U32(si.MinMem)
	a.U32(uint32(si.HostPM))
	a.U16(uint16(si.HostLH))
	a.U32(uint32(si.MaxRestarts))
	a.String(si.Name)
	a.Strings(si.Args)
}

func readSessionInfo(r *vid.Reader) *SessionInfo {
	return &SessionInfo{
		LHID: vid.LHID(r.U16()), PID: vid.PID(r.U32()), Stdout: vid.PID(r.U32()),
		MinMem: r.U32(), HostPM: vid.PID(r.U32()), HostLH: vid.LHID(r.U16()),
		MaxRestarts: int(r.U32()), Name: r.String(), Args: r.Strings(),
	}
}

// EncodeSessionInfo serializes a SessionInfo for PmSupervise.
func EncodeSessionInfo(si *SessionInfo) []byte {
	var a vid.Appender
	appendSessionInfo(&a, si)
	return a.B
}

// DecodeSessionInfo parses a SessionInfo.
func DecodeSessionInfo(b []byte) (*SessionInfo, error) {
	r := vid.NewReader(b)
	si := readSessionInfo(&r)
	if err := r.Done(); err != nil {
		return nil, err
	}
	return si, nil
}

// -------------------------------------------------------------- hgCmd

// encodeCmd serializes a registry command: kind, Orig, At, the six words
// (HostPM, HostLH, NewLH, NewPID, Code, Attempt), a flag byte and the
// session record if the command carries one.
func encodeCmd(c *hgCmd) []byte {
	var a vid.Appender
	a.U8(uint8(c.Kind))
	a.U16(uint16(c.Orig))
	a.U64(uint64(c.At))
	a.U32(c.HostPM)
	a.U32(c.HostLH)
	a.U32(c.NewLH)
	a.U32(c.NewPID)
	a.U32(c.Code)
	a.U32(uint32(c.Attempt))
	a.Bool(c.Sess != nil)
	if c.Sess != nil {
		appendSessionInfo(&a, c.Sess)
	}
	return a.B
}

func decodeCmd(b []byte) (hgCmd, error) {
	r := vid.NewReader(b)
	c := hgCmd{
		Kind: hgKind(r.U8()), Orig: vid.LHID(r.U16()), At: int64(r.U64()),
		HostPM: r.U32(), HostLH: r.U32(), NewLH: r.U32(), NewPID: r.U32(),
		Code: r.U32(), Attempt: int(r.U32()),
	}
	if c.Kind < hgSupervise || c.Kind > hgForget {
		r.Fail(vid.ErrMalformed)
	}
	if r.Bool() {
		c.Sess = readSessionInfo(&r)
	}
	if err := r.Done(); err != nil {
		return hgCmd{}, err
	}
	return c, nil
}

// ----------------------------------------------------------- snapshot

// A session record's fixed part and its two empty length-prefixed tails,
// and an alias pair: what a snapshot's counts are checked against.
const (
	sessRecMin  = 2 + 2 + 4 + 4 + 4 + 4 + 2 + 4 + 4 + 4 + 1 + 4 + 8 + 8 + 2 + 2
	aliasRecLen = 4
)

// encodeSnap serializes the registry snapshot into one buffer of its exact
// size: the counted session records in Orig order — the two LHIDs, PID,
// Stdout, MinMem, HostPM, HostLH, Incarnation, Restarts, MaxRestarts, the
// state byte, ExitCode, LastRenew, NextRetry, the name, the argument list
// — then the counted alias pairs in From order.
func encodeSnap(reg *registry) []byte {
	n := 2 + 2 + len(reg.aliases)*aliasRecLen
	for _, s := range reg.sessions {
		n += sessRecMin + len(s.Name)
		for _, arg := range s.Args {
			n += 2 + len(arg)
		}
	}
	a := vid.Appender{B: make([]byte, 0, n)}
	a.Count(len(reg.sessions))
	for _, s := range reg.sessions {
		a.U16(uint16(s.Orig))
		a.U16(uint16(s.Cur))
		a.U32(uint32(s.PID))
		a.U32(uint32(s.Stdout))
		a.U32(s.MinMem)
		a.U32(uint32(s.HostPM))
		a.U16(uint16(s.HostLH))
		a.U32(uint32(s.Incarnation))
		a.U32(uint32(s.Restarts))
		a.U32(uint32(s.MaxRestarts))
		a.U8(uint8(s.State))
		a.U32(s.ExitCode)
		a.U64(uint64(s.LastRenew))
		a.U64(uint64(s.NextRetry))
		a.String(s.Name)
		a.Strings(s.Args)
	}
	a.Count(len(reg.aliases))
	for _, al := range reg.aliases {
		a.U16(uint16(al.From))
		a.U16(uint16(al.To))
	}
	return a.B
}

// decodeSnap parses a snapshot straight into a registry's lists, its
// session records in one block.
func decodeSnap(b []byte) (*registry, error) {
	r := vid.NewReader(b)
	reg := new(registry)
	n := r.Count(sessRecMin)
	recs := make([]session, n)
	reg.sessions = slices.Grow(reg.sessions, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		s := &recs[i]
		s.homeSessRec = homeSessRec{
			Orig: vid.LHID(r.U16()), Cur: vid.LHID(r.U16()), PID: vid.PID(r.U32()),
			Stdout: vid.PID(r.U32()), MinMem: r.U32(), HostPM: vid.PID(r.U32()),
			HostLH: vid.LHID(r.U16()), Incarnation: int(r.U32()), Restarts: int(r.U32()),
			MaxRestarts: int(r.U32()), State: sessionState(r.U8()), ExitCode: r.U32(),
			LastRenew: sim.Time(r.U64()), NextRetry: sim.Time(r.U64()),
			Name: r.String(), Args: r.Strings(),
		}
		if s.State > sessionFailed || i > 0 && s.Orig <= reg.sessions[i-1].Orig {
			r.Fail(vid.ErrMalformed)
		}
		reg.sessions = append(reg.sessions, s)
	}
	for i, n := 0, r.Count(aliasRecLen); i < n; i++ {
		al := homeAliasRec{From: vid.LHID(r.U16()), To: vid.LHID(r.U16())}
		if i > 0 && al.From <= reg.aliases[i-1].From {
			r.Fail(vid.ErrMalformed)
		}
		reg.aliases = append(reg.aliases, al)
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return reg, nil
}
