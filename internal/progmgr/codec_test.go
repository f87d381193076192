package progmgr

import (
	"testing"
	"time"

	"vsystem/internal/kernel"
	"vsystem/internal/sim"
	"vsystem/internal/vid"
	"vsystem/internal/vid/wiretest"
)

var (
	initReqForm     = wiretest.Form[InitReq]{Encode: EncodeInitReq, Decode: DecodeInitReq}
	sessionInfoForm = wiretest.Form[SessionInfo]{Encode: EncodeSessionInfo, Decode: DecodeSessionInfo}
	cmdForm         = wiretest.Form[hgCmd]{
		Encode: encodeCmd,
		Decode: func(b []byte) (*hgCmd, error) {
			c, err := decodeCmd(b)
			if err != nil {
				return nil, err
			}
			return &c, nil
		},
	}
	snapForm = wiretest.Form[registry]{Encode: encodeSnap, Decode: decodeSnap}
)

func populatedInitReq() *InitReq {
	return &InitReq{
		Name: "tex", Guest: true, FinalLH: 0x0105, SrcLH: 0x0100,
		Spaces: []kernel.SpaceDesc{{ID: 1, Size: 708 * 1024}, {ID: 2, Size: 64 * 1024}},
		Args:   []string{"-draft", "paper.tex"}, Stdout: vid.NewPID(0x0300, 17), Home: vid.GroupHomePMs,
	}
}

func populatedSessionInfo() *SessionInfo {
	return &SessionInfo{
		LHID: 0x0205, PID: vid.NewPID(0x0205, 16), Name: "ticker300", Args: []string{"-v"},
		Stdout: vid.NewPID(0x0100, 17), MinMem: 256 * 1024,
		HostPM: vid.NewPID(0x0200, 2), HostLH: 0x0200, MaxRestarts: 2,
	}
}

func populatedSnap() *registry {
	return &registry{
		sessions: []*session{
			{homeSessRec: homeSessRec{Orig: 0x0205, Cur: 0x0306, PID: vid.NewPID(0x0306, 16), Name: "ticker300", Args: []string{"-v"},
				Stdout: vid.NewPID(0x0100, 17), MinMem: 256 * 1024, HostPM: vid.NewPID(0x0300, 2), HostLH: 0x0300,
				Incarnation: 2, Restarts: 1, MaxRestarts: 2, State: sessionBroken,
				LastRenew: sim.Time(9 * time.Second), NextRetry: sim.Time(9500 * time.Millisecond)}},
			{homeSessRec: homeSessRec{Orig: 0x0207, Cur: 0x0207, PID: vid.NewPID(0x0207, 16), Name: "hello",
				Incarnation: 1, State: sessionDone, ExitCode: 3}},
		},
		aliases: []homeAliasRec{{From: 0x0306, To: 0x0205}, {From: 0x0407, To: 0x0205}},
	}
}

func TestInitReqWireForm(t *testing.T) {
	q := populatedInitReq()
	seg := initReqForm.RoundTrip(t, q)
	spaces := 2 + 2 + 1 + 4 + 4 + 2 + len(q.Name)
	args := spaces + 2 + 2*8
	initReqForm.Malformed(t, seg,
		wiretest.Count{Off: spaces, N: 2}, wiretest.Count{Off: args, N: 2})
	initReqForm.Malformed(t, initReqForm.RoundTrip(t, &InitReq{}))
}

func TestSessionInfoWireForm(t *testing.T) {
	si := populatedSessionInfo()
	seg := sessionInfoForm.RoundTrip(t, si)
	args := 2 + 4 + 4 + 4 + 4 + 2 + 4 + 2 + len(si.Name)
	sessionInfoForm.Malformed(t, seg, wiretest.Count{Off: args, N: 1})
	sessionInfoForm.Malformed(t, sessionInfoForm.RoundTrip(t, &SessionInfo{}))
}

func TestCmdWireForm(t *testing.T) {
	sup := &hgCmd{Kind: hgSupervise, Sess: populatedSessionInfo(), At: int64(3 * time.Second)}
	cmdForm.Malformed(t, cmdForm.RoundTrip(t, sup))
	rebind := &hgCmd{
		Kind: hgRebind, Orig: 0x0205, At: int64(12 * time.Second), HostPM: uint32(vid.NewPID(0x0300, 2)),
		HostLH: 0x0300, NewLH: 0x0306, NewPID: uint32(vid.NewPID(0x0306, 16)), Code: 1, Attempt: 2,
	}
	cmdForm.Malformed(t, cmdForm.RoundTrip(t, rebind))

	// The zero command is not a command: kinds start at 1.
	if _, err := decodeCmd(encodeCmd(&hgCmd{})); err == nil {
		t.Fatal("kind 0 decoded")
	}
	if _, err := decodeCmd(encodeCmd(&hgCmd{Kind: hgForget + 1})); err == nil {
		t.Fatal("kind past hgForget decoded")
	}
	cmdForm.Malformed(t, cmdForm.RoundTrip(t, &hgCmd{Kind: hgForget}))
}

func TestSnapWireForm(t *testing.T) {
	snap := populatedSnap()
	seg := snapForm.RoundTrip(t, snap)
	aliases := len(seg) - 2 - len(snap.aliases)*aliasRecLen
	snapForm.Malformed(t, seg,
		wiretest.Count{Off: 0, N: 2}, wiretest.Count{Off: aliases, N: 2})
	snapForm.Malformed(t, snapForm.RoundTrip(t, &registry{}))
	// The encoder sizes its one buffer exactly: a short guess would grow it.
	if n := testing.AllocsPerRun(10, func() { encodeSnap(snap) }); n != 1 {
		t.Errorf("encoding a snapshot allocates %v times, want 1", n)
	}

	// Equal registries have one snapshot: unsorted or repeated keys and an
	// unknown state are refused.
	for name, mangle := range map[string]func(*registry){
		"sessions swapped": func(s *registry) { s.sessions[0], s.sessions[1] = s.sessions[1], s.sessions[0] },
		"aliases repeated": func(s *registry) { s.aliases[1].From = s.aliases[0].From },
		"unknown state":    func(s *registry) { s.sessions[0].State = sessionFailed + 1 },
	} {
		s := populatedSnap()
		mangle(s)
		if _, err := decodeSnap(encodeSnap(s)); err == nil {
			t.Errorf("%s: decoded", name)
		}
	}
}

// A registry restored from a malformed snapshot keeps what it had.
func TestRestoreIgnoresMalformedSnapshot(t *testing.T) {
	r := newRegistry()
	r.Apply(hgCmd{Kind: hgSupervise, Sess: populatedSessionInfo(), At: 1})
	before := string(r.Snapshot())
	r.Restore([]byte(before)[:len(before)-1])
	if string(r.Snapshot()) != before {
		t.Fatal("a truncated snapshot changed the registry")
	}
}

func FuzzDecodeInitReq(f *testing.F) {
	f.Add(EncodeInitReq(populatedInitReq()))
	f.Add(EncodeInitReq(&InitReq{}))
	f.Add([]byte{})
	initReqForm.Fuzz(f)
}

func FuzzDecodeSessionInfo(f *testing.F) {
	f.Add(EncodeSessionInfo(populatedSessionInfo()))
	f.Add(EncodeSessionInfo(&SessionInfo{}))
	f.Add([]byte{})
	sessionInfoForm.Fuzz(f)
}

func FuzzDecodeCmd(f *testing.F) {
	f.Add(encodeCmd(&hgCmd{Kind: hgSupervise, Sess: populatedSessionInfo(), At: 5}))
	f.Add(encodeCmd(&hgCmd{Kind: hgRenewed, Orig: 0x0205, At: 7, HostLH: 0x0300}))
	f.Add([]byte{})
	cmdForm.Fuzz(f)
}

func FuzzDecodeSnap(f *testing.F) {
	f.Add(encodeSnap(populatedSnap()))
	f.Add(encodeSnap(&registry{}))
	f.Add([]byte{})
	snapForm.Fuzz(f)
}

// TestWireSizesPinned: a segment's length is virtual wire time — and a log
// entry's is replication traffic — so a layout change must show up as a
// diff here (and in DESIGN §10's table).
func TestWireSizesPinned(t *testing.T) {
	renew := &hgCmd{Kind: hgRenewed, Orig: 0x0205, At: int64(7 * time.Second), HostPM: uint32(vid.NewPID(0x0300, 2)), HostLH: 0x0300}
	for _, c := range []struct {
		form string
		got  int
		want int
	}{
		{"InitReq, two spaces, two arguments", len(EncodeInitReq(populatedInitReq())), 57},
		{"InitReq, zero", len(EncodeInitReq(&InitReq{})), 19},
		{"SessionInfo, one argument", len(EncodeSessionInfo(populatedSessionInfo())), 41},
		{"hgCmd, lease renewal", len(encodeCmd(renew)), 36},
		{"hgCmd, supervise with its SessionInfo", len(encodeCmd(&hgCmd{Kind: hgSupervise, Sess: populatedSessionInfo()})), 77},
		{"registry snapshot, two sessions, two aliases", len(encodeSnap(populatedSnap())), 148},
		{"registry snapshot, zero", len(encodeSnap(&registry{})), 4},
	} {
		if c.got != c.want {
			t.Errorf("%s: %d bytes, pinned at %d", c.form, c.got, c.want)
		}
	}
}
