package nameserver

import (
	"testing"

	"vsystem/internal/rsm"
	"vsystem/internal/vid"
	"vsystem/internal/vid/wiretest"
)

// The binding table's log command and snapshot under the shared wire-form
// checks. The codec methods read nothing of the table they are called on.
var (
	cmdForm = wiretest.Form[cmd]{
		Encode: func(c *cmd) []byte { return new(table).Encode(*c) },
		Decode: func(b []byte) (*cmd, error) {
			c, ok := new(table).Decode(b)
			if !ok {
				return nil, vid.ErrMalformed
			}
			return &c, nil
		},
	}
	snapForm = wiretest.Form[table]{
		Encode: (*table).Snapshot,
		Decode: func(b []byte) (*table, error) {
			var t table
			if t.Restore(b); t.names == nil {
				return nil, vid.ErrMalformed
			}
			return &t, nil
		},
	}
)

func TestCmdWireForm(t *testing.T) {
	// The name runs to the end of the command, so only a cut into the op
	// and the PID is a truncation.
	for _, c := range []cmd{
		{op: NsRegister, pid: vid.NewPID(3, 17), name: "fileserver"},
		{op: NsUnregister, name: "fileserver"},
	} {
		seg := cmdForm.RoundTrip(t, &c)
		for n := 0; n < 6; n++ {
			if _, ok := new(table).Decode(seg[:n:n]); ok {
				t.Fatalf("decoded a command cut to %d bytes", n)
			}
		}
	}
}

func TestSnapshotWireForm(t *testing.T) {
	tab := &table{names: map[string]vid.PID{"fileserver": vid.NewPID(3, 17), "display": vid.NewPID(1, 18)}}
	snapForm.Malformed(t, snapForm.RoundTrip(t, tab), wiretest.Count{Off: 0, N: 2})
	snapForm.Malformed(t, snapForm.RoundTrip(t, &table{names: map[string]vid.PID{}}))

	// A binding's value is one PID word, no more and no less.
	for _, v := range [][]byte{{1, 2, 3}, {1, 2, 3, 4, 5}} {
		if _, err := snapForm.Decode(rsm.AppendSortedMap(nil, map[string][]byte{"x": v})); err == nil {
			t.Errorf("a %d-byte binding restored", len(v))
		}
	}
}

// TestWireSizesPinned: a log command's length is what an append entry
// carries, so a layout change must show up as a diff here (and in DESIGN
// §10's table).
func TestWireSizesPinned(t *testing.T) {
	tab := &table{names: map[string]vid.PID{"fileserver": vid.NewPID(3, 17)}}
	for _, c := range []struct {
		form      string
		got, want int
	}{
		{"NsRegister, 10-byte name", len(tab.Encode(cmd{op: NsRegister, pid: 1, name: "fileserver"})), 6 + 10},
		{"NsUnregister, 10-byte name", len(tab.Encode(cmd{op: NsUnregister, name: "fileserver"})), 6 + 10},
		{"snapshot, one 10-byte name", len(tab.Snapshot()), 4 + 8 + 10 + 4},
	} {
		if c.got != c.want {
			t.Errorf("%s: %d bytes, pinned at %d", c.form, c.got, c.want)
		}
	}
}
