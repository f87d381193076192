package fileserver

import (
	"testing"

	"vsystem/internal/mem"
	"vsystem/internal/vid"
	"vsystem/internal/vid/wiretest"
)

// The store's log command and snapshot under the shared wire-form checks.
// The codec methods read nothing of the store they are called on.
var (
	cmdForm = wiretest.Form[cmd]{
		Encode: func(c *cmd) []byte { return new(store).Encode(*c) },
		Decode: func(b []byte) (*cmd, error) {
			c, ok := new(store).Decode(b)
			if !ok {
				return nil, vid.ErrMalformed
			}
			return &c, nil
		},
	}
	snapForm = wiretest.Form[store]{
		Encode: (*store).Snapshot,
		Decode: func(b []byte) (*store, error) {
			var st store
			if st.Restore(b); st.files == nil {
				return nil, vid.ErrMalformed
			}
			return &st, nil
		},
	}
)

// pageOutRun is a two-page sub-run, the second page all zero.
func pageOutRun() cmd {
	body := make([]byte, mem.PageSize)
	body[0] = 7
	return cmd{op: OpPageOutRun, name: "lh5", space: 1,
		pages: []mem.PageNo{3, 4}, run: [][]byte{body, mem.ZeroPage()}}
}

func TestCmdWireForm(t *testing.T) {
	// A page-out run is self-delimiting: every cut and a trailing byte fail.
	run := pageOutRun()
	cmdForm.Malformed(t, cmdForm.RoundTrip(t, &run))

	// The others end in a name or a payload that runs to the end of the
	// command, so only a cut before that tail is a truncation.
	for _, c := range []struct {
		c     cmd
		fixed int // bytes before the tail: op, offset, and a payload's name and NUL
	}{
		{cmd{op: OpWrite, off: 100, name: "f", data: []byte("hello")}, 6 + 1 + 1},
		{cmd{op: OpPageOut, name: "k", data: []byte("page")}, 6 + 1 + 1},
		{cmd{op: OpRemove, name: "f"}, 6},
	} {
		seg := cmdForm.RoundTrip(t, &c.c)
		for n := 0; n < c.fixed; n++ {
			if _, ok := new(store).Decode(seg[:n:n]); ok {
				t.Fatalf("op %#x: decoded a command cut to %d bytes", c.c.op, n)
			}
		}
	}

	// Only the four mutations are log commands.
	if _, ok := new(store).Decode(new(store).Encode(cmd{op: OpStat, name: "f"})); ok {
		t.Fatal("a stat decoded as a log command")
	}
}

func TestSnapshotWireForm(t *testing.T) {
	st := &store{
		files: map[string][]byte{"tex": []byte("image"), "empty": nil},
		pages: map[string][]byte{"lh5/1/3": []byte("page")},
	}
	seg := snapForm.RoundTrip(t, st)
	snapForm.Malformed(t, seg, wiretest.Count{Off: 0, N: 2})
	snapForm.Malformed(t, snapForm.RoundTrip(t, &store{files: map[string][]byte{}, pages: map[string][]byte{}}))
}

// TestWireSizesPinned: a log command's length is what an append entry
// carries, so a layout change must show up as a diff here (and in DESIGN
// §10's table).
func TestWireSizesPinned(t *testing.T) {
	st := store{files: map[string][]byte{}, pages: map[string][]byte{}}
	size := st.Apply(cmd{op: OpWrite, name: "f", data: []byte("hello")})
	for _, c := range []struct {
		form      string
		got, want int
	}{
		{"OpWrite, 1-byte name, 5 bytes", len(st.Encode(cmd{op: OpWrite, name: "f", data: []byte("hello")})), 6 + 1 + 1 + 5},
		{"OpRemove, 1-byte name", len(st.Encode(cmd{op: OpRemove, name: "f"})), 6 + 1},
		{"OpPageOut, 1-byte key, one page", len(st.Encode(cmd{op: OpPageOut, name: "k", data: make([]byte, mem.PageSize)})), 6 + 1 + 1 + 1024},
		{"OpPageOutRun, 3-byte prefix, one page and one zero page", len(st.Encode(pageOutRun())), 6 + 3 + 1 + 8 + 2*4 + 1024},
		{"OpWrite's result, the new size", len(size), 4},
		{"snapshot, one 5-byte file", len(st.Snapshot()), 4 + 8 + 1 + 5 + 4},
	} {
		if c.got != c.want {
			t.Errorf("%s: %d bytes, pinned at %d", c.form, c.got, c.want)
		}
	}
}
