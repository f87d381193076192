package fileserver

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"vsystem/internal/ethernet"
	"vsystem/internal/kernel"
	"vsystem/internal/mem"
	"vsystem/internal/sim"
	"vsystem/internal/vid"
)

type rig struct {
	eng    *sim.Engine
	fs     *Server
	client *kernel.Host
}

func newRig(seed int64) *rig {
	eng := sim.NewEngine(seed)
	bus := ethernet.NewBus(eng)
	eng.PoisonFreed() // a page kept as a slice of a released buffer reads as garbage
	client := kernel.NewHost(eng, bus, 0, "ws0")
	server := kernel.NewHost(eng, bus, 1, "fserv")
	return &rig{eng: eng, fs: Start(server), client: client}
}

// call runs one request from a client process and returns the reply.
func (r *rig) call(t *testing.T, msg vid.Message) vid.Message {
	t.Helper()
	var reply vid.Message
	var err error
	r.client.SpawnServer("caller", 4096, func(ctx *kernel.ProcCtx) {
		reply, err = ctx.Send(r.fs.PID(), msg)
	})
	r.eng.RunFor(time.Minute)
	if err != nil {
		t.Fatalf("call: %v", err)
	}
	return reply
}

func TestStatAndRead(t *testing.T) {
	r := newRig(1)
	data := bytes.Repeat([]byte("v-system "), 1000)
	r.fs.Put("prog", data)

	st := r.call(t, vid.Message{Op: OpStat, Seg: []byte("prog")})
	if !st.OK() || int(st.W[0]) != len(data) {
		t.Fatalf("stat = %v", st)
	}
	if vid.PID(st.W[5]) != r.fs.PID() {
		t.Fatal("stat reply does not identify the server")
	}

	rd := r.call(t, vid.Message{Op: OpRead, W: [6]uint32{100, 500}, Seg: []byte("prog")})
	if !rd.OK() || !bytes.Equal(rd.Seg, data[100:600]) {
		t.Fatalf("read mismatch (%d bytes)", len(rd.Seg))
	}

	// Read past EOF truncates.
	rd = r.call(t, vid.Message{Op: OpRead, W: [6]uint32{uint32(len(data)) - 10, 500}, Seg: []byte("prog")})
	if !rd.OK() || len(rd.Seg) != 10 {
		t.Fatalf("eof read = %d bytes", len(rd.Seg))
	}
}

// TestReadReplyCarriesSize: a read reply's W0 is the bytes read and its W1
// the file's size, whatever the read covered — so a client's first read is
// its stat. A read at or past EOF reads nothing and still tells the size.
func TestReadReplyCarriesSize(t *testing.T) {
	r := newRig(9)
	size := vid.SegMax + 1000
	data := bytes.Repeat([]byte{0x5A}, size)
	r.fs.Put("prog", data)
	for _, tc := range []struct {
		name string
		off  int
		want int // bytes read
	}{
		{"whole segment", 0, vid.SegMax},
		{"short last segment", vid.SegMax, 1000},
		{"at EOF", size, 0},
		{"past EOF", size + vid.SegMax, 0},
	} {
		rd := r.call(t, vid.Message{Op: OpRead, W: [6]uint32{uint32(tc.off), vid.SegMax}, Seg: []byte("prog")})
		if !rd.OK() || int(rd.W[0]) != tc.want || len(rd.Seg) != tc.want || int(rd.W[1]) != size {
			t.Errorf("%s: code %d, W0 %d, %d bytes, W1 %d; want %d bytes and W1 %d",
				tc.name, rd.Code, rd.W[0], len(rd.Seg), rd.W[1], tc.want, size)
		}
		if tc.want > 0 && !bytes.Equal(rd.Seg, data[tc.off:tc.off+tc.want]) {
			t.Errorf("%s: wrong bytes", tc.name)
		}
	}
	if rd := r.call(t, vid.Message{Op: OpRead, W: [6]uint32{0, vid.SegMax}, Seg: []byte("nope")}); rd.Code != vid.CodeNotFound {
		t.Errorf("read of a missing file: code %d, want not-found", rd.Code)
	}
}

func TestStatMissing(t *testing.T) {
	r := newRig(2)
	st := r.call(t, vid.Message{Op: OpStat, Seg: []byte("nope")})
	if st.OK() {
		t.Fatal("stat of missing file succeeded")
	}
}

func TestWriteExtendsAndOverwrites(t *testing.T) {
	r := newRig(3)
	seg := append([]byte("f\x00"), []byte("hello")...)
	w := r.call(t, vid.Message{Op: OpWrite, Seg: seg})
	if !w.OK() || w.W[0] != 5 {
		t.Fatalf("write = %v", w)
	}
	seg = append([]byte("f\x00"), []byte("XY")...)
	w = r.call(t, vid.Message{Op: OpWrite, W: [6]uint32{4}, Seg: seg})
	if !w.OK() || w.W[0] != 6 {
		t.Fatalf("extend = %v", w)
	}
	got, _ := r.fs.Get("f")
	if string(got) != "hellXY" {
		t.Fatalf("contents = %q", got)
	}
}

func TestRemove(t *testing.T) {
	r := newRig(4)
	r.fs.Put("f", []byte("x"))
	r.call(t, vid.Message{Op: OpRemove, Seg: []byte("f")})
	if _, ok := r.fs.Get("f"); ok {
		t.Fatal("file survived remove")
	}
}

func TestPagingStore(t *testing.T) {
	r := newRig(5)
	page := bytes.Repeat([]byte{7}, 1024)
	out := append([]byte("pg/1/2\x00"), page...)
	if rep := r.call(t, vid.Message{Op: OpPageOut, Seg: out}); !rep.OK() {
		t.Fatalf("pageout = %v", rep)
	}
	in := r.call(t, vid.Message{Op: OpPageIn, Seg: []byte("pg/1/2")})
	if !in.OK() || !bytes.Equal(in.Seg, page) {
		t.Fatal("pagein mismatch")
	}
	miss := r.call(t, vid.Message{Op: OpPageIn, Seg: []byte("pg/9/9")})
	if miss.OK() {
		t.Fatal("pagein of missing page succeeded")
	}
}

func TestPageOutRun(t *testing.T) {
	r := newRig(6)
	pages := []mem.PageNo{4, 9}
	data := [][]byte{bytes.Repeat([]byte{1}, 1024), bytes.Repeat([]byte{2}, 1024)}
	seg := append([]byte("pfx\x00"), kernel.AppendPageRun(nil, 3, pages, data)...)
	if rep := r.call(t, vid.Message{Op: OpPageOutRun, Seg: seg}); !rep.OK() {
		t.Fatalf("pageout-run = %v", rep)
	}
	in := r.call(t, vid.Message{Op: OpPageIn, Seg: []byte("pfx/3/9")})
	if !in.OK() || in.Seg[0] != 2 {
		t.Fatal("run page not stored under per-page key")
	}
}

// TestRepeatedPageOutKeepsOneCopy: a guest flushed again and again — the
// same page-run keys, new bytes each time — leaves the paging store one
// copy of each page, overwritten in place: as many keys as pages, each
// holding the latest bytes in the array it got first.
func TestRepeatedPageOutKeepsOneCopy(t *testing.T) {
	r := newRig(8)
	pages := []mem.PageNo{0, 1, 2, 9}
	first := map[string]*byte{}
	for round := 1; round <= 4; round++ {
		data := make([][]byte, len(pages))
		for i := range data {
			data[i] = bytes.Repeat([]byte{byte(16*round + i)}, mem.PageSize)
		}
		seg := append([]byte("pg/0007\x00"), kernel.AppendPageRun(nil, 2, pages, data)...)
		if rep := r.call(t, vid.Message{Op: OpPageOutRun, Seg: seg}); !rep.OK() {
			t.Fatalf("flush %d: %v", round, rep)
		}
		if len(r.fs.st.pages) != len(pages) {
			t.Fatalf("flush %d: the store holds %d pages, want %d", round, len(r.fs.st.pages), len(pages))
		}
		for i, pn := range pages {
			key := fmt.Sprintf("pg/0007/2/%d", pn)
			got := r.fs.st.pages[key]
			if !bytes.Equal(got, data[i]) {
				t.Fatalf("flush %d: page %s holds other bytes than flushed", round, key)
			}
			if round == 1 {
				first[key] = &got[0]
			} else if &got[0] != first[key] {
				t.Fatalf("flush %d: page %s stored in a new copy, not over the one held", round, key)
			}
		}
	}
}

func TestList(t *testing.T) {
	r := newRig(7)
	r.fs.Put("b", nil)
	r.fs.Put("a", nil)
	l := r.call(t, vid.Message{Op: OpList})
	if string(l.Seg) != "a\x00b\x00" {
		t.Fatalf("list = %q", l.Seg)
	}
}

func TestBadRequests(t *testing.T) {
	r := newRig(8)
	if rep := r.call(t, vid.Message{Op: 0x6F}); rep.OK() {
		t.Fatal("unknown op succeeded")
	}
	if rep := r.call(t, vid.Message{Op: OpWrite, Seg: []byte("no-nul")}); rep.OK() {
		t.Fatal("malformed write succeeded")
	}
}
