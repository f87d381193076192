package fileserver

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"vsystem/internal/ethernet"
	"vsystem/internal/kernel"
	"vsystem/internal/mem"
	"vsystem/internal/rsm"
	"vsystem/internal/sim"
	"vsystem/internal/vid"
)

// The same requests must leave the same store whether a lone server
// applied them in place or three replicas committed them through the log —
// including a full 30-page run, which the log carries as several sub-run
// commands, and every mutation's reply.
func TestSoloAndReplicatedReachSameStore(t *testing.T) {
	var pages []mem.PageNo
	var data [][]byte
	for i := 0; i < kernel.MaxRunPages; i++ {
		pages = append(pages, mem.PageNo(2*i))
		data = append(data, bytes.Repeat([]byte{byte(i)}, mem.PageSize)) // page 0 is all zero: elided
	}
	ops := []vid.Message{
		{Op: OpWrite, Seg: []byte("notes\x00hello")},
		{Op: OpWrite, W: [6]uint32{8}, Seg: []byte("notes\x00world")}, // extends past a hole
		{Op: OpWrite, Seg: []byte("scratch\x00gone soon")},
		{Op: OpRemove, Seg: []byte("scratch")},
		{Op: OpRemove, Seg: []byte("never-written")},
		{Op: OpPageOut, Seg: append([]byte("swap/1\x00"), bytes.Repeat([]byte{7}, 512)...)},
		{Op: OpPageOutRun, Seg: append([]byte("mig\x00"), kernel.AppendPageRun(nil, 3, pages, data)...)},
	}
	drive := func(eng *sim.Engine, client *kernel.Host, settle time.Duration) (replies []vid.Message) {
		client.SpawnServer("driver", 4096, func(ctx *kernel.ProcCtx) {
			ctx.Sleep(settle)
			// The group carries only single-frame requests (the page run is
			// 30 KB): a stat of the boot image names the answering server
			// (W5), and the mutations go there marked unicast — to the
			// write leader once a follower's decline has named it (W4).
			st, err := ctx.Send(vid.GroupFileServers, vid.Message{Op: OpStat, Seg: []byte("boot")})
			if err != nil || !st.OK() {
				t.Errorf("stat: %v %v", st, err)
				return
			}
			target := vid.PID(st.W[5])
			for _, op := range ops {
				op.W[5] = FsUnicast
				m, err := ctx.Send(target, op)
				if hint := vid.PID(m.W[4]); err == nil && m.Code == vid.CodeNotLeader && hint != vid.Nil {
					target = hint
					m, err = ctx.Send(target, op)
				}
				if err != nil || !m.OK() {
					t.Errorf("op %#x: %v %v", op.Op, m, err)
				}
				replies = append(replies, m)
			}
		})
		eng.RunFor(settle + 20*time.Second)
		return replies
	}
	solo := newRig(1)
	solo.fs.Put("boot", []byte("image"))
	soloReplies := drive(solo.eng, solo.client, 0)

	eng := sim.NewEngine(1)
	bus := ethernet.NewBus(eng)
	client := kernel.NewHost(eng, bus, 0, "ws0")
	var reps []*Server
	for i := 0; i < 3; i++ {
		h := kernel.NewHost(eng, bus, 1+i, fmt.Sprintf("fserv%d", i))
		reps = append(reps, StartReplica(h, i, 3, rsm.NewStore()))
		reps[i].Put("boot", []byte("image"))
	}
	repReplies := drive(eng, client, 3*time.Second)

	if got, want := fmt.Sprint(repReplies), fmt.Sprint(soloReplies); got != want {
		t.Errorf("replies differ:\nreplicated %s\n      lone %s", got, want)
	}
	want := solo.fs.st.Snapshot()
	if f, _ := solo.fs.Get("notes"); string(f) != "hello\x00\x00\x00world" {
		t.Fatalf("lone server's file = %q", f)
	}
	if len(solo.fs.st.pages) != 1+kernel.MaxRunPages {
		t.Fatalf("lone server stores %d pages, want %d", len(solo.fs.st.pages), 1+kernel.MaxRunPages)
	}
	for i, s := range reps {
		if !bytes.Equal(s.st.Snapshot(), want) {
			t.Errorf("replica %d's store differs from the lone server's", i)
		}
	}
	// A restored snapshot is the same store again.
	back := &store{}
	back.Restore(want)
	if !bytes.Equal(back.Snapshot(), want) {
		t.Error("snapshot does not survive restore")
	}
}

// TestPageOverwriteLeavesSnapshotsAlone: a page-out overwrites a page the
// store holds in place, so no snapshot shares a page's bytes — neither one
// the store took, nor the one a replica's store was restored from.
func TestPageOverwriteLeavesSnapshotsAlone(t *testing.T) {
	old, next := bytes.Repeat([]byte{1}, mem.PageSize), bytes.Repeat([]byte{2}, mem.PageSize)
	const key = "pg/0001/1/5"
	out := func(st *store, data []byte) *byte {
		st.Apply(cmd{op: OpPageOutRun, name: "pg/0001", space: 1, pages: []mem.PageNo{5}, run: [][]byte{data}})
		return &st.pages[key][0]
	}
	leader := &store{files: map[string][]byte{}, pages: map[string][]byte{}}
	held := out(leader, old)
	snap := leader.Snapshot()
	kept := bytes.Clone(snap)
	follower := &store{}
	follower.Restore(snap)
	restored := &follower.pages[key][0]
	if out(leader, next) != held || out(follower, next) != restored {
		t.Fatal("a page-out of a page held stored a new copy: nothing was overwritten in place")
	}
	if !bytes.Equal(snap, kept) {
		t.Fatal("overwriting pages in place changed the snapshot they were taken in or restored from")
	}
	again := &store{}
	again.Restore(snap)
	if !bytes.Equal(again.pages[key], old) || !bytes.Equal(follower.pages[key], next) {
		t.Fatal("the snapshot no longer restores the page it was taken of")
	}
}
