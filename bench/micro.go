package main

import (
	"fmt"
	"time"

	"vsystem/internal/ethernet"
	"vsystem/internal/kernel"
	"vsystem/internal/mem"
	"vsystem/internal/packet"
	"vsystem/internal/rsm"
	"vsystem/internal/sim"
	"vsystem/internal/trace"
	"vsystem/internal/vid"
)

// The (h) metrics: host nanoseconds per call of one layer's public
// function, in a fixed-count loop on a bare engine or bare hosts — no
// cluster, no workload. Counts are fixed (not time-boxed) so two commits
// run the same work.

// hostLoop times n calls of fn and returns nanoseconds per call.
func hostLoop(n int, fn func(i int)) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

func microMetrics(m map[string]float64) {
	m["sim.switch_ns"] = microSwitch(200_000)
	m["sim.timer_ns"] = microTimer(500_000)
	m["ethernet.frame_ns"] = microFrame(200_000)
	m["ipc.roundtrip_us"] = microRoundTrip(20_000) / 1000
	m["packet.marshal_ns"], m["packet.unmarshal_ns"] = microPacket(500_000)
	m["mem.snapshot_us"] = microSnapshot(5_000) / 1000
	m["rsm.codec_ns"] = microCodec(200_000)
	m["trace.publish_ns.0sub"] = microPublish(2_000_000, 0)
	m["trace.publish_ns.1sub"] = microPublish(2_000_000, 1)
	m["rsm.submit_p50_ms"] = microSubmit(200)
}

// microSwitch: one task doing Sleep(0) — engine → task → engine.
func microSwitch(n int) float64 {
	eng := sim.NewEngine(1)
	eng.Spawn("yield", func(t *sim.Task) {
		for {
			t.Sleep(0)
		}
	})
	eng.Step() // first dispatch
	return hostLoop(n, func(int) { eng.Step() })
}

// microTimer: After + fire with 10 000 timers pending.
func microTimer(n int) float64 {
	eng := sim.NewEngine(1)
	for i := 0; i < 10_000; i++ {
		eng.After(time.Hour+time.Duration(i)*time.Millisecond, func() {})
	}
	fired := 0
	fn := func() { fired++ }
	return hostLoop(n, func(int) {
		eng.After(time.Microsecond, fn)
		eng.Step()
	})
}

// microFrame: one 1 KB unicast frame, send → delivery.
func microFrame(n int) float64 {
	eng := sim.NewEngine(1)
	bus := ethernet.NewBus(eng)
	a, b := bus.Attach(1), bus.Attach(2)
	got := 0
	b.SetRecv(func(ethernet.Frame) { got++ })
	f := ethernet.Frame{Src: 1, Dst: 2, Payload: make([]byte, 1024)}
	ns := hostLoop(n, func(int) {
		a.StartSend(f, nil)
		eng.Run()
	})
	if got != n {
		panic(fmt.Sprintf("bench: %d of %d frames delivered", got, n))
	}
	return ns
}

// microRoundTrip: Send / Receive / Reply of a 32-byte message between two
// bare hosts.
func microRoundTrip(n int) float64 {
	eng := sim.NewEngine(1)
	bus := ethernet.NewBus(eng)
	h0 := kernel.NewHost(eng, bus, 0, "a")
	h1 := kernel.NewHost(eng, bus, 1, "b")
	srv := h1.SpawnServer("echo", 16*1024, func(ctx *kernel.ProcCtx) {
		for {
			req := ctx.Receive()
			ctx.Reply(req, req.Msg)
		}
	})
	done := 0
	h0.SpawnServer("client", 16*1024, func(ctx *kernel.ProcCtx) {
		for i := 0; i < n+1; i++ {
			if _, err := ctx.Send(srv.PID(), vid.Message{Op: 1, W: [6]uint32{uint32(i)}}); err != nil {
				panic(fmt.Sprintf("bench: round trip %d: %v", i, err))
			}
			done++
		}
	})
	for done == 0 { // first exchange resolves the binding
		eng.Step()
	}
	t0 := time.Now()
	for done <= n && eng.Step() {
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

// microPacket: the wire codec on a request with a 256-byte segment (the
// same bodies as the root bench_test.go).
func microPacket(n int) (marshal, unmarshal float64) {
	p := &packet.Packet{
		Kind: packet.KRequest, TxID: 7,
		Src: vid.NewPID(3, 16), Dst: vid.NewPID(9, 1),
		Msg: vid.Message{Op: 42, W: [6]uint32{1, 2, 3, 4, 5, 6}, Seg: make([]byte, 256)},
	}
	buf := packet.Marshal(p)
	marshal = hostLoop(n, func(int) { packet.Marshal(p) })
	unmarshal = hostLoop(n, func(int) {
		if _, err := packet.Unmarshal(buf); err != nil {
			panic(err)
		}
	})
	return marshal, unmarshal
}

// microSnapshot: the per-round dirty-page scan of a 1 MB address space.
func microSnapshot(n int) float64 {
	as := mem.NewAddressSpace(1, 1024*1024)
	if err := as.WriteAt(0, make([]byte, 1024*1024)); err != nil {
		panic(err)
	}
	return hostLoop(n, func(i int) {
		as.Touch(uint32(i*4096) % (1024 * 1024))
		as.SnapshotDirty()
	})
}

// microCodec: an append request carrying four 64-byte entries, encoded and
// decoded.
func microCodec(n int) float64 {
	req := rsm.AppendReq{Term: 3, Leader: 1, PrevIndex: 10, PrevTerm: 3, Commit: 9}
	for i := 0; i < 4; i++ {
		req.Entries = append(req.Entries, rsm.Entry{Term: 3, Cmd: make([]byte, 64)})
	}
	return hostLoop(n, func(int) {
		if _, err := rsm.DecodeAppendReq(rsm.EncodeAppendReq(req)); err != nil {
			panic(err)
		}
	})
}

// microPublish: one event through a trace bus with 0 or 1 subscribers.
func microPublish(n, subs int) float64 {
	tb := trace.NewBus()
	seen := 0
	for i := 0; i < subs; i++ {
		tb.Subscribe(func(trace.Event) { seen++ })
	}
	ev := trace.Event{Kind: trace.EvDispatch, Host: 1}
	return hostLoop(n, func(i int) {
		ev.At = sim.Time(i)
		tb.Publish(ev)
	})
}

// counterSM is the state machine of the benchmark's own replica group: a
// counter that each command increments.
type counterSM struct{ n uint32 }

func (c *counterSM) Apply(*sim.Task, []byte) []byte { c.n++; return nil }
func (c *counterSM) Snapshot() []byte {
	return []byte{byte(c.n), byte(c.n >> 8), byte(c.n >> 16), byte(c.n >> 24)}
}
func (c *counterSM) Restore(b []byte) {
	if len(b) == 4 {
		c.n = uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
	}
}

// microSubmit: virtual milliseconds for Replica.Submit to commit one
// command on a 3-replica group on bare hosts (median of n).
func microSubmit(n int) float64 {
	eng := sim.NewEngine(1)
	bus := ethernet.NewBus(eng)
	var hosts []*kernel.Host
	var reps []*rsm.Replica
	for i := 0; i < 3; i++ {
		h := kernel.NewHost(eng, bus, i, fmt.Sprintf("r%d", i))
		hosts = append(hosts, h)
		reps = append(reps, rsm.New(h, rsm.Config{
			Name: "bench", Group: vid.GroupHomeRSM, ID: i, N: 3,
		}, &counterSM{}, rsm.NewStore()))
	}
	eng.RunFor(5 * time.Second) // first election
	lead := -1
	for i, r := range reps {
		if r.IsLeader() {
			lead = i
		}
	}
	if lead < 0 {
		panic("bench: replica group elected no leader in 5 virtual seconds")
	}
	var lat samples
	finished := false
	hosts[lead].SpawnServer("submitter", 16*1024, func(ctx *kernel.ProcCtx) {
		for i := 0; i < n; i++ {
			t := ctx.Now()
			if _, err := reps[lead].Submit(ctx, []byte{1}); err != nil {
				panic(fmt.Sprintf("bench: submit %d: %v", i, err))
			}
			lat = append(lat, ms(ctx.Now().Sub(t)))
			ctx.Sleep(20 * time.Millisecond)
		}
		finished = true
	})
	for !finished && eng.Now() < sim.Time(10*time.Minute) {
		eng.RunFor(time.Second)
	}
	return lat.median()
}
