package fileserver

import (
	"reflect"
	"testing"
	"time"

	"vsystem/internal/ethernet"
	"vsystem/internal/kernel"
	"vsystem/internal/packet"
	"vsystem/internal/sim"
	"vsystem/internal/trace"
	"vsystem/internal/vid"
)

// TestClientRule runs each of the client's cases against a real server
// and a stand-in replica outside the group that declines every request
// with CodeNotLeader, naming the real server in W4 or nobody. It records
// where each request went — "group", "server" or "decliner" — and whether
// a request to one server carried FsUnicast (a group request must not).
func TestClientRule(t *testing.T) {
	for _, tc := range []struct {
		name     string
		pin      string // "", "server" or "decliner"
		hint     bool   // the decliner names the server
		do       bool   // Do with one read, else Send
		op       uint16
		key      string
		want     []string
		code     uint16
		pinAfter string
	}{
		{name: "unpinned, a single request goes to the group and pins its answer",
			op: OpPageIn, key: "pg/1", want: []string{"group"}, pinAfter: "server"},
		{name: "unpinned, a definitive refusal from the group pins nothing",
			op: OpPageIn, key: "pg/none", want: []string{"group"}, code: vid.CodeNotFound, pinAfter: ""},
		{name: "unpinned, an exchange stats the group first and pins its answer",
			do: true, op: OpRead, key: "prog", want: []string{"group", "server"}, pinAfter: "server"},
		{name: "pinned, one request to the pin",
			pin: "server", op: OpPageIn, key: "pg/1", want: []string{"server"}, pinAfter: "server"},
		{name: "not found is definitive",
			pin: "server", op: OpPageIn, key: "pg/none", want: []string{"server"}, code: vid.CodeNotFound, pinAfter: "server"},
		{name: "a decline naming the leader re-pins and resends once",
			pin: "decliner", hint: true, op: OpPageIn, key: "pg/1", want: []string{"decliner", "server"}, pinAfter: "server"},
		{name: "a decline without a hint unpins, the request goes to the group",
			pin: "decliner", op: OpPageIn, key: "pg/1", want: []string{"decliner", "group"}, pinAfter: "server"},
		{name: "a decline without a hint unpins, the exchange stats the group",
			pin: "decliner", do: true, op: OpRead, key: "prog", want: []string{"decliner", "group", "server"}, pinAfter: "server"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.NewEngine(1)
			bus := ethernet.NewBus(eng)
			ch := kernel.NewHost(eng, bus, 0, "ws0")
			fs := Start(kernel.NewHost(eng, bus, 1, "fserv"))
			fs.Put("prog", []byte("v-system"))
			fs.st.pages["pg/1"] = []byte("page")
			dh := kernel.NewHost(eng, bus, 2, "decliner")
			hint := vid.Nil
			if tc.hint {
				hint = fs.PID()
			}
			decliner := dh.SpawnServer("decliner", 4096, func(ctx *kernel.ProcCtx) {
				for {
					req := ctx.Receive()
					ctx.Reply(req, vid.Message{Op: req.Msg.Op, Code: vid.CodeNotLeader, W: [6]uint32{4: uint32(hint)}})
				}
			}).PID()
			name := map[vid.PID]string{vid.Nil: "", vid.GroupFileServers: "group", fs.PID(): "server", decliner: "decliner"}
			pids := map[string]vid.PID{"": vid.Nil, "server": fs.PID(), "decliner": decliner}

			var c Client
			c.pin = pids[tc.pin]
			var sent []string
			var reply vid.Message
			var err error
			caller := ch.SpawnServer("caller", 4096, func(ctx *kernel.ProcCtx) {
				m := vid.Message{Op: tc.op, W: [6]uint32{1: vid.SegMax}, Seg: []byte(tc.key)}
				if tc.do {
					m.W[5] = FsUnicast
					reply, err = c.Do(ctx, tc.key, func(dst vid.PID) (vid.Message, error) { return ctx.Send(dst, m) })
				} else {
					reply, err = c.Send(ctx, m)
				}
			}).PID()
			seen := map[uint32]bool{}
			tb := trace.NewBus()
			ch.AttachTrace(tb)
			tb.Subscribe(func(ev trace.Event) {
				if p := ev.Pkt; ev.Kind == trace.EvPktTx && p.Kind == packet.KRequest && p.Src == caller && !seen[p.TxID] {
					seen[p.TxID] = true
					if unicast := p.Msg.W[5]&FsUnicast != 0; unicast == p.Dst.IsGroup() {
						t.Errorf("request to %s: FsUnicast %v", name[p.Dst], unicast)
					}
					sent = append(sent, name[p.Dst])
				}
			})
			eng.RunFor(time.Minute)
			if err != nil || reply.Code != tc.code {
				t.Fatalf("reply %v, %v; want code %d", reply, err, tc.code)
			}
			if !reflect.DeepEqual(sent, tc.want) {
				t.Errorf("requests went to %q, want %q", sent, tc.want)
			}
			if got := name[c.Pinned()]; got != tc.pinAfter {
				t.Errorf("pinned %q after, want %q", got, tc.pinAfter)
			}
		})
	}
}
