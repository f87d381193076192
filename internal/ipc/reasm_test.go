package ipc

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"vsystem/internal/ethernet"
	"vsystem/internal/packet"
	"vsystem/internal/vid"
)

// refReasm is the reassembly the engine had before it copied fragments
// into one buffer: every fragment's bytes kept as a chunk of their own and
// concatenated when the summary arrives. It is the reference the engine's
// handleFrag/completeSeg are checked against, for one logical packet.
type refReasm struct {
	chunks [][]byte
	got    int
	live   bool
}

func (b *refReasm) handleFrag(p *packet.Packet) {
	if !b.live {
		*b = refReasm{chunks: make([][]byte, p.FragCount), live: true}
	}
	if int(p.FragIdx) < len(b.chunks) && b.chunks[p.FragIdx] == nil {
		b.chunks[p.FragIdx] = p.Data
		b.got++
	}
}

// completeSeg returns the segment, or the fragment indices to NACK.
func (b *refReasm) completeSeg(p *packet.Packet) (seg []byte, missing []uint16, ok bool) {
	if p.FragCount == 0 {
		return p.Msg.Seg, nil, true
	}
	if !b.live || b.got < int(p.FragCount) {
		for i := 0; i < int(p.FragCount); i++ {
			if !b.live || i >= len(b.chunks) || b.chunks[i] == nil {
				missing = append(missing, uint16(i))
			}
		}
		return nil, missing, false
	}
	seg = make([]byte, 0, p.SegLen)
	for _, c := range b.chunks {
		seg = append(seg, c...)
	}
	if uint32(len(seg)) > p.SegLen {
		seg = seg[:p.SegLen]
	}
	*b = refReasm{}
	return seg, nil, true
}

// reasmPair feeds one packet stream to the engine and to the reference and
// fails the test at the first divergence.
type reasmPair struct {
	t    *testing.T
	eng  *Engine
	ref  refReasm
	what string
}

var reasmSrc, reasmDst = vid.NewPID(10, 16), vid.NewPID(20, 16)

func (rp *reasmPair) frag(idx, count int, data []byte) {
	mk := func() *packet.Packet {
		return &packet.Packet{
			Kind: packet.KFrag, TxID: 5, Src: reasmSrc, Dst: reasmDst, OfKind: packet.KRequest,
			FragIdx: uint16(idx), FragCount: uint16(count), Data: data,
		}
	}
	rp.eng.handleFrag(mk())
	rp.ref.handleFrag(mk())
}

// summary delivers the summary packet and reports whether the segment
// completed.
func (rp *reasmPair) summary(count int, segLen uint32) bool {
	rp.t.Helper()
	mk := func() *packet.Packet {
		return &packet.Packet{
			Kind: packet.KRequest, TxID: 5, Src: reasmSrc, Dst: reasmDst,
			FragCount: uint16(count), SegLen: segLen,
		}
	}
	p := mk()
	lent, ok := rp.eng.completeSeg(p, 2, nil)
	// The consumer hands the buffer back once it has read the segment: the
	// next reassembly on this (poisoning) engine starts from garbage.
	defer rp.eng.segs.Put(lent)
	wantSeg, wantMissing, wantOK := rp.ref.completeSeg(mk())
	if ok != wantOK {
		rp.t.Fatalf("%s: completeSeg = %v, reference %v", rp.what, ok, wantOK)
	}
	if ok {
		if !bytes.Equal(p.Msg.Seg, wantSeg) {
			rp.t.Fatalf("%s: delivered %d bytes, reference %d; first difference at %d",
				rp.what, len(p.Msg.Seg), len(wantSeg), firstDiff(p.Msg.Seg, wantSeg))
		}
		if p.FragCount != 0 || (count > 0 && len(rp.eng.reasm) != 0) {
			rp.t.Fatalf("%s: completed but FragCount %d, %d buffers left", rp.what, p.FragCount, len(rp.eng.reasm))
		}
		return true
	}
	if count == 0 {
		return false
	}
	j, queued := rp.eng.jobs.TryPop()
	if !queued || j.out == nil || j.out.Kind != packet.KFragNack || j.dst != 2 {
		rp.t.Fatalf("%s: incomplete segment but no NACK queued (%+v)", rp.what, j)
	}
	if !reflect.DeepEqual(j.out.Missing, wantMissing) {
		rp.t.Fatalf("%s: NACK asks for %v, reference %v", rp.what, j.out.Missing, wantMissing)
	}
	return false
}

func firstDiff(a, b []byte) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

func newReasmPair(t *testing.T, what string) *reasmPair {
	r := newRig(t, 1, 1)
	t.Cleanup(r.sim.Shutdown)
	return &reasmPair{t: t, eng: r.hosts[0].eng, what: what}
}

func randSeg(rng *rand.Rand, n int) []byte {
	seg := make([]byte, n)
	rng.Read(seg)
	return seg
}

// TestReassemblyEveryArrivalOrder delivers a four-fragment segment in each
// of its 24 orders, asking for the segment after every fragment.
func TestReassemblyEveryArrivalOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	seg := randSeg(rng, 3*packet.FragChunk+517)
	var permute func(order []int, k int)
	permute = func(order []int, k int) {
		if k == len(order) {
			rp := newReasmPair(t, fmt.Sprint("order ", order))
			for step, i := range order {
				rp.frag(i, 4, packet.FragOf(seg, i))
				if done := rp.summary(4, uint32(len(seg))); done != (step == 3) {
					t.Fatalf("order %v: complete=%v after %d fragments", order, done, step+1)
				}
			}
			return
		}
		for i := k; i < len(order); i++ {
			order[k], order[i] = order[i], order[k]
			permute(order, k+1)
			order[k], order[i] = order[i], order[k]
		}
	}
	permute([]int{0, 1, 2, 3}, 0)
}

// TestReassemblyMalformed stages, one at a time, the streams a correct
// sender never produces.
func TestReassemblyMalformed(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const C = packet.FragChunk
	seg := randSeg(rng, 4*C+100) // five fragments
	all := func(rp *reasmPair, skip int) {
		for i := 0; i < 5; i++ {
			if i != skip {
				rp.frag(i, 5, packet.FragOf(seg, i))
			}
		}
	}

	rp := newReasmPair(t, "duplicate with other bytes")
	all(rp, -1)
	rp.frag(2, 5, randSeg(rng, C)) // the first copy wins
	rp.summary(5, uint32(len(seg)))

	rp = newReasmPair(t, "lost then repaired")
	all(rp, 3)
	rp.summary(5, uint32(len(seg))) // NACK [3]
	rp.summary(5, uint32(len(seg))) // and again on the retransmitted summary
	rp.frag(3, 5, packet.FragOf(seg, 3))
	if !rp.summary(5, uint32(len(seg))) {
		t.Fatal("repaired segment did not complete")
	}

	rp = newReasmPair(t, "short interior fragment")
	all(rp, 1)
	rp.frag(1, 5, packet.FragOf(seg, 1)[:300])
	rp.summary(5, uint32(len(seg)))

	rp = newReasmPair(t, "empty interior fragment")
	all(rp, 2)
	rp.frag(2, 5, []byte{})
	rp.summary(5, uint32(len(seg)))

	rp = newReasmPair(t, "data longer than a chunk")
	all(rp, 1)
	rp.frag(1, 5, randSeg(rng, C+377))
	rp.summary(5, uint32(len(seg)))

	rp = newReasmPair(t, "long last fragment, nothing to truncate")
	all(rp, 4)
	rp.frag(4, 5, randSeg(rng, C+200))
	rp.summary(5, 1<<20)

	rp = newReasmPair(t, "index beyond the count")
	rp.frag(7, 5, randSeg(rng, C)) // opens the buffer, stores nothing
	rp.frag(5, 5, randSeg(rng, C))
	rp.summary(5, uint32(len(seg))) // NACK everything
	all(rp, -1)
	rp.summary(5, uint32(len(seg)))

	rp = newReasmPair(t, "summary counts fewer fragments than arrived")
	all(rp, -1)
	rp.summary(3, uint32(len(seg)))

	rp = newReasmPair(t, "summary counts fewer, with gaps among the arrived")
	rp.frag(0, 5, packet.FragOf(seg, 0))
	rp.frag(1, 5, packet.FragOf(seg, 1))
	rp.frag(4, 5, packet.FragOf(seg, 4))
	rp.summary(3, uint32(len(seg))) // three arrived: passes the count test

	rp = newReasmPair(t, "summary counts more fragments than the buffer has")
	all(rp, -1)
	rp.summary(8, uint32(len(seg))) // NACK [5 6 7], for ever

	rp = newReasmPair(t, "summary with a short SegLen")
	all(rp, -1)
	rp.summary(5, 2*C+9)

	rp = newReasmPair(t, "summary with a long SegLen")
	all(rp, -1)
	rp.summary(5, 40*C)

	rp = newReasmPair(t, "first fragment announces no fragments")
	rp.frag(0, 0, packet.FragOf(seg, 0))
	all(rp, -1)
	rp.summary(5, uint32(len(seg)))

	rp = newReasmPair(t, "summary before any fragment")
	rp.summary(5, uint32(len(seg)))
	rp.summary(0, 0)
}

// TestReassemblyRandomStreams mixes all of the above at random.
func TestReassemblyRandomStreams(t *testing.T) {
	const C = packet.FragChunk
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rp := newReasmPair(t, fmt.Sprint("seed ", seed))
		n := 1 + rng.Intn(8)
		if rng.Intn(10) == 0 {
			n = maxFrags
		}
		seg := randSeg(rng, (n-1)*C+1+rng.Intn(C))
		odd := func(p int) bool { return rng.Intn(100) < p }
		count := func() int {
			if odd(5) {
				return rng.Intn(maxFrags + 1)
			}
			return n
		}
		for step := 0; step < 4*n+4; step++ {
			if odd(20) {
				segLen := uint32(len(seg))
				if odd(10) {
					segLen = uint32(rng.Intn(2 * len(seg)))
				}
				if rp.summary(count(), segLen) && odd(50) {
					break
				}
				continue
			}
			i := rng.Intn(n)
			data := packet.FragOf(seg, i)
			switch {
			case odd(4):
				data = data[:rng.Intn(len(data)+1)]
			case odd(4):
				data = randSeg(rng, C+1+rng.Intn(400))
			case odd(4):
				i = n + rng.Intn(4)
			}
			rp.frag(i, count(), data)
		}
		rp.summary(n, uint32(len(seg)))
	}
}

// TestReassemblyRejectsImpossibleCounts: a packet announcing more
// fragments than a maximal segment has opens no buffer and draws no NACK —
// nothing a 64 K-entry gap list could be carried in.
func TestReassemblyRejectsImpossibleCounts(t *testing.T) {
	rp := newReasmPair(t, "impossible counts")
	for _, count := range []int{maxFrags + 1, 65535} {
		rp.eng.handleFrag(&packet.Packet{
			Kind: packet.KFrag, TxID: 5, Src: reasmSrc, Dst: reasmDst, OfKind: packet.KRequest,
			FragIdx: 1, FragCount: uint16(count), Data: make([]byte, packet.FragChunk),
		})
		if len(rp.eng.reasm) != 0 {
			t.Fatalf("a fragment of %d opened a reassembly buffer", count)
		}
		sum := &packet.Packet{Kind: packet.KRequest, TxID: 5, Src: reasmSrc, Dst: reasmDst,
			FragCount: uint16(count), SegLen: 1 << 30}
		if _, ok := rp.eng.completeSeg(sum, 2, nil); ok {
			t.Fatalf("a summary of %d fragments completed", count)
		}
		if rp.eng.jobs.Len() != 0 {
			t.Fatalf("a summary of %d fragments drew a NACK", count)
		}
	}
}

// TestBeaconReceiveAllocatesNothing: a load beacon reaching a host — frame
// delivery, netd's wake-up, the CPU charge, decode, the load sink — costs
// that host no allocation.
func TestBeaconReceiveAllocatesNothing(t *testing.T) {
	r := newRig(t, 2, 1)
	t.Cleanup(r.sim.Shutdown)
	heard := 0
	r.hosts[1].eng.SetLoadSink(func(ad [6]uint32) { heard += int(ad[0]) })
	beacon := packet.AppendMarshal(nil, &packet.Packet{Kind: packet.KLoadAd, HasAd: true, Ad: [6]uint32{1}})
	hear := func() {
		r.hosts[0].nic.StartSend(ethernet.Frame{Dst: ethernet.Broadcast, Payload: beacon}, nil)
		r.sim.Run()
	}
	hear()
	if n := testing.AllocsPerRun(100, hear); n != 0 {
		t.Fatalf("%v allocations per beacon received, want 0", n)
	}
	if heard != 102 {
		t.Fatalf("sink heard %d beacons, want 102", heard)
	}
}
