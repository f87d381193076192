// Package packet defines the inter-kernel wire protocol of the simulated
// V-System: the packet kinds, their binary encoding, and fragmentation of
// large segments into Ethernet-sized frames.
//
// The protocol is the substrate the paper's migration machinery depends on:
// request/reply transactions with retransmission, reply-pending packets for
// busy or frozen destinations (§3.1.3), logical-host locate broadcasts and
// new-binding notices for reference rebinding (§3.1.4), and multi-frame
// transfers for the 32 Kbyte units V routinely moved (§3.1).
//
// Buffer ownership: AppendMarshal copies everything it is given into the
// buffer it is handed. UnmarshalInto copies nothing: an inline Msg.Seg and
// a KFrag's Data are slices of its input. The ipc engine copies a fragment
// onward into its reassembly buffer, and an inline segment, which outlives
// the frame, out of it or — a long one — keeps the frame's payload and
// lends it to the receiver. A frame payload is never written once
// transmitted (a corrupted delivery mangles a copy).
//
// The Packet itself is the caller's: the ipc engine decodes every frame
// into one Packet it owns and transmits through another (UnmarshalInto
// overwrites all of *p, AppendMarshal keeps no reference to it), so the
// protocol paths allocate none. Unmarshal, which makes a new one each time,
// is for tests and tools.
package packet

import (
	"errors"
	"fmt"
	"slices"

	"vsystem/internal/vid"
)

// Kind discriminates packet types.
type Kind uint8

const (
	// KInvalid is the zero Kind.
	KInvalid Kind = iota
	// KRequest carries a Send's message to the destination process.
	KRequest
	// KReply carries the reply message back to the sender.
	KReply
	// KReplyPending tells a retransmitting sender that its request was
	// received but the reply is not ready (receiver busy, queued, or
	// frozen); it resets the sender's abort timer.
	KReplyPending
	// KNoProc tells the sender the destination process does not exist.
	KNoProc
	// KLocateReq broadcasts "which host has logical host L?".
	KLocateReq
	// KLocateResp answers a locate; the answering host's MAC is the
	// frame source.
	KLocateResp
	// KBinding broadcasts a new logical-host binding after migration
	// (the §3.1.4 optimization).
	KBinding
	// KFrag carries one fragment of a large segment; the carried
	// OfKind/TxID/Src identify the logical packet it belongs to.
	KFrag
	// KFragNack asks the original sender to retransmit the listed
	// missing fragments (selective repair).
	KFragNack
	// KLoadAd carries a host's compact load advertisement to the load
	// listeners (the scheduling layer's periodic beacon); the Ad words
	// carry the load.
	KLoadAd
	kindMax
)

var kindNames = [...]string{
	"invalid", "request", "reply", "reply-pending", "no-proc",
	"locate-req", "locate-resp", "binding", "frag", "frag-nack", "load-ad",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind%d", uint8(k))
}

// InlineSegMax is the largest segment carried inline in a single frame;
// larger segments are fragmented.
const InlineSegMax = 1024

// FragChunk is the fragment payload size.
const FragChunk = 1024

// Packet is the decoded form of any protocol packet. Field use varies by
// Kind; unused fields encode as zero.
type Packet struct {
	Kind Kind
	// TxID identifies the transaction (per sending process, monotonic).
	TxID uint32
	// Src and Dst are process identifiers; for locate/binding packets
	// they are unused, and a KLoadAd's Src is the advertising host's
	// program manager.
	Src, Dst vid.PID
	// LH is the subject of locate and binding packets. On a KReply it is
	// the logical host the replier just made resident on its station (a
	// program manager's create reply), 0 on every other.
	LH vid.LHID
	// Msg is the fixed-part message for KRequest/KReply.
	Msg vid.Message
	// SegLen is the total segment length when the segment travels as
	// fragments (FragCount > 0); the Msg.Seg field is then empty.
	SegLen uint32
	// FragCount is the number of KFrag frames the segment was split
	// into (0 = inline or no segment).
	FragCount uint16
	// OfKind / FragIdx describe a KFrag: which logical packet kind it
	// belongs to and which chunk it carries.
	OfKind  Kind
	FragIdx uint16
	// Data is the fragment chunk (KFrag).
	Data []byte
	// Missing lists fragment indices to retransmit (KFragNack).
	Missing []uint16
	// Ad is a compact load advertisement: piggybacked on KReply frames
	// when the sending kernel exports one (HasAd set), and the payload of
	// KLoadAd beacons. Word layout is owned by internal/sched.
	Ad    [6]uint32
	HasAd bool
}

// ErrTruncated reports a malformed/short encoding.
var ErrTruncated = errors.New("packet: truncated")

// ErrBadKind reports an unknown packet kind.
var ErrBadKind = errors.New("packet: bad kind")

const headerLen = 1 + 4 + 4 + 4 + 2 // kind, txid, src, dst, lh

// Marshal encodes the packet into a new buffer.
func Marshal(p *Packet) []byte { return AppendMarshal(nil, p) }

// AppendMarshal appends the packet's encoding to dst and returns the
// extended buffer, growing it at most once if the encoding does not fit.
func AppendMarshal(dst []byte, p *Packet) []byte {
	// Conservative size: header + fixed message + variable parts.
	a := vid.Appender{B: slices.Grow(dst, headerLen+40+len(p.Msg.Seg)+len(p.Data)+2*len(p.Missing)+16)}
	a.U8(uint8(p.Kind))
	a.U32(p.TxID)
	a.U32(uint32(p.Src))
	a.U32(uint32(p.Dst))
	a.U16(uint16(p.LH))
	switch p.Kind {
	case KRequest, KReply:
		a.U16(p.Msg.Op)
		a.U16(p.Msg.Code)
		for _, w := range p.Msg.W {
			a.U32(w)
		}
		a.U32(p.SegLen)
		a.U16(p.FragCount)
		a.Bytes(p.Msg.Seg)
		if p.Kind == KReply {
			a.Bool(p.HasAd)
			if p.HasAd {
				for _, w := range p.Ad {
					a.U32(w)
				}
			}
		}
	case KLoadAd:
		for _, w := range p.Ad {
			a.U32(w)
		}
	case KFrag:
		a.U8(uint8(p.OfKind))
		a.U16(p.FragIdx)
		a.U16(p.FragCount)
		a.Bytes(p.Data)
	case KFragNack:
		a.U8(uint8(p.OfKind))
		a.Count(len(p.Missing))
		for _, m := range p.Missing {
			a.U16(m)
		}
	case KReplyPending, KNoProc, KLocateReq, KLocateResp, KBinding:
		// Header-only kinds.
	default:
		panic(fmt.Sprintf("packet: marshal of %v", p.Kind))
	}
	return a.B
}

// Unmarshal decodes a packet. The result's Msg.Seg and Data, if any, alias b.
func Unmarshal(b []byte) (*Packet, error) {
	p := new(Packet)
	if err := UnmarshalInto(p, b); err != nil {
		return nil, err
	}
	return p, nil
}

// UnmarshalInto decodes a packet into *p, overwriting all of it; on error
// *p holds nothing usable. p.Msg.Seg and p.Data, if any, alias b.
func UnmarshalInto(p *Packet, b []byte) error {
	r := vid.NewReader(b)
	*p = Packet{}
	p.Kind = Kind(r.U8())
	if p.Kind == KInvalid || p.Kind >= kindMax {
		return ErrBadKind
	}
	p.TxID = r.U32()
	p.Src = vid.PID(r.U32())
	p.Dst = vid.PID(r.U32())
	p.LH = vid.LHID(r.U16())
	switch p.Kind {
	case KRequest, KReply:
		p.Msg.Op = r.U16()
		p.Msg.Code = r.U16()
		for i := range p.Msg.W {
			p.Msg.W[i] = r.U32()
		}
		p.SegLen = r.U32()
		p.FragCount = r.U16()
		if n := int(r.U16()); n > 0 {
			p.Msg.Seg = r.Take(n)
		}
		if p.Kind == KReply {
			p.HasAd = r.Bool()
			if p.HasAd {
				for i := range p.Ad {
					p.Ad[i] = r.U32()
				}
			}
		}
	case KLoadAd:
		p.HasAd = true
		for i := range p.Ad {
			p.Ad[i] = r.U32()
		}
	case KFrag:
		p.OfKind = Kind(r.U8())
		p.FragIdx = r.U16()
		p.FragCount = r.U16()
		n := int(r.U16())
		p.Data = r.Take(n)
	case KFragNack:
		p.OfKind = Kind(r.U8())
		n := r.Count(2)
		p.Missing = make([]uint16, n)
		for i := 0; i < n; i++ {
			p.Missing[i] = r.U16()
		}
	}
	if r.Done() != nil {
		return ErrTruncated
	}
	return nil
}

// NumFrags returns how many KFrag frames a segment of n bytes needs, or 0
// if it fits inline.
func NumFrags(n int) int {
	if n <= InlineSegMax {
		return 0
	}
	return (n + FragChunk - 1) / FragChunk
}

// FragOf extracts fragment i of the given segment.
func FragOf(seg []byte, i int) []byte {
	lo := i * FragChunk
	hi := lo + FragChunk
	if hi > len(seg) {
		hi = len(seg)
	}
	return seg[lo:hi]
}

func (p *Packet) String() string {
	switch p.Kind {
	case KLocateReq, KLocateResp, KBinding:
		return fmt.Sprintf("%v(%v)", p.Kind, p.LH)
	case KFrag:
		return fmt.Sprintf("frag(%v tx=%d %d/%d)", p.OfKind, p.TxID, p.FragIdx+1, p.FragCount)
	default:
		return fmt.Sprintf("%v(tx=%d %v→%v)", p.Kind, p.TxID, p.Src, p.Dst)
	}
}
