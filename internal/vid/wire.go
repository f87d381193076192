package vid

import (
	"encoding/binary"
	"errors"
	"math"
)

// The wire pair every structured segment is built on: an Appender that
// writes little-endian fields onto a byte slice and a Reader that takes
// them off again. Every form that crosses the wire or enters a replicated
// log — packet headers, kernel state, page runs, program-manager requests,
// replication messages, registry and server log commands and snapshots,
// migration reports, image files — is a fixed layout over these two, so
// equal values always encode to equal bytes and a segment's length (which
// is virtual wire time) depends on nothing but the value.
//
// Encoding cannot fail: a value too large for its length word is a
// programming error and panics. Decoding never panics: the Reader's error
// is sticky, every read is bounds-checked, every count is checked against
// the bytes that are left before anything is allocated for it, and Done
// refuses trailing bytes.

// ErrTruncated reports a wire form that ends before its fields do.
var ErrTruncated = errors.New("vid: truncated wire form")

// ErrMalformed reports a wire form whose bytes are all there but do not
// make a value: a flag byte that is neither 0 nor 1, a count the remaining
// bytes cannot hold, bytes left over after the last field.
var ErrMalformed = errors.New("vid: malformed wire form")

// Appender builds a wire form in B.
type Appender struct{ B []byte }

// U8 appends one byte.
func (a *Appender) U8(v uint8) { a.B = append(a.B, v) }

// U16 appends a 16-bit word.
func (a *Appender) U16(v uint16) { a.B = binary.LittleEndian.AppendUint16(a.B, v) }

// U32 appends a 32-bit word.
func (a *Appender) U32(v uint32) { a.B = binary.LittleEndian.AppendUint32(a.B, v) }

// U64 appends a 64-bit word.
func (a *Appender) U64(v uint64) { a.B = binary.LittleEndian.AppendUint64(a.B, v) }

// F64 appends a float's IEEE 754 bits.
func (a *Appender) F64(v float64) { a.U64(math.Float64bits(v)) }

// Bool appends a flag byte, 0 or 1.
func (a *Appender) Bool(v bool) {
	if v {
		a.B = append(a.B, 1)
	} else {
		a.B = append(a.B, 0)
	}
}

// Count appends a 16-bit element or byte count.
func (a *Appender) Count(n int) {
	if n < 0 || n > math.MaxUint16 {
		panic("vid: count does not fit its length word")
	}
	a.U16(uint16(n))
}

// Bytes appends p behind a 16-bit length.
func (a *Appender) Bytes(p []byte) {
	a.Count(len(p))
	a.B = append(a.B, p...)
}

// String appends s behind a 16-bit length.
func (a *Appender) String(s string) {
	a.Count(len(s))
	a.B = append(a.B, s...)
}

// Strings appends a counted list of strings.
func (a *Appender) Strings(ss []string) {
	a.Count(len(ss))
	for _, s := range ss {
		a.String(s)
	}
}

// MessageLen is the encoded size of a Message with an empty segment.
const MessageLen = 2 + 2 + 6*4 + 2

// Message appends a message: op, code, six words, the segment behind its
// length.
func (a *Appender) Message(m *Message) {
	a.U16(m.Op)
	a.U16(m.Code)
	for _, w := range m.W {
		a.U32(w)
	}
	a.Bytes(m.Seg)
}

// Reader takes fields off the front of a wire form. After the first
// failure every read returns zero and Err reports the failure.
type Reader struct {
	b   []byte
	off int
	err error
}

// NewReader reads from b. Take and Rest return slices of b itself; Bytes
// returns a copy.
func NewReader(b []byte) Reader { return Reader{b: b} }

// Err returns the first failure, or nil.
func (r *Reader) Err() error { return r.err }

// Len returns how many bytes are left.
func (r *Reader) Len() int { return len(r.b) - r.off }

// Fail records err unless an earlier failure is already recorded.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Done returns the first failure, or ErrMalformed if bytes are left over.
func (r *Reader) Done() error {
	if r.err == nil && r.off != len(r.b) {
		r.err = ErrMalformed
	}
	return r.err
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	if r.err != nil || r.off+1 > len(r.b) {
		r.Fail(ErrTruncated)
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

// U16 reads a 16-bit word.
func (r *Reader) U16() uint16 {
	if r.err != nil || r.off+2 > len(r.b) {
		r.Fail(ErrTruncated)
		return 0
	}
	v := binary.LittleEndian.Uint16(r.b[r.off:])
	r.off += 2
	return v
}

// U32 reads a 32-bit word.
func (r *Reader) U32() uint32 {
	if r.err != nil || r.off+4 > len(r.b) {
		r.Fail(ErrTruncated)
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

// U64 reads a 64-bit word.
func (r *Reader) U64() uint64 {
	if r.err != nil || r.off+8 > len(r.b) {
		r.Fail(ErrTruncated)
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

// F64 reads a float's IEEE 754 bits.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Bool reads a flag byte; anything but 0 or 1 is malformed.
func (r *Reader) Bool() bool {
	v := r.U8()
	if v > 1 {
		r.Fail(ErrMalformed)
		return false
	}
	return v == 1
}

// Take returns the next n bytes of the input itself, not a copy.
func (r *Reader) Take(n int) []byte {
	if r.err != nil || n < 0 || n > len(r.b)-r.off {
		r.Fail(ErrTruncated)
		return nil
	}
	v := r.b[r.off : r.off+n : r.off+n]
	r.off += n
	return v
}

// Rest returns every byte that is left, a slice of the input capped at its
// end, and leaves nothing to read.
func (r *Reader) Rest() []byte { return r.Take(r.Len()) }

// Count reads a 16-bit element count and checks it against the bytes
// left: elements of at least min bytes each must still fit, so a decoder
// can size a slice by the count without trusting it.
func (r *Reader) Count(min int) int {
	n := int(r.U16())
	if r.err == nil && n*min > r.Len() {
		r.Fail(ErrMalformed)
		return 0
	}
	return n
}

// Bytes reads a length-prefixed byte string into a fresh slice (nil when
// empty).
func (r *Reader) Bytes() []byte {
	p := r.Take(int(r.U16()))
	if len(p) == 0 {
		return nil
	}
	return append([]byte(nil), p...)
}

// String reads a length-prefixed string.
func (r *Reader) String() string { return string(r.Take(int(r.U16()))) }

// Strings reads a counted list of strings (nil when empty).
func (r *Reader) Strings() []string {
	n := r.Count(2)
	if n == 0 {
		return nil
	}
	ss := make([]string, n)
	for i := range ss {
		ss[i] = r.String()
	}
	return ss
}

// Message reads a message; its segment is a copy.
func (r *Reader) Message() Message {
	var m Message
	m.Op = r.U16()
	m.Code = r.U16()
	for i := range m.W {
		m.W[i] = r.U32()
	}
	m.Seg = r.Bytes()
	return m
}
