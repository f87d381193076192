// Package wiretest holds the checks every wire form's tests share (the
// forms are listed in DESIGN §10): a value survives the round trip and
// re-encodes to the same bytes; a segment cut short anywhere, carrying one
// byte too many, or declaring a count its bytes cannot hold is an error,
// never a panic; and, under fuzzing, whatever decodes re-encodes to the
// segment it came from — the forms carry no redundancy, so a lying length
// cannot smuggle bytes past the bounds checks.
package wiretest

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"
)

// Form is one wire form's codec pair.
type Form[T any] struct {
	Encode func(*T) []byte
	Decode func([]byte) (*T, error)
}

// RoundTrip encodes v, decodes the segment and checks that the value and
// its encoding both come back unchanged. It returns the segment.
func (f Form[T]) RoundTrip(t *testing.T, v *T) []byte {
	t.Helper()
	seg := f.Encode(v)
	got, err := f.Decode(seg)
	if err != nil {
		t.Fatalf("decode of a valid segment: %v", err)
	}
	if !reflect.DeepEqual(got, v) {
		t.Fatalf("round trip changed the value:\n got %+v\nwant %+v", got, v)
	}
	if again := f.Encode(got); !bytes.Equal(again, seg) {
		t.Fatalf("round trip changed the encoding:\n got %x\nwant %x", again, seg)
	}
	return seg
}

// Count names a 16-bit count inside a valid segment: where it is and what
// it holds there.
type Count struct{ Off, N int }

// Malformed checks that every strict prefix of seg, seg with one trailing
// byte, and seg with each of the given counts raised to 65535 all fail to
// decode.
func (f Form[T]) Malformed(t *testing.T, seg []byte, counts ...Count) {
	t.Helper()
	for n := 0; n < len(seg); n++ {
		if _, err := f.Decode(seg[:n:n]); err == nil {
			t.Fatalf("decoded a segment truncated to %d of %d bytes", n, len(seg))
		}
	}
	if _, err := f.Decode(append(bytes.Clone(seg), 0)); err == nil {
		t.Fatal("decoded a segment with a trailing byte")
	}
	for _, c := range counts {
		if got := int(binary.LittleEndian.Uint16(seg[c.Off:])); got != c.N {
			t.Fatalf("the test's layout is stale: offset %d holds %d, not the count %d", c.Off, got, c.N)
		}
		bad := bytes.Clone(seg)
		binary.LittleEndian.PutUint16(bad[c.Off:], 0xFFFF)
		if _, err := f.Decode(bad); err == nil {
			t.Fatalf("decoded a segment whose count at offset %d says 65535", c.Off)
		}
	}
}

// Fuzz feeds arbitrary segments to the decoder: it must not panic, and a
// segment it accepts must be exactly what its value encodes to.
func (f Form[T]) Fuzz(fz *testing.F) {
	fz.Fuzz(func(t *testing.T, seg []byte) {
		v, err := f.Decode(seg)
		if err != nil {
			return
		}
		if again := f.Encode(v); !bytes.Equal(again, seg) {
			t.Fatalf("accepted a segment that is not its value's encoding:\n got %x\nwant %x", again, seg)
		}
	})
}
