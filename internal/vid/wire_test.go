package vid

import (
	"math"
	"reflect"
	"testing"
)

func TestWireRoundTrip(t *testing.T) {
	msg := Message{Op: 7, Code: CodeRefused, W: [6]uint32{1, 2, 3, 4, 5, 6}, Seg: []byte("segment")}
	var a Appender
	a.U8(0xAB)
	a.U16(0xBEEF)
	a.U32(0xDEADBEEF)
	a.U64(1<<63 | 5)
	a.F64(math.Pi)
	a.Bool(true)
	a.Bool(false)
	a.Bytes([]byte{1, 2, 3})
	a.String("tex")
	a.Strings([]string{"-O", "", "main.c"})
	a.Strings(nil)
	a.Message(&msg)
	a.Message(&Message{})

	r := NewReader(a.B)
	if v := r.U8(); v != 0xAB {
		t.Fatalf("U8 %#x", v)
	}
	if v := r.U16(); v != 0xBEEF {
		t.Fatalf("U16 %#x", v)
	}
	if v := r.U32(); v != 0xDEADBEEF {
		t.Fatalf("U32 %#x", v)
	}
	if v := r.U64(); v != 1<<63|5 {
		t.Fatalf("U64 %#x", v)
	}
	if v := r.F64(); v != math.Pi {
		t.Fatalf("F64 %v", v)
	}
	if !r.Bool() || r.Bool() {
		t.Fatal("Bool")
	}
	if v := r.Bytes(); !reflect.DeepEqual(v, []byte{1, 2, 3}) {
		t.Fatalf("Bytes %v", v)
	}
	if v := r.String(); v != "tex" {
		t.Fatalf("String %q", v)
	}
	if v := r.Strings(); !reflect.DeepEqual(v, []string{"-O", "", "main.c"}) {
		t.Fatalf("Strings %q", v)
	}
	if v := r.Strings(); v != nil {
		t.Fatalf("empty Strings %q, want nil", v)
	}
	if v := r.Message(); !reflect.DeepEqual(v, msg) {
		t.Fatalf("Message %v", v)
	}
	if v := r.Message(); !reflect.DeepEqual(v, Message{}) {
		t.Fatalf("zero Message %v", v)
	}
	if err := r.Done(); err != nil {
		t.Fatalf("Done: %v", err)
	}
}

func TestMessageLenIsTheEmptyMessage(t *testing.T) {
	var a Appender
	a.Message(&Message{})
	if len(a.B) != MessageLen {
		t.Fatalf("empty message encodes to %d bytes, MessageLen = %d", len(a.B), MessageLen)
	}
}

// The first failure sticks: later reads return zero, consume nothing and
// do not replace the error.
func TestReaderErrorIsSticky(t *testing.T) {
	r := NewReader([]byte{2, 0xFF, 0xFF, 0xFF, 0xFF})
	if r.Bool() || r.Err() != ErrMalformed {
		t.Fatalf("flag byte 2: err %v", r.Err())
	}
	if v := r.U32(); v != 0 || r.Err() != ErrMalformed {
		t.Fatalf("read after failure returned %#x, err %v", v, r.Err())
	}
	if r.Done() != ErrMalformed {
		t.Fatalf("Done after failure: %v", r.Done())
	}

	r = NewReader([]byte{1, 2, 3})
	if v := r.U32(); v != 0 || r.Err() != ErrTruncated {
		t.Fatalf("short U32 returned %#x, err %v", v, r.Err())
	}
	if v := r.U8(); v != 0 {
		t.Fatalf("U8 after a short read returned %#x", v)
	}
}

func TestReaderRefusesTrailingBytes(t *testing.T) {
	r := NewReader([]byte{1, 2})
	r.U8()
	if r.Err() != nil || r.Len() != 1 {
		t.Fatalf("err %v, %d left", r.Err(), r.Len())
	}
	if r.Done() != ErrMalformed {
		t.Fatalf("Done with a byte left: %v", r.Done())
	}
}

// A count is checked against the bytes left before anything is sized by it.
func TestReaderCountAgainstBytesLeft(t *testing.T) {
	seg := []byte{3, 0, 1, 1, 2, 2, 3, 3} // three 2-byte elements
	r := NewReader(seg)
	if n := r.Count(2); n != 3 || r.Err() != nil {
		t.Fatalf("Count = %d, err %v", n, r.Err())
	}
	r = NewReader(seg)
	if n := r.Count(3); n != 0 || r.Err() != ErrMalformed {
		t.Fatalf("Count of 3×3 bytes in 6 = %d, err %v", n, r.Err())
	}
	r = NewReader([]byte{0xFF, 0xFF})
	if ss := r.Strings(); ss != nil || r.Err() != ErrMalformed {
		t.Fatalf("65535 strings in 0 bytes: %v, err %v", ss, r.Err())
	}
	r = NewReader([]byte{5, 0, 'a'})
	if s := r.String(); s != "" || r.Err() != ErrTruncated {
		t.Fatalf("5-byte string in 1 byte: %q, err %v", s, r.Err())
	}
}

// Take and Rest hand out the input itself, capped, so an append cannot run
// into the bytes that follow.
func TestReaderTakeAliasesCapped(t *testing.T) {
	seg := []byte{1, 2, 3, 4}
	r := NewReader(seg)
	p := r.Take(2)
	if &p[0] != &seg[0] || cap(p) != 2 {
		t.Fatalf("Take: aliases=%v cap=%d", &p[0] == &seg[0], cap(p))
	}
	if q := r.Rest(); &q[0] != &seg[2] || len(q) != 2 || cap(q) != 2 || r.Len() != 0 {
		t.Fatalf("Rest: aliases=%v len=%d cap=%d left=%d", &q[0] == &seg[2], len(q), cap(q), r.Len())
	}
	if q := r.Take(3); q != nil || r.Err() != ErrTruncated {
		t.Fatalf("Take past the end: %v, err %v", q, r.Err())
	}
	if q := r.Rest(); q != nil {
		t.Fatalf("Rest after a failure: %v", q)
	}
}

func TestAppenderCountPanicsPastItsWord(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Count(65536) did not panic")
		}
	}()
	var a Appender
	a.Count(1 << 16)
}
