package freelist

import "testing"

func TestGetPutBoundAndPoison(t *testing.T) {
	var sw Switch
	l := New(64, 2, &sw)
	a := l.Get()
	if len(a) != 0 || cap(a) != 64 || l.Len() != 0 {
		t.Fatalf("first Get: len %d cap %d, list %d", len(a), cap(a), l.Len())
	}
	a = append(a, 1, 2, 3)
	l.Put(a)
	if b := l.Get(); &b[:1][0] != &a[0] || len(b) != 0 || b[:3][2] != 3 {
		t.Fatal("Get after Put: want the same array, emptied, untouched")
	}

	sw = true
	l.Put(a[1:2]) // any slice of the array gives back all that is left of it
	if a[0] != 1 || a[1] != Poison || a[2] != Poison || l.Len() != 0 {
		t.Fatalf("short remainder: % x, list %d; want poisoned from the slice on and dropped", a[:3], l.Len())
	}
	l.Put(make([]byte, 10, 32)) // too small to hand out again
	l.Put(nil)
	if l.Len() != 0 {
		t.Fatalf("list kept %d buffers it cannot hand out", l.Len())
	}
	for i := 0; i < 3; i++ {
		l.Put(make([]byte, 5, 100))
	}
	if l.Len() != 2 {
		t.Fatalf("list keeps %d buffers, bound is 2", l.Len())
	}
	if b := l.Get(); len(b) != 0 || cap(b) != 100 || b[:1][0] != Poison {
		t.Fatalf("Get of a poisoned buffer: len %d cap %d first %#x", len(b), cap(b), b[:1][0])
	}
	if n := testing.AllocsPerRun(100, func() { l.Put(l.Get()) }); n != 0 {
		t.Fatalf("%v allocations per Get and Put", n)
	}
}
