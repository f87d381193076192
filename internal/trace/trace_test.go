package trace

import (
	"testing"
	"time"

	"vsystem/internal/sim"
	"vsystem/internal/vid"
)

func TestNilBusIsANoOpTarget(t *testing.T) {
	var b *Bus
	b.Publish(Event{Kind: EvPktTx}) // must not panic
	b.PublishSpan(Span{Phase: PhaseFreeze})
	if b.Count(EvPktTx) != 0 {
		t.Fatal("nil bus counted an event")
	}
	if b.Spans() != nil || b.SpansFor(1) != nil {
		t.Fatal("nil bus returned non-nil data")
	}
}

func TestCountsAndSubscribersInOrder(t *testing.T) {
	b := NewBus()
	var order []int
	b.Subscribe(func(Event) { order = append(order, 1) })
	b.Subscribe(func(Event) { order = append(order, 2) })
	b.Publish(Event{Kind: EvPktTx})
	b.Publish(Event{Kind: EvPktTx})
	b.Publish(Event{Kind: EvFreeze})
	if b.Count(EvPktTx) != 2 || b.Count(EvFreeze) != 1 || b.Count(EvPktRx) != 0 {
		t.Fatalf("counts: tx=%d freeze=%d rx=%d", b.Count(EvPktTx), b.Count(EvFreeze), b.Count(EvPktRx))
	}
	want := []int{1, 2, 1, 2, 1, 2}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("subscribers ran out of order: %v", order)
		}
	}
}

func TestSpansAreCopiedAndFilterable(t *testing.T) {
	b := NewBus()
	var notified []Span
	b.SubscribeSpans(func(s Span) { notified = append(notified, s) })
	s1 := Span{LH: vid.LHID(5), Phase: PhasePrecopy, Round: 1, KB: 64, End: sim.Time(int64(time.Millisecond))}
	s2 := Span{LH: vid.LHID(6), Phase: PhaseFreeze}
	b.PublishSpan(s1)
	b.PublishSpan(s2)
	got := b.Spans()
	if len(got) != 2 || len(notified) != 2 {
		t.Fatalf("spans=%d notified=%d", len(got), len(notified))
	}
	got[0].KB = 999 // mutating the copy must not affect the bus
	if b.Spans()[0].KB != 64 {
		t.Fatal("Spans() returned a reference into the bus")
	}
	only5 := b.SpansFor(vid.LHID(5))
	if len(only5) != 1 || only5[0].Phase != PhasePrecopy {
		t.Fatalf("SpansFor(5) = %v", only5)
	}
	if d := s1.Dur(); d != time.Millisecond {
		t.Fatalf("Dur = %v", d)
	}
}

func TestKindAndPhaseNames(t *testing.T) {
	if EvPktTx.String() != "tx" || EvFrameDrop.String() != "frame-drop" || EvRebind.String() != "rebind" {
		t.Fatal("kind names drifted")
	}
	if PhasePrecopy.String() != "precopy" || PhaseFreeze.String() != "freeze" {
		t.Fatal("phase names drifted")
	}
	for k := Kind(0); k < numKinds; k++ {
		if k.String() == "" {
			t.Fatalf("kind %d has no name", k)
		}
	}
	for p := Phase(0); p < numPhases; p++ {
		if p.String() == "" {
			t.Fatalf("phase %d has no name", p)
		}
	}
}
