package sim

import "time"

// Queue is an unbounded FIFO connecting tasks and event callbacks. Push may
// be called from anywhere on the engine; Pop blocks the calling task until
// an item is available.
type Queue[T any] struct {
	items fifo[T]
	wq    WaitQ
}

// fifo is a slice-backed first-in first-out list. pop clears the slot it
// vacates, so the backing array never keeps a departed value reachable,
// and an emptied fifo rewinds to the start of its array, so one that
// drains regularly stops reallocating.
type fifo[T any] struct {
	buf  []T
	head int // buf[head:] is live
}

func (f *fifo[T]) len() int { return len(f.buf) - f.head }

// live returns the queued values, oldest first; valid until the next
// push or removal.
func (f *fifo[T]) live() []T { return f.buf[f.head:] }

func (f *fifo[T]) push(v T) { f.buf = append(f.buf, v) }

// pop removes and returns the oldest value; the fifo must not be empty.
func (f *fifo[T]) pop() T {
	v := f.live()[0]
	f.removeAt(0)
	return v
}

// removeAt deletes the i-th oldest value, keeping the order of the rest.
func (f *fifo[T]) removeAt(i int) {
	var zero T
	if i == 0 {
		f.buf[f.head] = zero
		f.head++
	} else {
		n := len(f.buf) - 1
		copy(f.buf[f.head+i:], f.buf[f.head+i+1:])
		f.buf[n] = zero
		f.buf = f.buf[:n]
	}
	if f.head == len(f.buf) {
		f.buf, f.head = f.buf[:0], 0
	}
}

// Push appends v and wakes one waiting consumer.
func (q *Queue[T]) Push(v T) {
	q.items.push(v)
	q.wq.WakeOne()
}

// Pop removes and returns the oldest item, blocking while the queue is
// empty.
func (q *Queue[T]) Pop(t *Task) T {
	for q.items.len() == 0 {
		q.wq.Wait(t)
	}
	return q.items.pop()
}

// TryPop removes and returns the oldest item without blocking; ok is false
// if the queue is empty. For consumers that are event callbacks, not tasks.
func (q *Queue[T]) TryPop() (v T, ok bool) {
	if q.items.len() == 0 {
		return v, false
	}
	return q.items.pop(), true
}

// PopTimeout is Pop with a deadline; ok is false if it expired first.
func (q *Queue[T]) PopTimeout(t *Task, d time.Duration) (v T, ok bool) {
	deadline := t.Now().Add(d)
	for q.items.len() == 0 {
		remain := deadline.Sub(t.Now())
		if remain <= 0 {
			return v, false
		}
		if q.wq.WaitTimeout(t, remain) == WakeTimeout {
			// Re-check: an item may have been pushed at the same instant.
			if q.items.len() > 0 {
				break
			}
			return v, false
		}
	}
	return q.items.pop(), true
}

// Len reports the number of queued items.
func (q *Queue[T]) Len() int { return q.items.len() }

// Clear discards every queued item. Consumers blocked in Pop stay blocked;
// consumers that were already woken re-check emptiness before popping.
func (q *Queue[T]) Clear() { q.items = fifo[T]{} }
