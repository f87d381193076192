package experiments

import (
	"runtime"
	"sync"
)

// Pool bounds how many clusters run at once. An engine is single-threaded
// and a cluster owns everything it touches (DESIGN §8), so independent
// clusters — experiments, the cells inside one, seeds — run on separate
// cores; the pool hands out one slot per core. Only a leaf holds a slot,
// and only while its cluster runs: an experiment that fans out into cells
// waits for them without one, so nesting cannot deadlock however few slots
// there are. Results are always collected by index, never by completion
// order, so the output is the same at any width; with GOMAXPROCS=1 the pool
// is one slot wide and the run is serial.
type Pool struct{ slots chan struct{} }

// NewPool returns a pool of runtime.GOMAXPROCS(0) slots.
func NewPool() *Pool { return newPool(runtime.GOMAXPROCS(0)) }

func newPool(workers int) *Pool { return &Pool{slots: make(chan struct{}, workers)} }

// fan runs f(0) … f(n-1), each on its own goroutine, and waits for all.
func fan(n int, f func(i int)) {
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f(i)
		}()
	}
	wg.Wait()
}

// hold runs f with a slot held.
func (p *Pool) hold(f func()) {
	p.slots <- struct{}{}
	defer func() { <-p.slots }()
	f()
}

// leaf adapts an experiment that runs its clusters one after another on the
// calling goroutine: it holds one slot from start to finish.
func leaf(run func(seed int64) *Result) func(*Pool, int64) *Result {
	return func(p *Pool, seed int64) (r *Result) {
		p.hold(func() { r = run(seed) })
		return r
	}
}

// each runs cell(0) … cell(n-1) side by side, one slot each, and waits for
// all. Cells share nothing but what they write at their own index.
func (p *Pool) each(n int, cell func(i int)) {
	fan(n, func(i int) { p.hold(func() { cell(i) }) })
}

// cells runs each cell side by side with a Result of its own to fill and
// returns those in the order given, for the experiment to absorb.
func (p *Pool) cells(cells []func(r *Result)) []*Result {
	out := make([]*Result, len(cells))
	p.each(len(cells), func(i int) {
		out[i] = newResult("", "")
		cells[i](out[i])
	})
	return out
}

// Run runs the experiments at one seed and returns their results in table
// order.
func (p *Pool) Run(table []Experiment, seed int64) []*Result {
	out := make([]*Result, len(table))
	fan(len(table), func(i int) { out[i] = table[i].Run(p, seed) })
	return out
}
