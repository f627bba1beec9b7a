package runner

import (
	"sync"
	"sync/atomic"
)

// Pool is a persistent worker pool for repeated barrier-synchronized
// rounds. Map spawns goroutines per call, which is fine for sweeps where
// each job runs a whole simulation; the lookahead-sharded engine instead
// fires thousands of short rounds (one per conservative window) per run,
// where per-round goroutine creation would dominate. A Pool keeps its
// workers parked between rounds.
//
// Like Map, a round hands out job indices through an atomic counter, so
// the assignment of jobs to workers is racy but the set of jobs executed
// is exact; callers must make jobs independent and collect results by
// index.
type Pool struct {
	cmds []chan *round
	wg   sync.WaitGroup
	// r is the one round every Run reuses: Run waits for its workers
	// before returning, so no worker still reads it when the next begins.
	r round
}

// round is one barrier-synchronized batch of n jobs.
type round struct {
	n    int
	fn   func(i int)
	next atomic.Int64
	done sync.WaitGroup // one count per participating worker
}

// NewPool starts a pool with the given number of workers. workers <= 1
// returns a serial pool that runs every round on the calling goroutine.
func NewPool(workers int) *Pool {
	if workers <= 1 {
		return &Pool{}
	}
	p := &Pool{cmds: make([]chan *round, workers)}
	p.wg.Add(workers)
	for w := range p.cmds {
		ch := make(chan *round, 1)
		p.cmds[w] = ch
		go func() {
			defer p.wg.Done()
			for r := range ch {
				for {
					i := int(r.next.Add(1))
					if i >= r.n {
						break
					}
					r.fn(i)
				}
				r.done.Done()
			}
		}()
	}
	return p
}

// Run executes fn(i) for every i in [0, n) and blocks until all jobs
// finish. On a serial pool jobs run in index order on the caller, and so
// does a one-job round on any pool: waking the workers would only hand
// the job to one of them. Rounds do not overlap: Run must not be called
// again before it returns.
func (p *Pool) Run(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if len(p.cmds) == 0 || n == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	r := &p.r
	r.n, r.fn = n, fn
	r.next.Store(-1)
	r.done.Add(len(p.cmds))
	for _, ch := range p.cmds {
		ch <- r
	}
	r.done.Wait()
	r.fn = nil
}

// Close stops the workers. Run must not be called after Close. Close on
// a serial pool is a no-op.
func (p *Pool) Close() {
	for _, ch := range p.cmds {
		close(ch)
	}
	p.wg.Wait()
	p.cmds = nil
}
