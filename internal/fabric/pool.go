package fabric

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Runner fans indexed work across workers: Run(n, fn) calls fn(worker, i)
// exactly once for every i in [0, n), with worker identifying the
// executing worker in [0, Workers()), and returns only after every call
// completed. Implementations must allow concurrent Run calls — the
// engine's pipeline submits traffic generation and fabric egress from
// different stages at the same time. Pool is the implementation; where a
// Runner is a parameter, nil means no fan-out (see run).
type Runner interface {
	// Run executes fn(worker, i) for every i in [0, n).
	Run(n int, fn func(worker, i int))
	// Workers returns the worker-index bound: every worker value passed
	// to fn is below it.
	Workers() int
}

// run fans fn over r. A nil Runner means no fan-out: every call runs
// inline on the caller's goroutine as worker 0. This is the one place
// that decides it.
func run(r Runner, n int, fn func(worker, i int)) {
	if r == nil {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	r.Run(n, fn)
}

// poolJob is one Run submission: workers pull indices from next until n
// is exhausted.
type poolJob struct {
	n    int
	fn   func(worker, i int)
	next atomic.Int64
	wg   sync.WaitGroup
}

// Pool is a shared worker pool: a fixed set of persistent goroutines
// that execute Run submissions from any number of concurrent callers.
// The simulation engine keeps one pool per run so per-tick stage
// fan-outs (traffic generation across victims, egress across member
// ports) reuse warm goroutines instead of spawning fresh ones every
// tick, and so the whole pipeline is bounded by one worker budget.
//
// Each persistent worker has a fixed identity in [0, Workers()); the
// worker index fn receives is that identity, so per-worker state bound
// to it (e.g. one flowmon shard per worker) is touched by exactly one
// goroutine.
type Pool struct {
	jobs    chan *poolJob
	done    chan struct{}
	workers int
	wg      sync.WaitGroup
	closed  atomic.Bool
}

// NewPool starts a pool of n persistent workers (n < 1 means
// GOMAXPROCS). Close releases them.
func NewPool(n int) *Pool {
	if n < 1 {
		n = runtime.GOMAXPROCS(0)
	}
	p := &Pool{jobs: make(chan *poolJob, n), done: make(chan struct{}), workers: n}
	p.wg.Add(n)
	for w := 0; w < n; w++ {
		go func(worker int) {
			defer p.wg.Done()
			for {
				select {
				case job := <-p.jobs:
					job.run(worker)
				case <-p.done:
					// Drain handoffs that landed before Close so no Run
					// caller is left waiting on abandoned indices.
					for {
						select {
						case job := <-p.jobs:
							job.run(worker)
						default:
							return
						}
					}
				}
			}
		}(w)
	}
	return p
}

// run drains indices until the job is exhausted.
func (j *poolJob) run(worker int) {
	for {
		i := int(j.next.Add(1)) - 1
		if i >= j.n {
			return
		}
		j.fn(worker, i)
		j.wg.Done()
	}
}

// Workers returns the pool size.
func (p *Pool) Workers() int { return p.workers }

// Run executes fn(worker, i) for every i in [0, n) on the pool and
// returns when all calls completed. Small submissions run inline on the
// caller (worker 0) to avoid scheduling overhead. Safe for concurrent
// use; fn must not call Run on the same pool (a worker executing fn
// would then wait for capacity it occupies).
func (p *Pool) Run(n int, fn func(worker, i int)) {
	if n <= 0 {
		return
	}
	if n == 1 || p.workers == 1 || p.closed.Load() {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	job := &poolJob{n: n, fn: fn}
	job.wg.Add(n)
	// Hand the job to as many workers as can help; each handoff is one
	// channel send, and workers pull indices from the shared counter so
	// an uneven split self-balances.
	handoffs := p.workers
	if handoffs > n {
		handoffs = n
	}
	// Sends block only when every worker is busy with concurrent Run
	// submissions; they drain as soon as any worker frees up, and a
	// handoff landing after the job is exhausted costs one atomic load.
	// p.jobs is never closed (workers exit via p.done), so a Close
	// racing this loop cannot turn a handoff into a send-on-closed
	// panic — the select falls through to the caller-drain below.
	for i := 0; i < handoffs; i++ {
		select {
		case p.jobs <- job:
		case <-p.done:
			i = handoffs // stop handing off; workers are exiting
		}
	}
	// If Close raced the handoffs, exiting workers may never pick the
	// job up: the caller drains the shared counter itself so wg.Wait
	// cannot hang. (During this shutdown window the caller runs as
	// worker 0, so per-worker state may briefly see two goroutines on
	// id 0 — acceptable for a pool being torn down.)
	if p.closed.Load() {
		job.run(0)
	}
	job.wg.Wait()
}

// Close releases the workers. Run calls after Close execute inline.
func (p *Pool) Close() {
	if p.closed.CompareAndSwap(false, true) {
		close(p.done)
		p.wg.Wait()
	}
}
