package experiments

import (
	"context"
	"runtime"
	"sync"
	"time"
)

// RunResult is the outcome of one experiment executed by RunAll.
type RunResult struct {
	Runner  Runner
	Output  string        // rendered figure/table text ("" on error)
	Err     error         // experiment error, or ctx.Err() if never started
	Elapsed time.Duration // wall time of the Run call (0 if never started)
}

// EngineConfig tunes the parallel experiment engine.
type EngineConfig struct {
	// Jobs is the worker count; <=0 means GOMAXPROCS.
	Jobs int
	// FailFast cancels experiments that have not started yet as soon
	// as one fails. Already-running experiments finish; unstarted ones
	// report the cancellation as their Err.
	FailFast bool
	// Progress, when non-nil, is invoked once per experiment in
	// completion order (not paper order). Calls are serialized.
	Progress func(RunResult)
}

// RunAll executes the runners under opts on a worker pool and returns
// one RunResult per runner in input order, regardless of completion
// order — so rendering the results in sequence reproduces the serial
// paper-order output byte for byte.
//
// The Jobs budget is shared with the sweeps inside experiments: RunAll
// attaches a token pool of cfg.Jobs workers to opts, every running
// experiment holds one token, and opts.sweep grows onto whatever
// tokens are left. -j therefore bounds the number of simulations in
// flight across the whole run instead of multiplying per layer (j
// experiments each sweeping j-wide used to mean j*j workers).
//
// Concurrency is safe because experiments are seed-isolated: each
// Run(opts) builds its own host.Host, memory system, and workloads from
// opts.Seed and shares nothing mutable with its siblings. Cancelling
// ctx stops unstarted experiments (their Err records the cause);
// running ones complete.
func RunAll(ctx context.Context, runners []Runner, opts Options, cfg EngineConfig) []RunResult {
	jobs := cfg.Jobs
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	if jobs < 1 {
		jobs = 1
	}
	opts.pool = newWorkerPool(jobs)
	workers := jobs
	if workers > len(runners) {
		workers = len(runners)
	}
	if workers < 1 {
		workers = 1
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	results := make([]RunResult, len(runners))
	idx := make(chan int)
	go func() {
		defer close(idx)
		for i := range runners {
			idx <- i
		}
	}()

	var progressMu sync.Mutex
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				res := RunResult{Runner: runners[i]}
				if err := ctx.Err(); err != nil {
					res.Err = err
				} else {
					opts.pool.acquire()
					start := time.Now()
					res.Output, res.Err = runners[i].Run(opts)
					res.Elapsed = time.Since(start)
					opts.pool.release()
					if res.Err != nil && cfg.FailFast {
						cancel()
					}
				}
				results[i] = res
				if cfg.Progress != nil {
					progressMu.Lock()
					cfg.Progress(res)
					progressMu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return results
}

// workerPool is the token semaphore behind the shared Jobs budget: one
// token per allowed concurrent simulation.
type workerPool struct {
	tokens chan struct{}
}

func newWorkerPool(n int) *workerPool {
	p := &workerPool{tokens: make(chan struct{}, n)}
	for i := 0; i < n; i++ {
		p.tokens <- struct{}{}
	}
	return p
}

func (p *workerPool) acquire() { <-p.tokens }

func (p *workerPool) release() { p.tokens <- struct{}{} }

// tryAcquire takes a token only if one is free.
func (p *workerPool) tryAcquire() bool {
	select {
	case <-p.tokens:
		return true
	default:
		return false
	}
}

// sweep runs fn(0..n-1) on the caller's own token plus however many
// extra tokens are free, re-checking before every point so the sweep
// widens as sibling experiments finish. Every index runs regardless of
// failures; the error reported is the lowest-index one, so a sweep
// fails deterministically no matter how its points interleave.
func (p *workerPool) sweep(n int, fn func(i int) error) error {
	errs := make([]error, n)
	idx := make(chan int)
	go func() {
		defer close(idx)
		for i := 0; i < n; i++ {
			idx <- i
		}
	}()
	var wg sync.WaitGroup
	for i := range idx {
		for p.tryAcquire() {
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer p.release()
				for j := range idx {
					errs[j] = fn(j)
				}
			}()
		}
		errs[i] = fn(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
