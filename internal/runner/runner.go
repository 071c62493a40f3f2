// Package runner provides the bounded worker pool behind parallel
// matrix execution (api.RunMatrix, cmd/sweep -j, the litmus fuzzer
// shards and the golden harness).
//
// The pool's contract mirrors a serial loop over independent jobs:
//
//   - Jobs are identified by index [0, n) and must be independent —
//     each simulation builds its own Engine, machine and rand state, so
//     cells share no mutable state and per-cell results are identical
//     at any worker count.
//   - Per-job errors are collected into an index-ordered slice, so the
//     assembled results are deterministic regardless of completion
//     order.
//   - By default the first failure stops dispatch: in-flight jobs
//     finish, never-started jobs are marked ErrSkipped. KeepGoing runs
//     everything regardless.
//   - OnDone streams per-job completion (serialized by the pool), in
//     completion order — progress reporting, not result assembly.
package runner

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
)

// ErrSkipped marks a job that was never started because an earlier
// failure stopped dispatch (and KeepGoing was off).
var ErrSkipped = errors.New("runner: job skipped after earlier failure")

// Options configure a Run.
type Options struct {
	// Workers bounds the number of jobs in flight; <= 0 selects
	// runtime.GOMAXPROCS(0). Workers == 1 executes jobs strictly in
	// index order, exactly like the serial loop it replaces.
	Workers int
	// KeepGoing, if set, dispatches every job even after failures.
	// Otherwise the first failure stops dispatch (in-flight jobs still
	// complete; undispatched jobs get ErrSkipped).
	KeepGoing bool
	// OnDone, if non-nil, is invoked once per job as it completes
	// (including skipped jobs), serialized by the pool but in
	// completion order. It must not call back into the pool.
	OnDone func(i int, err error)
}

// Run executes fn(0) … fn(n-1) on a bounded pool and returns the
// per-job errors in index order, plus the first real (non-skipped)
// error by job index, or nil if every dispatched job succeeded.
//
// With KeepGoing set the returned error is fully deterministic (the
// lowest-index failure). Without it, which jobs were dispatched before
// the stop can depend on scheduling; the per-index slice always
// records faithfully what happened to each job.
func Run(n int, opts Options, fn func(i int) error) ([]error, error) {
	errs := make([]error, n)
	if n == 0 {
		return errs, nil
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}

	var (
		next atomic.Int64 // next undispatched job index
		stop atomic.Bool  // a job has failed; stop dispatching
		mu   sync.Mutex   // serializes OnDone
		wg   sync.WaitGroup
	)
	done := func(i int, err error) {
		if opts.OnDone == nil {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		opts.OnDone(i, err)
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if !opts.KeepGoing && stop.Load() {
					errs[i] = ErrSkipped
					done(i, ErrSkipped)
					continue
				}
				err := fn(i)
				errs[i] = err
				if err != nil {
					stop.Store(true)
				}
				done(i, err)
			}
		}()
	}
	wg.Wait()

	for _, err := range errs {
		if err != nil && !errors.Is(err, ErrSkipped) {
			return errs, err
		}
	}
	return errs, nil
}
