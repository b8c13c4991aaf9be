package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
)

// Job is one schedulable unit of evaluation work — typically "one
// workload: generate its trace once, replay it under every collector".
// A job owns its result slot, so assembly stays deterministic no
// matter how the pool schedules.
type Job func(ctx context.Context) error

// RunJobs executes the jobs on a bounded worker pool and joins their
// errors.
//
// Concurrency: at most workers jobs run at once; workers <= 0 means
// GOMAXPROCS. Scheduling cannot influence results — each job writes
// only its own slot and every replay is single-threaded.
//
// Cancellation: the first failing job cancels the context handed to
// every other job, so in-flight replays abort at their next
// event-boundary check — fail-fast. Every job still starts, which
// keeps cheap validation failures visible even after a cancellation:
// a run that breaks several workloads names all of them in one pass.
//
// Cancellation errors are classified by origin, not by kind. A
// Canceled/DeadlineExceeded that arrives after the pool's own
// cancel() fired (or after the parent ctx died) is an induced abort
// and is dropped from the join; one that arrives while both the pool
// and the parent are still live can only have originated inside the
// job itself (e.g. a per-job deadline expiring) and is returned like
// any other failure. Cancellation of the parent ctx is reported as
// the parent's error.
func RunJobs(ctx context.Context, workers int, jobs []Job) error {
	return runJobs(ctx, poolSize(workers, len(jobs)), jobs, nil)
}

// RunJobsLargestFirst is RunJobs with the jobs dealt to the workers in
// decreasing order of their estimated sizes (ties in job order) rather
// than in job order, so the largest job does not start last and leave
// the other workers idle at the end. Only wall time changes: each job
// still writes only its own slot, errors are still joined in job
// order, and with one worker the jobs run in job order — a single
// worker's interleaved side effects, such as a shared telemetry
// stream, are exactly RunJobs'.
func RunJobsLargestFirst(ctx context.Context, workers int, jobs []Job, sizes []float64) error {
	if len(sizes) != len(jobs) {
		return fmt.Errorf("engine: %d job sizes for %d jobs", len(sizes), len(jobs))
	}
	workers = poolSize(workers, len(jobs))
	var order []int
	if workers > 1 {
		order = make([]int, len(jobs))
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool { return sizes[order[a]] > sizes[order[b]] })
	}
	return runJobs(ctx, workers, jobs, order)
}

// poolSize resolves the worker count: workers <= 0 means GOMAXPROCS,
// and there are never more workers than jobs.
func poolSize(workers, jobs int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return min(workers, jobs)
}

// runJobs deals jobs[order[0]], jobs[order[1]], ... (job order when
// order is nil) to the workers.
func runJobs(ctx context.Context, workers int, jobs []Job, order []int) error {
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make([]error, len(jobs))
	var aborted atomic.Bool
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				if order != nil {
					i = order[i]
				}
				err := jobs[i](cctx)
				if err != nil && isCancellation(err) && (aborted.Load() || ctx.Err() != nil) {
					// Induced by the pool's fail-fast cancel or by the
					// parent ctx dying — not this job's own failure.
					// The Store below is sequenced before cancel(), and
					// a job only observes cctx done after cancel(), so
					// an induced job always sees aborted == true here.
					continue
				}
				errs[i] = err
				if err != nil {
					aborted.Store(true)
					cancel() // fail fast: abort the other replays
				}
			}
		}()
	}
	wg.Wait()
	hard := make([]error, 0, len(errs))
	for _, err := range errs {
		if err != nil {
			hard = append(hard, err)
		}
	}
	if len(hard) > 0 {
		return errors.Join(hard...)
	}
	return ctx.Err()
}

func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
