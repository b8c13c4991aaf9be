package engine

import (
	"context"
	"errors"
	"slices"
	"testing"
	"time"
)

// TestRunJobsJobOriginatedDeadlineSurfaces is the regression test for
// the cancellation-swallowing bug: a job that times out on its OWN
// internal deadline while the parent ctx is live used to be filtered
// out of the join (every Canceled/DeadlineExceeded was treated as a
// pool-induced abort), so RunJobs reported success with a missing
// result slot. Origin-based classification must surface it.
func TestRunJobsJobOriginatedDeadlineSurfaces(t *testing.T) {
	jobs := []Job{
		func(ctx context.Context) error {
			// A per-job deadline, e.g. a daemon request budget. The
			// parent ctx stays live the whole time.
			jctx, cancel := context.WithTimeout(ctx, time.Millisecond)
			defer cancel()
			<-jctx.Done()
			return jctx.Err()
		},
	}
	err := RunJobs(context.Background(), 1, jobs)
	if err == nil {
		t.Fatal("RunJobs = nil: job-originated deadline was swallowed as a pool-induced abort")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("RunJobs error = %v, want context.DeadlineExceeded", err)
	}
}

// TestRunJobsJobOriginatedCancelSurfaces: same classification for a
// job that cancels its own sub-context — origin decides, not kind.
func TestRunJobsJobOriginatedCancelSurfaces(t *testing.T) {
	jobs := []Job{
		func(ctx context.Context) error {
			jctx, cancel := context.WithCancel(ctx)
			cancel()
			return jctx.Err()
		},
	}
	err := RunJobs(context.Background(), 1, jobs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunJobs error = %v, want context.Canceled surfaced as a job failure", err)
	}
}

// TestRunJobsJobDeadlineFailsFast: a job-originated timeout is a real
// failure, so it must also trigger the pool's fail-fast cancel for
// jobs still in flight — and those induced aborts stay dropped.
func TestRunJobsJobDeadlineFailsFast(t *testing.T) {
	timedOut := make(chan struct{})
	jobs := []Job{
		func(ctx context.Context) error {
			<-timedOut // guarantee the timing-out job finishes first
			select {
			case <-ctx.Done():
				return ctx.Err() // induced: must be dropped from the join
			case <-time.After(5 * time.Second):
				return errors.New("fail-fast cancellation never arrived")
			}
		},
		func(ctx context.Context) error {
			defer close(timedOut)
			jctx, cancel := context.WithTimeout(ctx, time.Millisecond)
			defer cancel()
			<-jctx.Done()
			return jctx.Err()
		},
	}
	err := RunJobs(context.Background(), 2, jobs)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("RunJobs error = %v, want the job-originated DeadlineExceeded", err)
	}
	if errors.Is(err, context.Canceled) {
		t.Error("induced abort of the surviving job leaked into the join")
	}
}

// TestRunJobsLargestFirstDealsBySize holds every started job until the
// test releases it, so which jobs can start is deterministic: with two
// workers the two largest start first, and each release lets exactly
// the next-largest job in, ties in job order.
func TestRunJobsLargestFirstDealsBySize(t *testing.T) {
	sizes := []float64{1, 5, 3, 9, 3}
	started := make(chan int)
	release := make(chan struct{})
	jobs := make([]Job, len(sizes))
	for i := range jobs {
		jobs[i] = func(context.Context) error {
			started <- i
			<-release
			return nil
		}
	}
	done := make(chan error, 1)
	go func() { done <- RunJobsLargestFirst(context.Background(), 2, jobs, sizes) }()
	first := map[int]bool{<-started: true, <-started: true}
	if !first[3] || !first[1] {
		t.Fatalf("first two jobs dealt = %v, want the two largest, jobs 3 and 1", first)
	}
	for _, want := range []int{2, 4, 0} {
		release <- struct{}{}
		if got := <-started; got != want {
			t.Fatalf("next job dealt = %d, want %d", got, want)
		}
	}
	for range 2 {
		release <- struct{}{}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestRunJobsLargestFirstOneWorkerKeepsJobOrder: a single worker runs
// the jobs in job order whatever their sizes, so its side effects
// interleave exactly as under RunJobs.
func TestRunJobsLargestFirstOneWorkerKeepsJobOrder(t *testing.T) {
	var ran []int
	jobs := make([]Job, 4)
	for i := range jobs {
		jobs[i] = func(context.Context) error { ran = append(ran, i); return nil }
	}
	if err := RunJobsLargestFirst(context.Background(), 1, jobs, []float64{1, 4, 2, 8}); err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 1, 2, 3}; !slices.Equal(ran, want) {
		t.Fatalf("one worker ran jobs %v, want %v", ran, want)
	}
}

// TestRunJobsLargestFirstJoinsInJobOrder: the joined error lists the
// failures in job order, not dispatch order.
func TestRunJobsLargestFirstJoinsInJobOrder(t *testing.T) {
	jobs := []Job{
		func(context.Context) error { return errors.New("job 0 failed") },
		func(context.Context) error { return nil },
		func(context.Context) error { return errors.New("job 2 failed") },
	}
	err := RunJobsLargestFirst(context.Background(), 2, jobs, []float64{1, 2, 3})
	if err == nil || err.Error() != "job 0 failed\njob 2 failed" {
		t.Fatalf("joined error = %q, want the failures in job order", err)
	}
	if err := RunJobsLargestFirst(context.Background(), 2, jobs, []float64{1}); err == nil {
		t.Fatal("size list shorter than the job list accepted")
	}
}
