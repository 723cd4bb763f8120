package bench

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// The sweep engine: every grid-shaped experiment (Fig. 9's power ×
// benchmark sweep, the Figs. 10–12 breakdowns, the checkpoint and FFT
// sweeps, Table IV's per-benchmark runs) executes its cells as
// independent jobs on a bounded worker pool. Each job owns all mutable
// state it touches — its sim.Runner, power.Harvester, and OpStream — so
// jobs never share anything but read-only inputs, and results land in a
// slice indexed by job number, making the output order (and therefore
// every table and JSON report) independent of goroutine scheduling.

// DefaultWorkers is the worker count used when a sweep is invoked with
// workers <= 0: one worker per available CPU.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// clampWorkers resolves a requested worker count against the job count.
func clampWorkers(workers, n int) int {
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// Jobs executes n independent jobs with at most workers concurrent
// goroutines and returns their results ordered by job index, regardless
// of completion order. Every job runs to completion even when another
// job fails; the error returned is the lowest-indexed job's error, so
// the (result, error) pair is deterministic for a deterministic job
// function. workers <= 0 selects DefaultWorkers(); workers == 1 runs
// the jobs serially on the calling goroutine. Besides the experiments
// here, the fault-injection sweep builds on it.
func Jobs[T any](workers, n int, job func(i int) (T, error)) ([]T, error) {
	results := make([]T, n)
	errs := make([]error, n)
	workers = clampWorkers(workers, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			results[i], errs[i] = job(i)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					results[i], errs[i] = job(i)
				}
			}()
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}
