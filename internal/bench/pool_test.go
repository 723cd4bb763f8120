package bench

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"mouse/internal/mtj"
)

func TestRunJobsOrdersResultsByIndex(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 16, 64} {
		// Early jobs sleep longest so completion order inverts index
		// order; results must come back in index order anyway.
		n := 40
		out, err := Jobs(workers, n, func(i int) (int, error) {
			time.Sleep(time.Duration(n-i) * 10 * time.Microsecond)
			return i * i, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(out) != n {
			t.Fatalf("workers=%d: %d results", workers, len(out))
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: result[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestRunJobsErrorIsDeterministic(t *testing.T) {
	boom := func(i int) error { return fmt.Errorf("job %d failed", i) }
	for _, workers := range []int{1, 8} {
		var ran atomic.Int64
		_, err := Jobs(workers, 20, func(i int) (int, error) {
			ran.Add(1)
			if i == 7 || i == 3 || i == 15 {
				return 0, boom(i)
			}
			return i, nil
		})
		if err == nil || err.Error() != "job 3 failed" {
			t.Errorf("workers=%d: error %v, want the lowest-indexed job's", workers, err)
		}
		// Per-job error capture: a failure does not cancel the grid.
		if ran.Load() != 20 {
			t.Errorf("workers=%d: %d jobs ran, want all 20", workers, ran.Load())
		}
	}
}

func TestRunJobsZeroJobs(t *testing.T) {
	out, err := Jobs(4, 0, func(int) (int, error) { return 0, errors.New("never") })
	if err != nil || len(out) != 0 {
		t.Fatalf("empty grid: %v %v", out, err)
	}
}

// TestSweepStressHighParallelism hammers the sweep engine with far more
// workers than cores over real simulation jobs, so `go test -race`
// exercises the shared paths (workload phase cache, macro-cost cache,
// config singletons) under heavy interleaving.
func TestSweepStressHighParallelism(t *testing.T) {
	powers := []float64{300e-6, 5e-3}
	var rounds [4][]Fig9Point
	for round := range rounds {
		points, err := ComputeFig9(mtj.ProjectedSHE(), powers, 32)
		if err != nil {
			t.Fatal(err)
		}
		rounds[round] = points
	}
	for round := 1; round < len(rounds); round++ {
		if len(rounds[round]) != len(rounds[0]) {
			t.Fatalf("round %d: %d points, want %d", round, len(rounds[round]), len(rounds[0]))
		}
		for i := range rounds[0] {
			if rounds[round][i] != rounds[0][i] {
				t.Errorf("round %d point %d: %+v != %+v", round, i, rounds[round][i], rounds[0][i])
			}
		}
	}
}

// TestJobsExportedContract: Jobs is the pool other engines (the
// fault-injection sweep) build on; its (result, error) pair must be
// identical at any parallelism.
func TestJobsExported(t *testing.T) {
	job := func(i int) (string, error) {
		if i == 5 {
			return "", fmt.Errorf("job 5 failed")
		}
		return fmt.Sprintf("r%d", i), nil
	}
	serialOut, serialErr := Jobs(1, 12, job)
	parallelOut, parallelErr := Jobs(8, 12, job)
	if serialOut != nil || parallelOut != nil {
		t.Fatalf("failed grid returned results: %v / %v", serialOut, parallelOut)
	}
	if serialErr == nil || parallelErr == nil || serialErr.Error() != parallelErr.Error() {
		t.Fatalf("errors diverge across parallelism: %v vs %v", serialErr, parallelErr)
	}
	ok := func(i int) (string, error) { return fmt.Sprintf("r%d", i), nil }
	a, err1 := Jobs(1, 12, ok)
	b, err2 := Jobs(8, 12, ok)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	for i := range a {
		if a[i] != b[i] || a[i] != fmt.Sprintf("r%d", i) {
			t.Fatalf("result[%d] %q vs %q", i, a[i], b[i])
		}
	}
}
