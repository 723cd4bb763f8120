package fleet

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"mouse/internal/workload"
)

// TestRunLoadCounts drives the generator against a scripted SendFunc and
// checks every outcome bucket: OK, rejected, hard error, mismatch.
func TestRunLoadCounts(t *testing.T) {
	// Pool of 10 single-feature samples; request i serves samples
	// [2i, 2i+1]. The fake classifier echoes the feature value.
	samples := make([][]int, 10)
	expected := make([]int, 10)
	for i := range samples {
		samples[i] = []int{i}
		expected[i] = i
	}
	expected[5] = 99 // request 2's second sample will disagree

	send := func(chunk [][]int) ([]int, error) {
		switch chunk[0][0] / 2 {
		case 3:
			return nil, &OverloadedError{Workload: "fake", RetryAfter: time.Second}
		case 4:
			return nil, errors.New("device caught fire")
		}
		preds := make([]int, len(chunk))
		for i, x := range chunk {
			preds[i] = x[0]
		}
		return preds, nil
	}

	rep, err := RunLoad(LoadConfig{Requests: 5, BatchSize: 2, Expected: expected}, samples, send)
	if err != nil {
		t.Fatal(err)
	}
	want := LoadReport{Requests: 5, OK: 3, Rejected: 1, Errors: 1, Mismatches: 1}
	if rep.Requests != want.Requests || rep.OK != want.OK || rep.Rejected != want.Rejected ||
		rep.Errors != want.Errors || rep.Mismatches != want.Mismatches {
		t.Errorf("RunLoad counted %+v, want %+v (latency fields aside)", rep, want)
	}
	if rep.P50 <= 0 || rep.P99 < rep.P50 || rep.Mean <= 0 {
		t.Errorf("latency aggregates inconsistent: p50 %v p99 %v mean %v", rep.P50, rep.P99, rep.Mean)
	}

	// A response with the wrong number of predictions is a hard error.
	rep, err = RunLoad(LoadConfig{Requests: 1, BatchSize: 2},
		samples, func(chunk [][]int) ([]int, error) { return []int{1}, nil })
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 1 || rep.OK != 0 {
		t.Errorf("short prediction vector counted as %+v, want 1 error", rep)
	}
}

// TestRunLoadClocksFromSchedule: a request's latency runs from its
// scheduled arrival, so time spent waiting behind a stalled generator
// counts. On one P with every request due at once, each send spins
// without blocking, so the last request cannot start until all the
// others have spun: its latency is about 32 spins, not one.
func TestRunLoadClocksFromSchedule(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const requests, spin = 32, 2 * time.Millisecond
	send := func(chunk [][]int) ([]int, error) {
		for t0 := time.Now(); time.Since(t0) < spin; {
		}
		return make([]int, len(chunk)), nil
	}
	rep, err := RunLoad(LoadConfig{Requests: requests, BatchSize: 1}, make([][]int, requests), send)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK != requests {
		t.Fatalf("RunLoad counted %+v, want %d OKs", rep, requests)
	}
	if rep.P99 < 8*spin {
		t.Errorf("p99 %v under %v: time queued behind earlier requests was not counted", rep.P99, 8*spin)
	}
}

func TestRunLoadValidation(t *testing.T) {
	ok := func([][]int) ([]int, error) { return nil, nil }
	if _, err := RunLoad(LoadConfig{Requests: 0, BatchSize: 1}, nil, ok); err == nil {
		t.Error("zero requests accepted")
	}
	if _, err := RunLoad(LoadConfig{Requests: 2, BatchSize: 3}, make([][]int, 5), ok); err == nil {
		t.Error("undersized sample pool accepted")
	}
	if _, err := RunLoad(LoadConfig{Requests: 1, BatchSize: 2, Expected: []int{1}}, make([][]int, 2), ok); err == nil {
		t.Error("undersized expected labels accepted")
	}
}

func TestQuantileNearestRank(t *testing.T) {
	lat := make([]time.Duration, 100)
	for i := range lat {
		lat[i] = time.Duration(i+1) * time.Millisecond
	}
	if got := quantile(lat, 0.50); got != 50*time.Millisecond {
		t.Errorf("p50 of 1..100ms = %v, want 50ms", got)
	}
	if got := quantile(lat, 0.99); got != 99*time.Millisecond {
		t.Errorf("p99 of 1..100ms = %v, want 99ms", got)
	}
	if got := quantile(lat[:1], 0.99); got != time.Millisecond {
		t.Errorf("p99 of a single sample = %v, want 1ms", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile(nil) = %v, want 0", got)
	}
}

// TestRunLoadAgainstFleet wires the generator to a live continuous
// fleet: every request must succeed and verify against the offline
// labels (the in-process version of the mouseload -verify path).
func TestRunLoadAgainstFleet(t *testing.T) {
	cfg := quickConfig()
	cfg.Workloads = []string{"svm-adult"}
	f := newFleet(t, cfg)
	hb, err := workload.HotBatchByName("svm-adult")
	if err != nil {
		t.Fatal(err)
	}
	offline, err := hb.NewBatched()
	if err != nil {
		t.Fatal(err)
	}
	const requests, batch = 6, 4
	samples := hb.Samples(requests * batch)
	expected := make([]int, 0, requests*batch)
	for i := 0; i < requests; i++ {
		preds, err := offline(samples[i*batch : (i+1)*batch])
		if err != nil {
			t.Fatal(err)
		}
		expected = append(expected, preds...)
	}
	rep, err := RunLoad(LoadConfig{Requests: requests, BatchSize: batch, Expected: expected},
		samples, func(chunk [][]int) ([]int, error) {
			return f.Infer(context.Background(), "svm-adult", chunk)
		})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK != requests || rep.Rejected != 0 || rep.Errors != 0 || rep.Mismatches != 0 {
		t.Errorf("load against a live fleet: %+v, want %d clean OKs", rep, requests)
	}
}
