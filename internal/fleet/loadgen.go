package fleet

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"
)

// The synthetic open-loop load generator: requests are launched on a
// fixed arrival schedule regardless of how fast earlier requests
// complete, and each latency runs from the request's scheduled arrival,
// not from its actual send. A generator that falls behind its schedule
// therefore shows as latency instead of hiding (the coordinated-omission
// bias of closed loops and of send-clocked open loops). The per-request
// latencies aggregate into p50/p99. The send function is pluggable so
// the same generator drives an in-process Fleet (the bench experiment)
// and a remote moused over HTTP (cmd/mouseload).

// SendFunc submits one request's samples and returns its predictions.
// Rejections must match ErrOverloaded through errors.Is to be counted
// as backpressure rather than failures.
type SendFunc func(samples [][]int) ([]int, error)

// LoadConfig shapes one load run.
type LoadConfig struct {
	// Requests is the number of requests to launch.
	Requests int
	// BatchSize is the samples per request; the sample pool must hold
	// Requests*BatchSize vectors.
	BatchSize int
	// Interval is the open-loop arrival spacing (0 launches every
	// request immediately).
	Interval time.Duration
	// Expected, when non-nil, holds the golden label per sample (pool
	// order); each OK response is checked against its slice and
	// disagreements count as Mismatches.
	Expected []int
}

// LoadReport aggregates one load run.
type LoadReport struct {
	Requests   int `json:"requests"`
	OK         int `json:"ok"`
	Rejected   int `json:"rejected"`
	Errors     int `json:"errors"`
	Mismatches int `json:"mismatches"`

	// Latency percentiles and mean over OK requests only (zero when
	// nothing succeeded).
	P50  time.Duration `json:"p50_ns"`
	P99  time.Duration `json:"p99_ns"`
	Mean time.Duration `json:"mean_ns"`
}

// RunLoad launches cfg.Requests requests of cfg.BatchSize consecutive
// samples each on the open-loop schedule and blocks until every
// response (or rejection) is in. Request i is due at start +
// i*cfg.Interval; one loop sleeps until each due time and spawns the
// send, and the request's latency is measured from its due time.
func RunLoad(cfg LoadConfig, samples [][]int, send SendFunc) (LoadReport, error) {
	if cfg.Requests < 1 || cfg.BatchSize < 1 {
		return LoadReport{}, fmt.Errorf("fleet: load of %d requests x %d samples", cfg.Requests, cfg.BatchSize)
	}
	total := cfg.Requests * cfg.BatchSize
	if len(samples) < total {
		return LoadReport{}, fmt.Errorf("fleet: sample pool holds %d, load needs %d", len(samples), total)
	}
	if cfg.Expected != nil && len(cfg.Expected) < total {
		return LoadReport{}, fmt.Errorf("fleet: expected labels hold %d, load needs %d", len(cfg.Expected), total)
	}

	type outcome struct {
		lat        time.Duration
		err        error
		mismatches int
	}
	outcomes := make([]outcome, cfg.Requests)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < cfg.Requests; i++ {
		// Open loop: wait for this request's scheduled arrival, not for
		// any earlier request to finish.
		due := start.Add(time.Duration(i) * cfg.Interval)
		time.Sleep(time.Until(due))
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			chunk := samples[i*cfg.BatchSize : (i+1)*cfg.BatchSize]
			preds, err := send(chunk)
			o := outcome{lat: time.Since(due), err: err}
			if err == nil && len(preds) != len(chunk) {
				o.err = fmt.Errorf("fleet: request %d got %d predictions for %d samples", i, len(preds), len(chunk))
			}
			if o.err == nil && cfg.Expected != nil {
				for j, p := range preds {
					if p != cfg.Expected[i*cfg.BatchSize+j] {
						o.mismatches++
					}
				}
			}
			outcomes[i] = o
		}(i, due)
	}
	wg.Wait()

	rep := LoadReport{Requests: cfg.Requests}
	var oks []time.Duration
	var sum time.Duration
	for _, o := range outcomes {
		switch {
		case o.err == nil:
			rep.OK++
			rep.Mismatches += o.mismatches
			oks = append(oks, o.lat)
			sum += o.lat
		case errors.Is(o.err, ErrOverloaded):
			rep.Rejected++
		default:
			rep.Errors++
		}
	}
	if len(oks) > 0 {
		sort.Slice(oks, func(a, b int) bool { return oks[a] < oks[b] })
		rep.P50 = quantile(oks, 0.50)
		rep.P99 = quantile(oks, 0.99)
		rep.Mean = sum / time.Duration(len(oks))
	}
	return rep, nil
}

// quantile reads the q-quantile of an ascending latency slice (nearest
// rank).
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}
