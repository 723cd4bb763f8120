// Speed smoke gates: the probe layer's contract that an unobserved run
// is free, and the throughput floors of the batch and segment engines.
// The repo's CI bench-smoke job runs them with MOUSE_BENCH_SMOKE=1. They
// time with testing.Benchmark; the engine gates time the very bodies of
// BenchmarkHotBatch and BenchmarkFig9Row{Stepping,Segment}.
package mouse_test

import (
	"io"
	"os"
	"testing"
	"time"

	"mouse/internal/array"
	"mouse/internal/bench"
	"mouse/internal/controller"
	"mouse/internal/metrics"
	"mouse/internal/probe"
	"mouse/internal/sim"
	"mouse/internal/workload"
)

// TestNopObserverOverhead compares the SVM MachineRunner workload with
// no observer against the same workload with probe.Nop attached:
// allocations must match exactly and the best-of-N latency ratio must
// stay under 1.02. Gated behind MOUSE_BENCH_SMOKE=1 because a timing
// assertion has no place in the default unit-test run.
func TestNopObserverOverhead(t *testing.T) {
	if os.Getenv("MOUSE_BENCH_SMOKE") == "" {
		t.Skip("set MOUSE_BENCH_SMOKE=1 to run the observer-overhead smoke benchmark")
	}
	mach, prog := setupSVMMachine(t, false)

	measure := func(obs probe.Observer) (bestNs float64, allocs int64) {
		const rounds = 5
		for i := 0; i < rounds; i++ {
			r := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for j := 0; j < b.N; j++ {
					c := controller.New(controller.ProgramStore(prog), mach)
					mr := sim.NewMachineRunner(c)
					mr.Obs = obs
					res, err := mr.Run(nil)
					if err != nil {
						b.Fatal(err)
					}
					if !res.Completed {
						b.Fatal("run did not complete")
					}
				}
			})
			if ns := float64(r.NsPerOp()); i == 0 || ns < bestNs {
				bestNs = ns
			}
			allocs = r.AllocsPerOp()
		}
		return bestNs, allocs
	}

	baseNs, baseAllocs := measure(nil)
	nopNs, nopAllocs := measure(probe.Nop{})

	if nopAllocs != baseAllocs {
		t.Errorf("no-op observer changes allocations: %d -> %d allocs/op", baseAllocs, nopAllocs)
	}
	ratio := nopNs / baseNs
	t.Logf("nil %.0f ns/op, Nop %.0f ns/op (%.4fx), %d allocs/op", baseNs, nopNs, ratio, baseAllocs)
	if ratio > 1.02 {
		t.Errorf("no-op observer costs %.2f%% latency, budget is 2%%", (ratio-1)*100)
	}
}

// TestMetricsBridgeOverhead extends the gate to the metrics registry:
// bridging a probe.Stats into a registry that a background goroutine
// scrapes every 10ms — hundreds of times faster than any real
// Prometheus interval — must stay within 2% of feeding the bare Stats.
// The bridge does all conversion at scrape time from Section snapshots,
// so the simulation-side cost should be indistinguishable from Stats
// alone. Same MOUSE_BENCH_SMOKE gate as above.
func TestMetricsBridgeOverhead(t *testing.T) {
	if os.Getenv("MOUSE_BENCH_SMOKE") == "" {
		t.Skip("set MOUSE_BENCH_SMOKE=1 to run the metrics-overhead smoke benchmark")
	}
	mach, prog := setupSVMMachine(t, false)

	measure := func(obs probe.Observer) float64 {
		const rounds = 5
		var bestNs float64
		for i := 0; i < rounds; i++ {
			r := testing.Benchmark(func(b *testing.B) {
				for j := 0; j < b.N; j++ {
					c := controller.New(controller.ProgramStore(prog), mach)
					mr := sim.NewMachineRunner(c)
					mr.Obs = obs
					res, err := mr.Run(nil)
					if err != nil {
						b.Fatal(err)
					}
					if !res.Completed {
						b.Fatal("run did not complete")
					}
				}
			})
			if ns := float64(r.NsPerOp()); i == 0 || ns < bestNs {
				bestNs = ns
			}
		}
		return bestNs
	}

	bareNs := measure(&probe.Stats{})

	stats := &probe.Stats{}
	reg := metrics.New()
	metrics.ExportStats(reg, "mouse_probe", stats.Section)
	stop := make(chan struct{})
	scraperDone := make(chan struct{})
	go func() {
		defer close(scraperDone)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				if err := reg.WriteText(io.Discard); err != nil {
					panic(err)
				}
			}
		}
	}()
	bridgedNs := measure(stats)
	close(stop)
	<-scraperDone

	ratio := bridgedNs / bareNs
	t.Logf("bare Stats %.0f ns/op, bridged+scraped %.0f ns/op (%.4fx)", bareNs, bridgedNs, ratio)
	if ratio > 1.02 {
		t.Errorf("metrics bridge costs %.2f%% latency under continuous scraping, budget is 2%%", (ratio-1)*100)
	}
}

// speedup times the baseline and the fast benchmark bodies with
// testing.Benchmark, alternating them for a few rounds, and returns the
// baseline's best ns/op over the fast one's best: the best of several
// rounds is the sample least disturbed by other load on the host.
func speedup(t *testing.T, base, fast func(b *testing.B)) float64 {
	t.Helper()
	const rounds = 3
	var baseNs, fastNs float64
	for i := 0; i < rounds; i++ {
		slow, quick := testing.Benchmark(base), testing.Benchmark(fast)
		if slow.N == 0 || quick.N == 0 {
			t.Fatal("benchmark body failed")
		}
		if ns := float64(slow.NsPerOp()); i == 0 || ns < baseNs {
			baseNs = ns
		}
		if ns := float64(quick.NsPerOp()); i == 0 || ns < fastNs {
			fastNs = ns
		}
	}
	return baseNs / fastNs
}

// TestBatchThroughputRegression is the batch engine's speed gate (set
// MOUSE_BENCH_SMOKE=1): at full width the bit-sliced engine must beat
// the sequential path by at least 3x per inference on every hot
// workload, with zero label mismatches. BENCH_2.json recorded the real
// margin (≥5x); the CI floor is lower so shared runners don't flake.
func TestBatchThroughputRegression(t *testing.T) {
	if os.Getenv("MOUSE_BENCH_SMOKE") == "" {
		t.Skip("set MOUSE_BENCH_SMOKE=1 to run the throughput regression gate")
	}
	rows, err := bench.ComputeBatch(array.MaxLanes, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Mismatches != 0 {
			t.Errorf("%s: %d mismatches", r.Workload, r.Mismatches)
		}
	}
	for _, hb := range workload.HotBatches() {
		x := speedup(t, hotBatch(hb, false), hotBatch(hb, true))
		t.Logf("%s: batched %.1fx sequential", hb.Name, x)
		if x < 3 {
			t.Errorf("%s: speedup %.2fx below the 3x regression floor", hb.Name, x)
		}
	}
}

// TestSegmentThroughputRegression is the segment engine's speed gate
// (set MOUSE_BENCH_SMOKE=1): it must beat the stepping path by at least
// 3x on every benchmark's Fig. 9 sweep, with zero Result mismatches.
// BENCH_3.json recorded the real margin (≥10x on the grid); the CI
// floor is lower so shared runners don't flake.
func TestSegmentThroughputRegression(t *testing.T) {
	if os.Getenv("MOUSE_BENCH_SMOKE") == "" {
		t.Skip("set MOUSE_BENCH_SMOKE=1 to run the throughput regression gate")
	}
	rows, err := bench.ComputeSegment(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Mismatches != 0 {
			t.Errorf("%s: %d mismatches", r.Workload, r.Mismatches)
		}
	}
	for _, spec := range workload.Benchmarks() {
		x := speedup(t, fig9Row(spec, true), fig9Row(spec, false))
		t.Logf("%s: segment %.1fx stepping", spec.Name, x)
		if x < 3 {
			t.Errorf("%s: speedup %.2fx below the 3x regression floor", spec.Name, x)
		}
	}
}
