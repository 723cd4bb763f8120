package fleet

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"mouse/internal/power"
	"mouse/internal/workload"
)

// quickConfig is a continuous-power fleet that never stalls or lingers:
// the fast default for tests that don't exercise the energy model.
func quickConfig() Config {
	cfg := DefaultConfig()
	cfg.Devices = 2
	cfg.Mode = Continuous
	cfg.BatchLinger = 0
	return cfg
}

func newFleet(t *testing.T, cfg Config) *Fleet {
	t.Helper()
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Stop)
	return f
}

func TestConfigValidation(t *testing.T) {
	mut := map[string]func(*Config){
		"no devices":       func(c *Config) { c.Devices = 0 },
		"no queue":         func(c *Config) { c.QueueDepth = 0 },
		"bad mode":         func(c *Config) { c.Mode = "solar" },
		"no harvest":       func(c *Config) { c.HarvestW = 0 },
		"negative harvest": func(c *Config) { c.Mode, c.HarvestW = Continuous, -1 },
		"bad workload":     func(c *Config) { c.Workloads = []string{"frobnicate"} },
		"dup workload":     func(c *Config) { c.Workloads = []string{"svm-adult", "svm-adult"} },
	}
	for name, fn := range mut {
		cfg := DefaultConfig()
		fn(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: config accepted", name)
		}
	}
	if _, err := New(DefaultConfig()); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

// TestConfigRejectsNonFinite: NaN passes every <= and < range check,
// so the harvest rate must be rejected as NaN or ±Inf explicitly. A
// fleet built on one would report NaN charge on /metrics.
func TestConfigRejectsNonFinite(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		cfg := DefaultConfig()
		cfg.HarvestW = v
		if f, err := New(cfg); err == nil {
			f.Stop()
			t.Errorf("HarvestW = %g: config accepted", v)
		}
	}
}

func TestRankByCharge(t *testing.T) {
	cases := []struct {
		avail []float64
		want  []int
	}{
		{[]float64{1, 3, 2}, []int{1, 2, 0}},
		{[]float64{5}, []int{0}},
		{[]float64{2, 2, 2}, []int{0, 1, 2}}, // ties keep index order: deterministic
		{[]float64{0, 0, 7, 0}, []int{2, 0, 1, 3}},
	}
	for _, c := range cases {
		got := rankByCharge(c.avail)
		for i := range c.want {
			if got[i] != c.want[i] {
				t.Errorf("rankByCharge(%v) = %v, want %v", c.avail, got, c.want)
				break
			}
		}
	}
}

// TestInferMatchesOffline: for both power modes and every hot workload,
// predictions served through the fleet's batcher, scheduler, and device
// engines must be bit-identical to a locally built batch classifier.
func TestInferMatchesOffline(t *testing.T) {
	for _, mode := range []PowerMode{Continuous, Harvested} {
		cfg := quickConfig()
		cfg.Mode = mode
		if mode == Harvested {
			cfg.HarvestW = 0.5 // µs recharge stalls on the svm-adult chunks (3.5 and 4.5 µJ)
			cfg.BatchLinger = 100 * time.Microsecond
		}
		f := newFleet(t, cfg)
		for _, hb := range workload.HotBatches() {
			offline, err := hb.NewBatched()
			if err != nil {
				t.Fatal(err)
			}
			samples := hb.Samples(16)
			for _, chunk := range [][][]int{samples[:7], samples[7:16]} {
				want, err := offline(chunk)
				if err != nil {
					t.Fatal(err)
				}
				got, err := f.Infer(context.Background(), hb.Name, chunk)
				if err != nil {
					t.Fatalf("%s/%s: %v", mode, hb.Name, err)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Errorf("%s/%s sample %d: fleet %d, offline %d", mode, hb.Name, i, got[i], want[i])
					}
				}
			}
		}
	}
}

func TestInferValidation(t *testing.T) {
	f := newFleet(t, quickConfig())
	hb, err := workload.HotBatchByName("svm-adult")
	if err != nil {
		t.Fatal(err)
	}
	good := hb.Samples(1)[0]
	cases := map[string]struct {
		wl      string
		samples [][]int
	}{
		"unknown workload": {"frobnicate", [][]int{good}},
		"empty batch":      {"svm-adult", nil},
		"oversized batch":  {"svm-adult", make([][]int, hb.Capacity+1)},
		"wrong features":   {"svm-adult", [][]int{append(append([]int{}, good...), 1)}},
	}
	for name, c := range cases {
		if _, err := f.Infer(context.Background(), c.wl, c.samples); !errors.Is(err, ErrInvalid) {
			t.Errorf("%s: err = %v, want ErrInvalid", name, err)
		}
	}
}

// TestPlacementPrefersCharged drains two of three buffers through their
// harvesters and checks the harvested scheduler ranks the full device
// first, while the continuous scheduler rotates.
func TestPlacementPrefersCharged(t *testing.T) {
	cfg := quickConfig()
	cfg.Devices = 3
	cfg.Mode = Harvested
	cfg.HarvestW = 1e-12 // too slow to recharge within the test
	f := newFleet(t, cfg)
	for _, i := range []int{0, 2} {
		d := f.devices[i]
		d.mu.Lock()
		d.catchUp()
		d.h.Draw(0, 1) // a joule browns the buffer out
		d.mu.Unlock()
	}
	if order := f.placement(); order[0] != 1 {
		t.Errorf("harvested placement %v, want device 1 (the only charged one) first", order)
	}

	cont := newFleet(t, quickConfig())
	first := cont.placement()
	second := cont.placement()
	if first[0] == second[0] {
		t.Errorf("continuous placement did not rotate: %v then %v", first, second)
	}
}

// TestBatchCoalescing: with a generous linger window, 8 concurrent
// single-sample requests must share replays instead of dispatching 8
// batches.
func TestBatchCoalescing(t *testing.T) {
	cfg := quickConfig()
	cfg.Devices = 1
	cfg.BatchLinger = 250 * time.Millisecond
	cfg.Workloads = []string{"svm-adult"}
	f := newFleet(t, cfg)
	hb, err := workload.HotBatchByName("svm-adult")
	if err != nil {
		t.Fatal(err)
	}
	samples := hb.Samples(8)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := f.Infer(context.Background(), "svm-adult", samples[i:i+1]); err != nil {
				t.Errorf("request %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	if got := f.BatchedSamples(); got != 8 {
		t.Errorf("BatchedSamples = %d, want 8", got)
	}
	if got := f.Batches(); got >= 8 {
		t.Errorf("dispatched %d batches for 8 lingering requests, want coalescing", got)
	}
	if got := f.DeviceServed(0); got != 8 {
		t.Errorf("DeviceServed(0) = %d, want 8", got)
	}
}

// TestHarvestedStallRecordsOutage: a draw bigger than the capacitor
// window must stall as a probe-visible outage and land the charge near
// the floor.
func TestHarvestedStallRecordsOutage(t *testing.T) {
	cfg := quickConfig()
	cfg.Devices = 1
	cfg.Mode = Harvested
	cfg.HarvestW = 0.5
	cfg.Workloads = []string{"svm-adult"}
	f := newFleet(t, cfg)
	hb, err := workload.HotBatchByName("svm-adult")
	if err != nil {
		t.Fatal(err)
	}
	// Four 0.50 µJ passes cost ~3x the 0.66 µJ window.
	if _, err := f.Infer(context.Background(), "svm-adult", hb.Samples(4)); err != nil {
		t.Fatal(err)
	}
	sec := f.DeviceStats()[0].Section()
	if sec.Outages < 1 {
		t.Errorf("over-window draw recorded %d outages, want >= 1", sec.Outages)
	}
	if sec.OutageSeconds <= 0 {
		t.Errorf("outage seconds %g, want > 0", sec.OutageSeconds)
	}
	if sec.VoltageMin < buffer.CapVMin-1e-9 || sec.VoltageMin >= sec.VoltageMax {
		t.Errorf("voltage excursion [%g, %g] outside capacitor window [%g, %g]",
			sec.VoltageMin, sec.VoltageMax, buffer.CapVMin, buffer.CapVMax)
	}
	j, v := f.DeviceCharge(0)
	if j > power.EnergyOf(buffer.CapC, buffer.CapVMax) || v > buffer.CapVMax+1e-9 {
		t.Errorf("charge %g J / %g V above the full window", j, v)
	}
}

// TestHarvestedOutagesMatchPrice: one 8-sample svm-adult request on a
// fully charged device draws 8 passes of the workload's modelled price
// and recharges once per window that price outruns: ceil((8·E_run −
// window)/window) = 6 with E_run = 0.50 µJ and the 0.66 µJ window. The
// voltage excursion spans exactly V_off to V_max, and the stalls leave
// the predictions as the offline classifier's.
func TestHarvestedOutagesMatchPrice(t *testing.T) {
	cfg := quickConfig()
	cfg.Devices = 1
	cfg.Mode = Harvested
	cfg.HarvestW = 0.5
	cfg.Workloads = []string{"svm-adult"}
	f := newFleet(t, cfg)
	hb, err := workload.HotBatchByName("svm-adult")
	if err != nil {
		t.Fatal(err)
	}
	price, err := hb.Price(8)
	if err != nil {
		t.Fatal(err)
	}
	window := power.EnergyAboveOf(buffer.CapC, buffer.CapVMax, buffer.CapVMin)
	recharges := uint64(math.Ceil((price - window) / window))
	if recharges != 6 {
		t.Fatalf("8 passes of %g J over a %g J window need %d recharges, want 6", price/8, window, recharges)
	}
	samples := hb.Samples(8)
	got, err := f.Infer(context.Background(), "svm-adult", samples)
	if err != nil {
		t.Fatal(err)
	}
	offline, err := hb.NewBatched()
	if err != nil {
		t.Fatal(err)
	}
	want, err := offline(samples)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("sample %d: fleet %d, offline %d", i, got[i], want[i])
		}
	}
	sec := f.DeviceStats()[0].Section()
	if sec.Outages != recharges {
		t.Errorf("recorded %d outages, want %d", sec.Outages, recharges)
	}
	if sec.VoltageMin != buffer.CapVMin || sec.VoltageMax != buffer.CapVMax {
		t.Errorf("voltage excursion [%g, %g], want exactly [%g, %g]",
			sec.VoltageMin, sec.VoltageMax, buffer.CapVMin, buffer.CapVMax)
	}
}

// TestHarvestedRechargeBound: a recharge longer than the simulator's
// 24 h bound fails the batch with the harvester's error. At 0.1 pW one
// 0.66 µJ window takes 6.6e6 s; converted to a time.Duration whole, the
// 8.2e10 s stall a capacity-sized bnn-hidden16 batch once asked for
// wrapped negative and the device "recharged" at once.
func TestHarvestedRechargeBound(t *testing.T) {
	cfg := quickConfig()
	cfg.Devices = 1
	cfg.Mode = Harvested
	cfg.HarvestW = 1e-13
	cfg.Workloads = []string{"bnn-hidden16"}
	f := newFleet(t, cfg)
	hb, err := workload.HotBatchByName("bnn-hidden16")
	if err != nil {
		t.Fatal(err)
	}
	preds, err := f.Infer(context.Background(), hb.Name, hb.Samples(hb.Capacity))
	if err == nil {
		t.Fatalf("a recharge beyond 24 h served %d predictions, want an error", len(preds))
	}
	if errors.Is(err, ErrStopped) || errors.Is(err, ErrInvalid) {
		t.Errorf("err = %v, want the harvester's recharge-bound error", err)
	}
}

// TestQueueFullRejects starves a single device so the pipeline backs up
// into the depth-1 admission queue and a fresh request bounces with
// OverloadedError.
func TestQueueFullRejects(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Devices = 1
	cfg.QueueDepth = 1
	cfg.BatchLinger = 0
	cfg.HarvestW = 1e-9 // a 660 s recharge per 0.66 µJ window
	cfg.Workloads = []string{"svm-adult"}
	f := newFleet(t, cfg)
	hb, err := workload.HotBatchByName("svm-adult")
	if err != nil {
		t.Fatal(err)
	}
	// 64 passes of 0.50 µJ: the first batch stalls the device for hours.
	sample := hb.Samples(hb.Capacity)

	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		_, err := f.Infer(ctx, "svm-adult", sample)
		cancel()
		var oe *OverloadedError
		if errors.As(err, &oe) {
			if !errors.Is(err, ErrOverloaded) {
				t.Error("OverloadedError does not match the ErrOverloaded sentinel")
			}
			if oe.Workload != "svm-adult" || oe.RetryAfter <= 0 {
				t.Errorf("rejection: %+v", oe)
			}
			if f.Rejected() == 0 {
				t.Error("rejection not counted")
			}
			return
		}
		// context.DeadlineExceeded: the request was admitted and is now
		// wedged somewhere in the stalled pipeline — keep filling.
	}
	t.Fatal("starved depth-1 fleet never rejected a request")
}

// TestStopFailsInflight: Stop must wake a request stalled mid-recharge
// with ErrStopped, and later Infers must refuse immediately.
func TestStopFailsInflight(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Devices = 1
	cfg.BatchLinger = 0
	cfg.HarvestW = 1e-9
	cfg.Workloads = []string{"svm-adult"}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hb, err := workload.HotBatchByName("svm-adult")
	if err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() {
		// A capacity-sized request stalls the device for hours.
		_, err := f.Infer(context.Background(), "svm-adult", hb.Samples(hb.Capacity))
		errCh <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the request reach the stall
	f.Stop()
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrStopped) {
			t.Errorf("in-flight request got %v, want ErrStopped", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("in-flight request still blocked after Stop")
	}
	if _, err := f.Infer(context.Background(), "svm-adult", hb.Samples(1)); !errors.Is(err, ErrStopped) {
		t.Errorf("post-Stop Infer got %v, want ErrStopped", err)
	}
	f.Stop() // idempotent
}

func TestIntrospection(t *testing.T) {
	f := newFleet(t, quickConfig())
	infos := f.Workloads()
	if len(infos) != 2 || infos[0].Name != "bnn-hidden16" || infos[1].Name != "svm-adult" {
		t.Fatalf("Workloads() = %+v, want both hot workloads sorted by name", infos)
	}
	for _, wi := range infos {
		if wi.Capacity <= 0 || wi.LaneWidth <= 0 {
			t.Errorf("workload %s: bad geometry %+v", wi.Name, wi)
		}
	}
	if !f.HasWorkload("svm-adult") || f.HasWorkload("frobnicate") {
		t.Error("HasWorkload misreports")
	}
	if f.Devices() != 2 || f.QueueDepth("svm-adult") != 0 || f.QueueDepth("frobnicate") != 0 {
		t.Error("introspection misreports an idle fleet")
	}
	j, v := f.DeviceCharge(0)
	if j != power.EnergyOf(buffer.CapC, buffer.CapVMax) || v != buffer.CapVMax {
		t.Errorf("continuous device charge %g J / %g V, want the full window", j, v)
	}
}
