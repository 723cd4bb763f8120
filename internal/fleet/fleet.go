// Package fleet runs a sharded fleet of simulated MOUSE devices behind
// an inference-serving front end: requests are admitted per workload
// into a bounded queue, coalesced into bit-sliced batches (fill the
// lanes or hit a deadline, whichever first), and placed on the device
// with the most harvested charge. Each device owns its compiled batch
// engines (workload.HotBatches recipes replayed through
// array.BatchMachine), a power.Harvester over mtj.ModernSTT's energy
// buffer fed by a constant HarvestW source, and a probe.Stats telemetry
// shard, so a fleet-wide metrics view is one Stats.Merge away.
//
// The energy model is the simulator's own: the harvester boots at
// V_max, credits harvest for the fleet time since its clock, and
// charges each batch its modelled price, the continuous-power compute
// and backup energy of ceil(n/LaneWidth) passes of the workload's
// program (workload.HotBatch.Price). A batch that outruns the buffer
// recharges it once per brown-out, each recharge an outage on the
// device's probe shard, and the device sleeps the summed off-time. That
// is what makes placement by charge and admission backpressure
// observable end to end.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mouse/internal/probe"
	"mouse/internal/workload"
)

// PowerMode selects the fleet's power source.
type PowerMode string

const (
	// Continuous powers every device unconditionally: no charge
	// tracking, no stalls, round-robin placement. The latency baseline.
	Continuous PowerMode = "continuous"

	// Harvested charges each batch's modelled price to its device's
	// harvester, topped up at HarvestW; batches that outrun the harvest
	// stall the device and the scheduler routes around it by charge.
	Harvested PowerMode = "harvested"
)

// Config sizes a fleet.
type Config struct {
	// Devices is the number of simulated devices (shards).
	Devices int

	// QueueDepth bounds each workload's admission queue; a full queue
	// rejects with ErrOverloaded (HTTP 429 upstream).
	QueueDepth int

	// BatchLinger is the batching deadline: after the first request of
	// a batch arrives, the batcher waits at most this long for more
	// lanes before dispatching. Zero dispatches whatever is immediately
	// queued.
	BatchLinger time.Duration

	// Mode selects Continuous or Harvested power.
	Mode PowerMode

	// HarvestW is the per-device harvest rate in watts: positive in
	// Harvested mode, and not negative in Continuous mode, whose
	// devices never draw and so stay at V_max.
	HarvestW float64

	// Workloads restricts the served workloads to these hot-batch
	// registry names; nil serves every workload.HotBatches entry.
	Workloads []string
}

// DefaultConfig returns a small harvested fleet with a 5 mW harvester.
func DefaultConfig() Config {
	return Config{
		Devices:     4,
		QueueDepth:  256,
		BatchLinger: 2 * time.Millisecond,
		Mode:        Harvested,
		HarvestW:    5e-3,
	}
}

func (c Config) validate() error {
	switch {
	case c.Devices < 1:
		return fmt.Errorf("fleet: %d devices", c.Devices)
	case c.QueueDepth < 1:
		return fmt.Errorf("fleet: queue depth %d", c.QueueDepth)
	case c.Mode != Continuous && c.Mode != Harvested:
		return fmt.Errorf("fleet: unknown power mode %q", c.Mode)
	case !(c.HarvestW >= 0) || math.IsInf(c.HarvestW, 1): // NaN fails >=
		return fmt.Errorf("fleet: harvest rate %g W is not a finite non-negative power", c.HarvestW)
	case c.Mode == Harvested && c.HarvestW == 0:
		return fmt.Errorf("fleet: harvested mode needs a positive harvest rate")
	}
	return nil
}

// Sentinel errors. OverloadedError carries the Retry-After hint and
// matches ErrOverloaded through errors.Is.
var (
	// ErrInvalid wraps request-validation failures (unknown workload,
	// empty or oversized batch, wrong feature count): the client's
	// fault, HTTP 400 upstream.
	ErrInvalid = errors.New("fleet: invalid request")

	// ErrOverloaded reports a full admission queue: backpressure, HTTP
	// 429 upstream.
	ErrOverloaded = errors.New("fleet: overloaded")

	// ErrStopped reports a fleet shut down while the request was in
	// flight.
	ErrStopped = errors.New("fleet: stopped")
)

// OverloadedError is the concrete rejection: errors.Is(err,
// ErrOverloaded) matches it, and RetryAfter hints when the client
// should try again.
type OverloadedError struct {
	Workload   string
	RetryAfter time.Duration
}

func (e *OverloadedError) Error() string {
	return fmt.Sprintf("fleet: %s admission queue full, retry after %v", e.Workload, e.RetryAfter)
}

// Is matches the ErrOverloaded sentinel.
func (e *OverloadedError) Is(target error) bool { return target == ErrOverloaded }

// result is one request's reply.
type result struct {
	preds []int
	err   error
}

// request is one admitted Infer call waiting for its batch to execute.
type request struct {
	samples [][]int
	done    chan result // buffered 1: the executor never blocks on it
}

// batch is a set of requests dispatched to one device as a single
// bit-sliced replay.
type batch struct {
	wl   *wlState
	reqs []*request
	n    int // total samples across reqs
}

// fail replies err to every request of the batch.
func (b *batch) fail(err error) {
	for _, r := range b.reqs {
		r.done <- result{err: err}
	}
}

// wlState is one served workload: its hot-batch recipe and admission
// queue (the batcher goroutine drains it).
type wlState struct {
	hb    workload.HotBatch
	queue chan *request
}

// WorkloadInfo describes one served workload.
type WorkloadInfo struct {
	// Name keys the workload in requests ("svm-adult", "bnn-hidden16").
	Name string `json:"name"`
	// Capacity is the most samples one batched replay serves (64 lanes
	// times the mapping's column batch); also the per-request limit.
	Capacity int `json:"capacity"`
	// LaneWidth is the mapping's column batch (workload.HotBatch's
	// LaneWidth): Capacity is 64 times it.
	LaneWidth int `json:"lane_width"`
}

// Fleet is the running device fleet. Construct with New, serve with
// Infer, shut down with Stop.
type Fleet struct {
	cfg     Config
	ctx     context.Context
	cancel  context.CancelFunc
	wg      sync.WaitGroup
	stopped sync.Once

	start   time.Time
	devices []*Device
	wls     map[string]*wlState
	names   []string // sorted workload names

	rr             atomic.Uint64 // continuous-mode round-robin cursor
	batches        atomic.Uint64
	batchedSamples atomic.Uint64
	rejected       atomic.Uint64
}

// New validates cfg, builds the devices, and starts the batcher and
// device goroutines. Workload engines are compiled lazily, per device,
// on the first batch of each workload, so construction is cheap.
func New(cfg Config) (*Fleet, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	wanted := cfg.Workloads
	if wanted == nil {
		for _, hb := range workload.HotBatches() {
			wanted = append(wanted, hb.Name)
		}
	}
	f := &Fleet{cfg: cfg, start: time.Now(), wls: map[string]*wlState{}}
	for _, name := range wanted {
		hb, err := workload.HotBatchByName(name)
		if err != nil {
			return nil, err
		}
		if _, dup := f.wls[name]; dup {
			return nil, fmt.Errorf("fleet: workload %q listed twice", name)
		}
		f.wls[name] = &wlState{hb: hb, queue: make(chan *request, cfg.QueueDepth)}
		f.names = append(f.names, name)
	}
	sort.Strings(f.names)
	f.ctx, f.cancel = context.WithCancel(context.Background())
	for i := 0; i < cfg.Devices; i++ {
		f.devices = append(f.devices, newDevice(f))
	}
	for _, d := range f.devices {
		f.wg.Add(1)
		go d.run()
	}
	for _, name := range f.names {
		wl := f.wls[name]
		f.wg.Add(1)
		go f.batchLoop(wl)
	}
	return f, nil
}

// Stop shuts the fleet down: queued and in-flight requests fail with
// ErrStopped, goroutines exit. Idempotent.
func (f *Fleet) Stop() {
	f.stopped.Do(func() {
		f.cancel()
		f.wg.Wait()
	})
}

// Infer classifies samples on the named workload, blocking until the
// batch containing the request executes. It returns ErrInvalid-wrapped
// errors for malformed requests, an OverloadedError when the admission
// queue is full, ErrStopped after Stop, or ctx's error if the caller
// gives up first.
func (f *Fleet) Infer(ctx context.Context, name string, samples [][]int) ([]int, error) {
	wl, ok := f.wls[name]
	if !ok {
		return nil, fmt.Errorf("%w: unknown workload %q", ErrInvalid, name)
	}
	if len(samples) == 0 || len(samples) > wl.hb.Capacity {
		return nil, fmt.Errorf("%w: batch of %d samples outside [1, %d]", ErrInvalid, len(samples), wl.hb.Capacity)
	}
	feats, err := wl.hb.Features()
	if err != nil {
		return nil, err
	}
	for i, x := range samples {
		if len(x) != feats {
			return nil, fmt.Errorf("%w: sample %d has %d features, %s expects %d", ErrInvalid, i, len(x), name, feats)
		}
	}
	select {
	case <-f.ctx.Done():
		return nil, ErrStopped
	default:
	}
	req := &request{samples: samples, done: make(chan result, 1)}
	select {
	case wl.queue <- req:
	default:
		f.rejected.Add(1)
		return nil, &OverloadedError{Workload: name, RetryAfter: f.retryAfter()}
	}
	select {
	case res := <-req.done:
		return res.preds, res.err
	case <-f.ctx.Done():
		return nil, ErrStopped
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// retryAfter is the backpressure hint on a full queue: one linger
// window (the soonest another batch can close), floored so clients
// never busy-spin.
func (f *Fleet) retryAfter() time.Duration {
	retry := f.cfg.BatchLinger
	if retry < 50*time.Millisecond {
		retry = 50 * time.Millisecond
	}
	return retry
}

// batchLoop is one workload's batcher: it assembles batches from the
// admission queue and dispatches each to a device, carrying over the
// request that overflowed the previous batch, until the fleet stops.
func (f *Fleet) batchLoop(wl *wlState) {
	defer f.wg.Done()
	var leftover *request
	for {
		b, next, ok := f.fill(wl, leftover)
		leftover = next
		if b != nil {
			f.dispatch(b)
		}
		if !ok {
			if leftover != nil {
				leftover.done <- result{err: ErrStopped}
			}
			f.drain(wl)
			return
		}
	}
}

// fill assembles one batch: it blocks for the first request (seed, if
// the previous batch overflowed), then adds requests until the batch
// holds Capacity samples or the linger deadline — measured from the
// first request — expires. A request that would overflow the batch
// closes it and seeds the next one. ok is false when the fleet is
// stopping.
func (f *Fleet) fill(wl *wlState, seed *request) (b *batch, leftover *request, ok bool) {
	first := seed
	if first == nil {
		select {
		case first = <-wl.queue:
		case <-f.ctx.Done():
			return nil, nil, false
		}
	}
	b = &batch{wl: wl, reqs: []*request{first}, n: len(first.samples)}
	capacity := wl.hb.Capacity
	add := func(r *request) bool {
		if b.n+len(r.samples) > capacity {
			leftover = r
			return false
		}
		b.reqs = append(b.reqs, r)
		b.n += len(r.samples)
		return true
	}
	if f.cfg.BatchLinger <= 0 {
		for b.n < capacity {
			select {
			case r := <-wl.queue:
				if !add(r) {
					return b, leftover, true
				}
			default:
				return b, nil, true
			}
		}
		return b, nil, true
	}
	timer := time.NewTimer(f.cfg.BatchLinger)
	defer timer.Stop()
	for b.n < capacity {
		select {
		case r := <-wl.queue:
			if !add(r) {
				return b, leftover, true
			}
		case <-timer.C:
			return b, nil, true
		case <-f.ctx.Done():
			return b, nil, false
		}
	}
	return b, nil, true
}

// dispatch places the batch on a device: first device in placement
// order with a free slot, else block on the preferred one. Device inbox
// capacity is 1, so sustained overload backs up here, then into the
// admission queue, then into 429s — backpressure end to end.
func (f *Fleet) dispatch(b *batch) {
	f.batches.Add(1)
	f.batchedSamples.Add(uint64(b.n))
	order := f.placement()
	for _, i := range order {
		select {
		case f.devices[i].in <- b:
			return
		default:
		}
	}
	select {
	case f.devices[order[0]].in <- b:
	case <-f.ctx.Done():
		b.fail(ErrStopped)
	}
}

// placement ranks devices for the next batch. Harvested mode prefers
// the device with the most available charge (it is the least likely to
// stall); continuous mode has no charge signal and round-robins.
func (f *Fleet) placement() []int {
	if f.cfg.Mode == Continuous {
		n := len(f.devices)
		start := int(f.rr.Add(1)-1) % n
		order := make([]int, n)
		for i := range order {
			order[i] = (start + i) % n
		}
		return order
	}
	avail := make([]float64, len(f.devices))
	for i, d := range f.devices {
		avail[i] = d.Available()
	}
	return rankByCharge(avail)
}

// rankByCharge orders device indices by available charge, descending,
// ties broken by lower index — a pure function so the scheduler is unit
// testable without a running fleet.
func rankByCharge(avail []float64) []int {
	order := make([]int, len(avail))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return avail[order[a]] > avail[order[b]]
	})
	return order
}

// drain fails whatever is left in the admission queue after stop.
func (f *Fleet) drain(wl *wlState) {
	for {
		select {
		case r := <-wl.queue:
			r.done <- result{err: ErrStopped}
		default:
			return
		}
	}
}

// sinceStart is the fleet-relative timestamp fed to probe events.
func (f *Fleet) sinceStart() float64 { return time.Since(f.start).Seconds() }

// --- introspection --------------------------------------------------------

// Workloads lists the served workloads, sorted by name.
func (f *Fleet) Workloads() []WorkloadInfo {
	out := make([]WorkloadInfo, 0, len(f.names))
	for _, name := range f.names {
		hb := f.wls[name].hb
		out = append(out, WorkloadInfo{Name: hb.Name, Capacity: hb.Capacity, LaneWidth: hb.LaneWidth})
	}
	return out
}

// HasWorkload reports whether the fleet serves name.
func (f *Fleet) HasWorkload(name string) bool {
	_, ok := f.wls[name]
	return ok
}

// QueueDepth returns the named workload's current admission-queue
// length (0 for unknown workloads).
func (f *Fleet) QueueDepth(name string) int {
	wl, ok := f.wls[name]
	if !ok {
		return 0
	}
	return len(wl.queue)
}

// Devices returns the device count.
func (f *Fleet) Devices() int { return len(f.devices) }

// DeviceStats returns every device's probe shard, in device order —
// merge them for the fleet view.
func (f *Fleet) DeviceStats() []*probe.Stats {
	out := make([]*probe.Stats, len(f.devices))
	for i, d := range f.devices {
		out[i] = d.stats
	}
	return out
}

// DeviceCharge returns device i's stored energy and capacitor voltage.
func (f *Fleet) DeviceCharge(i int) (joules, volts float64) {
	return f.devices[i].Charge()
}

// DeviceServed returns the requests device i has answered.
func (f *Fleet) DeviceServed(i int) uint64 { return f.devices[i].served.Load() }

// Batches returns the batches dispatched so far.
func (f *Fleet) Batches() uint64 { return f.batches.Load() }

// BatchedSamples returns the samples dispatched so far.
func (f *Fleet) BatchedSamples() uint64 { return f.batchedSamples.Load() }

// Rejected returns the requests refused at admission.
func (f *Fleet) Rejected() uint64 { return f.rejected.Load() }
