package fleet

import (
	"sync"
	"sync/atomic"
	"time"

	"mouse/internal/mtj"
	"mouse/internal/power"
	"mouse/internal/probe"
	"mouse/internal/workload"
)

// Device is one simulated MOUSE device: a single-slot batch inbox, a
// lazily built batch engine per workload, a capacitor state-of-charge,
// and a probe.Stats shard recording its outages and voltage excursions.
// All engine access happens on the device goroutine; the charge fields
// are mutex-guarded because the scheduler reads them from the batcher
// goroutines.
type Device struct {
	id      int
	f       *Fleet
	in      chan *batch
	stats   *probe.Stats
	served  atomic.Uint64
	engines map[string]workload.Classifier

	mu         sync.Mutex
	storedJ    float64
	lastCredit time.Time
}

// buffer is every device's energy buffer: mtj.ModernSTT's capacitor
// (100 µF, 0.320–0.340 V), charged to CapVMax at boot and unusable
// below CapVMin.
var buffer = mtj.ModernSTT()

// floorJ and fullJ are the capacitor's usable-energy bounds.
func (f *Fleet) floorJ() float64 { return power.EnergyOf(buffer.CapC, buffer.CapVMin) }
func (f *Fleet) fullJ() float64  { return power.EnergyOf(buffer.CapC, buffer.CapVMax) }

func newDevice(f *Fleet, id int) *Device {
	d := &Device{
		id:      id,
		f:       f,
		in:      make(chan *batch, 1),
		stats:   &probe.Stats{},
		engines: map[string]workload.Classifier{},
		storedJ: f.fullJ(),
	}
	d.lastCredit = f.start
	d.stats.VoltageSample(0, buffer.CapVMax)
	return d
}

// run is the device goroutine: execute batches until the fleet stops,
// then fail whatever is still in the inbox.
func (d *Device) run() {
	defer d.f.wg.Done()
	for {
		select {
		case b := <-d.in:
			d.exec(b)
		case <-d.f.ctx.Done():
			for {
				select {
				case b := <-d.in:
					b.fail(ErrStopped)
				default:
					return
				}
			}
		}
	}
}

// exec charges for, classifies, and scatters one batch. The engine's
// result slice is fresh per call and not retained, so per-request
// sub-slices are handed out without copying.
func (d *Device) exec(b *batch) {
	cls, err := d.engine(b.wl)
	if err != nil {
		b.fail(err)
		return
	}
	if err := d.drawOrWait(float64(b.n) * d.f.cfg.EnergyPerSampleJ); err != nil {
		b.fail(err)
		return
	}
	// A lone request (every capacity-sized one) is classified in place;
	// only a merged batch needs its row headers gathered.
	samples := b.reqs[0].samples
	if len(b.reqs) > 1 {
		samples = make([][]int, 0, b.n)
		for _, r := range b.reqs {
			samples = append(samples, r.samples...)
		}
	}
	preds, err := cls(samples)
	if err != nil {
		b.fail(err)
		return
	}
	off := 0
	for _, r := range b.reqs {
		r.done <- result{preds: preds[off : off+len(r.samples)]}
		off += len(r.samples)
	}
	d.served.Add(uint64(len(b.reqs)))
}

// engine returns the device's classifier for the workload, compiling it
// on first use (device goroutine only, no locking).
func (d *Device) engine(wl *wlState) (workload.Classifier, error) {
	if cls, ok := d.engines[wl.hb.Name]; ok {
		return cls, nil
	}
	cls, err := wl.hb.NewBatched()
	if err != nil {
		return nil, err
	}
	d.engines[wl.hb.Name] = cls
	return cls, nil
}

// credit tops the capacitor up for the wall-clock time since the last
// accounting, capped at the full charge. Callers hold d.mu.
func (d *Device) credit(now time.Time) {
	elapsed := now.Sub(d.lastCredit).Seconds()
	d.lastCredit = now
	if elapsed <= 0 {
		return
	}
	d.storedJ += elapsed * d.f.cfg.HarvestW
	if full := d.f.fullJ(); d.storedJ > full {
		d.storedJ = full
	}
}

// voltsLocked derives the capacitor voltage from the stored energy
// (V = sqrt(2E/C)). Callers hold d.mu.
func (d *Device) voltsLocked() float64 {
	return power.VoltageAfterAdd(buffer.CapC, 0, d.storedJ)
}

// drawOrWait spends cost joules of charge. If the capacitor holds less
// than cost above the floor, the device stalls for the recharge time —
// a real wall-clock sleep recorded as an outage on the probe shard —
// before completing the draw. Continuous mode never waits.
func (d *Device) drawOrWait(cost float64) error {
	f := d.f
	if f.cfg.Mode == Continuous || cost <= 0 {
		return nil
	}
	d.mu.Lock()
	d.credit(time.Now())
	if d.storedJ-f.floorJ() >= cost {
		d.storedJ -= cost
		v := d.voltsLocked()
		d.mu.Unlock()
		d.stats.VoltageSample(f.sinceStart(), v)
		return nil
	}
	need := cost - (d.storedJ - f.floorJ())
	d.mu.Unlock()
	wait := time.Duration(need / f.cfg.HarvestW * float64(time.Second))
	begin := f.sinceStart()
	d.stats.OutageBegin(begin)
	timer := time.NewTimer(wait)
	defer timer.Stop()
	select {
	case <-timer.C:
	case <-f.ctx.Done():
		end := f.sinceStart()
		d.stats.OutageEnd(end, end-begin)
		return ErrStopped
	}
	d.mu.Lock()
	d.credit(time.Now())
	d.storedJ -= cost
	if floor := f.floorJ(); d.storedJ < floor {
		// The timer can undershoot the harvest by a rounding error;
		// clamp rather than carry negative charge.
		d.storedJ = floor
	}
	v := d.voltsLocked()
	d.mu.Unlock()
	end := f.sinceStart()
	d.stats.OutageEnd(end, end-begin)
	d.stats.VoltageSample(end, v)
	return nil
}

// Available returns the energy the device can spend right now (stored
// charge above the shutdown floor, after crediting harvest). In
// continuous mode every device always reports the full window.
func (d *Device) Available() float64 {
	if d.f.cfg.Mode == Continuous {
		return d.f.fullJ() - d.f.floorJ()
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.credit(time.Now())
	return d.storedJ - d.f.floorJ()
}

// Charge returns the stored energy and the capacitor voltage.
func (d *Device) Charge() (joules, volts float64) {
	if d.f.cfg.Mode == Continuous {
		full := d.f.fullJ()
		return full, buffer.CapVMax
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.credit(time.Now())
	return d.storedJ, d.voltsLocked()
}
