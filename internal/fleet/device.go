package fleet

import (
	"sync"
	"sync/atomic"
	"time"

	"mouse/internal/mtj"
	"mouse/internal/power"
	"mouse/internal/probe"
	"mouse/internal/sim"
	"mouse/internal/workload"
)

// Device is one simulated MOUSE device: a single-slot batch inbox, a
// lazily built batch engine per workload, a power.Harvester holding its
// energy buffer, and a probe.Stats shard recording its outages and
// voltage excursions. All engine access happens on the device
// goroutine; the harvester is mutex-guarded because the scheduler reads
// it from the batcher goroutines.
type Device struct {
	f       *Fleet
	in      chan *batch
	stats   *probe.Stats
	served  atomic.Uint64
	engines map[string]workload.Classifier

	mu sync.Mutex
	h  *power.Harvester // its clock counts seconds since the fleet started
}

// buffer is every device's energy buffer: mtj.ModernSTT's capacitor
// (100 µF, 0.320–0.340 V), charged to CapVMax at boot and unusable
// below CapVMin.
var buffer = mtj.ModernSTT()

func newDevice(f *Fleet) *Device {
	stats := &probe.Stats{}
	h := power.NewHarvester(power.Constant{W: f.cfg.HarvestW}, buffer.CapC, buffer.CapVMin, buffer.CapVMax)
	h.Cap.SetVoltage(buffer.CapVMax)
	stats.VoltageSample(0, buffer.CapVMax)
	return &Device{
		f:       f,
		in:      make(chan *batch, 1),
		stats:   stats,
		engines: map[string]workload.Classifier{},
		h:       h,
	}
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
	if err := d.draw(b); err != nil {
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

// catchUp credits the harvest since the device's clock and reports
// whether that clock runs ahead of fleet time, which it does while the
// device sleeps off a recharge. Callers hold d.mu.
func (d *Device) catchUp() (recharging bool) {
	now := d.f.sinceStart()
	if now > d.h.Now() {
		d.h.Idle(now - d.h.Now())
	}
	return now < d.h.Now()
}

// draw spends the batch's modelled price, its workload's HotBatch.Price,
// in one instantaneous draw; the compute time is credited as idle
// harvest by the next catch-up. Each brown-out recharges the buffer to
// V_on (at most sim.DefaultMaxChargeWait per window, else the batch
// fails) and records an outage on the probe shard, and the device then
// sleeps the summed off-time. The shard samples the voltage at each
// brown-out and after the draw, so reading a device's charge records
// nothing. Continuous mode never draws.
func (d *Device) draw(b *batch) error {
	if d.f.cfg.Mode == Continuous {
		return nil
	}
	cost, err := b.wl.hb.Price(b.n)
	if err != nil {
		return err
	}
	d.mu.Lock()
	d.catchUp()
	off := 0.0
	for frac := d.h.Draw(0, cost); frac < 1; frac = d.h.Draw(0, cost) {
		cost -= cost * frac
		begin := d.h.Now()
		d.stats.VoltageSample(begin, d.h.Cap.Voltage())
		dt, err := d.h.ChargeUntilOn(sim.DefaultMaxChargeWait)
		if err != nil {
			d.mu.Unlock()
			return err
		}
		d.stats.OutageBegin(begin)
		d.stats.OutageEnd(d.h.Now(), dt)
		off += dt
	}
	d.stats.VoltageSample(d.h.Now(), d.h.Cap.Voltage())
	d.mu.Unlock()
	if off == 0 {
		return nil
	}
	timer := time.NewTimer(time.Duration(off * float64(time.Second)))
	defer timer.Stop()
	select {
	case <-timer.C:
		return nil
	case <-d.f.ctx.Done():
		return ErrStopped
	}
}

// Available returns the energy the device can spend right now: the
// buffer's charge above the shutdown voltage after crediting harvest,
// or zero while it recharges.
func (d *Device) Available() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.catchUp() {
		return 0
	}
	return d.h.Cap.EnergyAbove(d.h.VOff)
}

// Charge returns the stored energy and the buffer voltage.
func (d *Device) Charge() (joules, volts float64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.catchUp()
	return d.h.Cap.Energy(), d.h.Cap.Voltage()
}
