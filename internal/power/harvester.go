package power

import (
	"errors"
	"fmt"
	"math"

	"mouse/internal/probe"
)

// ErrInvalidHarvester marks a harvester whose configuration cannot
// execute the voltage-window protocol (and would previously hang or
// silently misbehave inside ChargeUntilOn). Typed so callers can
// errors.Is it.
var ErrInvalidHarvester = errors.New("power: invalid harvester")

// Harvester combines a power source, the capacitor buffer, and the
// voltage-window policy into the stepping model the intermittent
// simulator drives. Time is explicit: the harvester tracks the global
// simulation clock so trace and solar sources see wall-clock time.
type Harvester struct {
	Src Source
	Cap *Capacitor

	// VOff is the shutdown voltage: once the buffer drops here, the
	// machine powers down. VOn is the restart voltage the buffer must
	// recharge to before the machine boots again.
	VOff, VOn float64

	// VMax caps the buffer voltage (the regulator sheds surplus harvest
	// once the buffer is full). Defaults to VOn if zero.
	VMax float64

	// Obs receives capacitor-voltage samples, decimated to at most one
	// per SampleEvery seconds of simulated time; the brown-out and
	// recharge-complete voltages are always sampled so the waveform's
	// envelope survives decimation. SampleEvery <= 0 or a nil/no-op
	// observer disables sampling entirely.
	Obs         probe.Observer
	SampleEvery float64

	now        float64
	lastSample float64
}

// NewHarvester builds a harvester with the buffer initially empty — the
// paper assumes every run starts below the shutdown voltage, so all
// benchmarks begin with an initial charging period.
func NewHarvester(src Source, capacitance, vOff, vOn float64) *Harvester {
	return &Harvester{
		Src:  src,
		Cap:  NewCapacitor(capacitance, 0),
		VOff: vOff,
		VOn:  vOn,
		VMax: vOn,
	}
}

// Now returns the simulation clock in seconds.
func (h *Harvester) Now() float64 { return h.now }

// AdvanceClock adds dt seconds to the simulation clock with no energy
// exchange. The analytic segment engine (internal/sim) accounts energy
// and buffer voltage itself and commits its elapsed time in bulk when a
// run finishes.
func (h *Harvester) AdvanceClock(dt float64) { h.now += dt }

// vmax returns the effective voltage cap: VMax, defaulting to VOn when
// zero — the documented default, which a Harvester built as a struct
// literal relies on (NewHarvester always fills VMax in).
func (h *Harvester) vmax() float64 {
	if h.VMax == 0 {
		return h.VOn
	}
	return h.VMax
}

// SamplingEnabled reports whether voltage sampling is live: an observer
// is attached and SampleEvery is positive. A harvester with sampling
// disabled behaves identically whether or not Obs is set, which is what
// makes it eligible for the segment engine's bulk accounting.
func (h *Harvester) SamplingEnabled() bool { return h.Obs != nil && h.SampleEvery > 0 }

// Validate checks the harvester's physical configuration: a finite
// positive capacitance, a finite voltage window ordered vOn > vOff > 0,
// a finite cap VMax that does not sit below the restart voltage, and,
// for a Constant source, a finite power. ChargeUntilOn calls it so a
// misconfigured harvester fails with a typed error instead of hanging
// in the charge loop (a zero-capacitance buffer, for example, reaches
// its target energy of zero instantly yet can never hold a voltage
// window). The tests are written !(x > 0) so a NaN fails them too.
func (h *Harvester) Validate() error {
	var problem string
	switch {
	case h.Src == nil:
		problem = "nil power source"
	case h.Cap == nil || !(h.Cap.C > 0) || math.IsInf(h.Cap.C, 1):
		problem = "capacitance must be finite and > 0"
	case !(h.VOff > 0) || math.IsInf(h.VOff, 1):
		problem = "shutdown voltage must be finite and > 0"
	case !(h.VOn > h.VOff) || math.IsInf(h.VOn, 1):
		problem = "restart voltage must be finite and exceed the shutdown voltage"
	case !(h.vmax() >= h.VOn) || math.IsInf(h.vmax(), 1):
		problem = "voltage cap must be finite and not below the restart voltage"
	default:
		c, ok := h.Src.(Constant)
		if !ok || !math.IsNaN(c.W) && !math.IsInf(c.W, 0) {
			return nil
		}
		problem = "constant source power must be finite"
	}
	src := "none"
	if h.Src != nil {
		src = h.Src.Name()
	}
	return fmt.Errorf("%w: %s (source %s, window %g-%g V, cap %g V)",
		ErrInvalidHarvester, problem, src, h.VOff, h.VOn, h.VMax)
}

// sample emits a decimated voltage sample; force bypasses the
// decimation for envelope points (brown-out, recharge complete). The
// nil check keeps unobserved harvesters at one branch per step.
func (h *Harvester) sample(force bool) {
	if h.Obs == nil || h.SampleEvery <= 0 {
		return
	}
	if !force && h.now-h.lastSample < h.SampleEvery {
		return
	}
	h.lastSample = h.now
	h.Obs.VoltageSample(h.now, h.Cap.Voltage())
}

// On reports whether the buffer is above the shutdown voltage.
func (h *Harvester) On() bool { return h.Cap.Voltage() > h.VOff }

// chargeStep is the integration step used while charging from a
// non-constant source, as a fraction of the remaining estimate.
const chargeQuantum = 1e-3 // seconds

// ChargeUntilOn advances time until the buffer reaches VOn, returning the
// elapsed charging time. Constant sources use the closed form
// t = C·(Von²−V²)/(2P); other sources are integrated in small steps. It
// returns an error if the source cannot reach VOn within maxWait seconds
// (non-termination guard).
func (h *Harvester) ChargeUntilOn(maxWait float64) (float64, error) {
	if err := h.Validate(); err != nil {
		return 0, err
	}
	start := h.now
	target := 0.5 * h.Cap.C * h.VOn * h.VOn
	if _, isConst := h.Src.(Constant); isConst {
		plan, _ := h.Plan()
		dt, charged, err := plan.ChargeTime(h.Cap.Energy(), maxWait)
		if err != nil {
			return 0, err
		}
		if charged {
			h.now += dt
			h.Cap.SetVoltage(h.VOn)
			h.sample(true)
		}
		// The closed form is returned directly rather than as a clock
		// difference: fl((now+dt)−now) wobbles with the clock's
		// magnitude, and the segment engine must see the same off-time
		// at every outage of a steady source.
		return dt, nil
	}
	for h.Cap.Energy() < target {
		if h.now-start > maxWait {
			return 0, fmt.Errorf("power: source %s did not recharge the buffer within %.3g s", h.Src.Name(), maxWait)
		}
		p := h.Src.Power(h.now)
		h.Cap.AddEnergy(p * chargeQuantum)
		h.now += chargeQuantum
		h.sample(false)
	}
	if h.Cap.Voltage() > h.vmax() {
		h.Cap.SetVoltage(h.vmax())
	}
	h.sample(true)
	return h.now - start, nil
}

// Draw advances the clock by dt seconds while the machine consumes e
// joules, with the source harvesting concurrently. It returns the
// fraction of the operation that completed before the buffer hit VOff:
// 1.0 for a completed operation, less for one cut short by an outage (in
// which case the clock advances only by the completed fraction and the
// buffer sits exactly at VOff).
func (h *Harvester) Draw(dt, e float64) float64 {
	harvest := h.Src.Power(h.now) * dt
	budget := h.Cap.EnergyAbove(h.VOff) + harvest
	if e <= budget || e <= 0 {
		h.Cap.AddEnergy(harvest - e)
		if h.Cap.Voltage() > h.vmax() {
			h.Cap.SetVoltage(h.vmax())
		}
		h.now += dt
		h.sample(false)
		return 1.0
	}
	frac := budget / e
	h.now += dt * frac
	h.Cap.SetVoltage(h.VOff)
	h.sample(true)
	return frac
}

// Idle advances the clock by dt with no machine draw (e.g. the
// level-switch portion of a cycle), still harvesting.
func (h *Harvester) Idle(dt float64) {
	h.Cap.AddEnergy(h.Src.Power(h.now) * dt)
	if h.Cap.Voltage() > h.vmax() {
		h.Cap.SetVoltage(h.vmax())
	}
	h.now += dt
	h.sample(false)
}

// WindowEnergy returns the energy one full voltage-window discharge
// supplies, ½C(VOn²−VOff²) — the budget the simulator's non-termination
// guard compares a restore plus one checkpoint region against.
func (h *Harvester) WindowEnergy() float64 {
	return EnergyAboveOf(h.Cap.C, h.VOn, h.VOff)
}

// ConstantPlan is the closed-form arithmetic of a constant-source
// harvester: everything Draw and ChargeUntilOn compute step by step,
// exposed as plain constants so the analytic segment engine
// (internal/sim) can retire whole outage-to-outage windows without
// touching the harvester. The fields reuse the exact expressions of the
// stepping methods, so accounting built from a plan is bit-identical to
// stepping.
type ConstantPlan struct {
	// W is the source power in watts; C the buffer capacitance.
	W, C float64
	// VOff and VOn are the shutdown and restart voltages; VMax is the
	// effective voltage cap (the zero-defaults-to-VOn rule applied).
	VOff, VOn, VMax float64
	// TargetE is the stored energy at VOn — ChargeUntilOn's recharge
	// target — and WindowJ the full-window discharge budget.
	TargetE float64
	WindowJ float64

	src Constant
}

// Plan returns the harvester's closed-form plan, or ok=false for any
// non-constant source (traces, solar, RF bursts evolve with the clock
// and must be stepped).
func (h *Harvester) Plan() (ConstantPlan, bool) {
	c, isConst := h.Src.(Constant)
	if !isConst || h.Cap == nil {
		return ConstantPlan{}, false
	}
	return ConstantPlan{
		W:       c.W,
		C:       h.Cap.C,
		VOff:    h.VOff,
		VOn:     h.VOn,
		VMax:    h.vmax(),
		TargetE: 0.5 * h.Cap.C * h.VOn * h.VOn,
		WindowJ: h.WindowEnergy(),
		src:     c,
	}, true
}

// ChargeTime is ChargeUntilOn's constant-source closed form over a
// plain stored-energy value: the off-time to recharge from fromE to the
// restart target. charged reports whether a recharge was needed — when
// it was, the buffer ends exactly at VOn, which the caller applies
// itself. The errors are the same ones ChargeUntilOn returns.
func (p ConstantPlan) ChargeTime(fromE, maxWait float64) (dt float64, charged bool, err error) {
	if p.W <= 0 {
		return 0, false, fmt.Errorf("power: source %s cannot charge the buffer", p.src.Name())
	}
	need := p.TargetE - fromE
	if need <= 0 {
		return 0, false, nil
	}
	dt = need / p.W
	if !(dt <= maxWait) {
		return 0, false, fmt.Errorf("power: charging would take %.3g s, beyond the %.3g s limit", dt, maxWait)
	}
	return dt, true, nil
}
