package mtj

import (
	"fmt"
	"math"
)

// State is the magnetic state of an MTJ free layer relative to its fixed
// layer. The parallel state has low resistance and encodes logic 0; the
// anti-parallel state has high resistance and encodes logic 1.
type State uint8

const (
	// P is the parallel (low resistance) state, logic 0.
	P State = 0
	// AP is the anti-parallel (high resistance) state, logic 1.
	AP State = 1
)

// Bit reports the logic value of the state (P=0, AP=1).
func (s State) Bit() int {
	if s == AP {
		return 1
	}
	return 0
}

// FromBit returns the state encoding logic bit b (anything nonzero is AP).
func FromBit(b int) State {
	if b != 0 {
		return AP
	}
	return P
}

func (s State) String() string {
	if s == AP {
		return "AP"
	}
	return "P"
}

// Direction is the direction of current through an MTJ. Current flowing
// from the free layer to the fixed layer switches the device toward AP;
// the opposite direction switches it toward P. A direction can only ever
// move the device toward its own target state.
type Direction uint8

const (
	// TowardP drives the device toward the parallel (logic 0) state.
	TowardP Direction = iota
	// TowardAP drives the device toward the anti-parallel (logic 1) state.
	TowardAP
)

// Target returns the state this current direction switches a device to.
func (d Direction) Target() State {
	if d == TowardAP {
		return AP
	}
	return P
}

func (d Direction) String() string {
	if d == TowardAP {
		return "toward-AP"
	}
	return "toward-P"
}

// Params holds the electrical parameters of an MTJ device generation
// (Table II of the paper). All values are SI: ohms, seconds, amperes.
type Params struct {
	Name string

	// RP and RAP are the device resistances in the parallel and
	// anti-parallel states, in ohms.
	RP  float64
	RAP float64

	// SwitchTime is the minimum pulse duration that completes a state
	// switch, in seconds.
	SwitchTime float64

	// SwitchCurrent is the critical current magnitude above which a pulse
	// of at least SwitchTime switches the device, in amperes.
	SwitchCurrent float64
}

// Validate reports an error if the parameters are not physical. Every
// check is written so that NaN fails it.
func (p *Params) Validate() error {
	switch {
	case !positive(p.RP) || !positive(p.RAP):
		return fmt.Errorf("mtj: %s: resistances must be positive and finite (RP=%g, RAP=%g)", p.Name, p.RP, p.RAP)
	case !(p.RAP > p.RP):
		return fmt.Errorf("mtj: %s: RAP (%g) must exceed RP (%g)", p.Name, p.RAP, p.RP)
	case !positive(p.SwitchTime):
		return fmt.Errorf("mtj: %s: switch time must be positive and finite (%g)", p.Name, p.SwitchTime)
	case !positive(p.SwitchCurrent):
		return fmt.Errorf("mtj: %s: switch current must be positive and finite (%g)", p.Name, p.SwitchCurrent)
	}
	return nil
}

// positive reports whether x is a positive finite number (false for NaN).
func positive(x float64) bool { return x > 0 && !math.IsInf(x, 1) }

// Resistance returns the device resistance in state s, in ohms.
func (p *Params) Resistance(s State) float64 {
	if s == AP {
		return p.RAP
	}
	return p.RP
}

// TMR returns the tunnel magnetoresistance ratio (RAP-RP)/RP, a measure of
// how distinguishable the two states are.
func (p *Params) TMR() float64 { return (p.RAP - p.RP) / p.RP }

// Modern returns the present-day MTJ parameters from Table II.
func Modern() Params {
	return Params{
		Name:          "modern",
		RP:            3.15e3,
		RAP:           7.34e3,
		SwitchTime:    3e-9,
		SwitchCurrent: 40e-6,
	}
}

// Projected returns the near-future MTJ parameters from Table II.
func Projected() Params {
	return Params{
		Name:          "projected",
		RP:            7.34e3,
		RAP:           76.39e3,
		SwitchTime:    1e-9,
		SwitchCurrent: 3e-6,
	}
}

// CellKind distinguishes the two MOUSE cell architectures.
type CellKind uint8

const (
	// STT is the 1T1M cell (Fig. 2): one access transistor, one MTJ.
	// Writes and logic outputs drive current through the MTJ itself.
	STT CellKind = iota
	// SHE is the 2T1M cell (Fig. 4): a spin-Hall-effect channel provides a
	// separate low-resistance write path; reads still pass through the MTJ.
	SHE
)

func (k CellKind) String() string {
	if k == SHE {
		return "SHE"
	}
	return "STT"
}

// Config is a full technology configuration: device generation, cell
// architecture, operating frequency, and the energy-buffer operating
// window used under energy harvesting (Section VIII).
type Config struct {
	Name string
	P    Params
	Cell CellKind

	// RChannel is the SHE channel resistance in ohms (used only when
	// Cell == SHE). The paper assumes 1 kΩ as a conservative estimate.
	RChannel float64

	// Freq is the instruction cycle frequency in Hz (30.3 MHz modern,
	// 90.9 MHz projected). The cycle is sized so the slowest instruction,
	// including MTJ switching and peripheral latency, always completes.
	Freq float64

	// CapVMin and CapVMax bound the energy-buffer (capacitor) voltage in
	// volts: the system shuts down when the voltage falls to CapVMin and
	// restarts once it recharges to CapVMax.
	CapVMin float64
	CapVMax float64

	// CapC is the energy-buffer capacitance in farads (100 µF modern,
	// 10 µF projected).
	CapC float64
}

// CycleTime returns the duration of one instruction cycle in seconds.
func (c *Config) CycleTime() float64 { return 1 / c.Freq }

// Validate reports an error if the configuration is not usable.
func (c *Config) Validate() error {
	if err := c.P.Validate(); err != nil {
		return err
	}
	switch {
	case !positive(c.Freq):
		return fmt.Errorf("mtj: %s: frequency must be positive", c.Name)
	case c.Cell == SHE && !positive(c.RChannel):
		return fmt.Errorf("mtj: %s: SHE cell requires positive channel resistance", c.Name)
	case !positive(c.CapVMin) || !positive(c.CapVMax) || !(c.CapVMax > c.CapVMin):
		return fmt.Errorf("mtj: %s: capacitor window [%g, %g] invalid", c.Name, c.CapVMin, c.CapVMax)
	case !positive(c.CapC):
		return fmt.Errorf("mtj: %s: capacitance must be positive", c.Name)
	}
	return nil
}

// ModernSTT is the baseline configuration: modern MTJs in 1T1M cells at
// 30.3 MHz with a 100 µF buffer cycling between 320 and 340 mV.
func ModernSTT() *Config {
	return &Config{
		Name:    "Modern STT",
		P:       Modern(),
		Cell:    STT,
		Freq:    30.3e6,
		CapVMin: 0.320,
		CapVMax: 0.340,
		CapC:    100e-6,
	}
}

// ProjectedSTT uses projected MTJs in 1T1M cells at 90.9 MHz with a 10 µF
// buffer cycling between 100 and 120 mV.
func ProjectedSTT() *Config {
	return &Config{
		Name:    "Projected STT",
		P:       Projected(),
		Cell:    STT,
		Freq:    90.9e6,
		CapVMin: 0.100,
		CapVMax: 0.120,
		CapC:    10e-6,
	}
}

// ProjectedSHE uses projected MTJs in 2T1M SHE cells (1 kΩ channel) at
// 90.9 MHz with a 10 µF buffer cycling between 100 and 120 mV.
func ProjectedSHE() *Config {
	return &Config{
		Name:     "SHE",
		P:        Projected(),
		Cell:     SHE,
		RChannel: 1e3,
		Freq:     90.9e6,
		CapVMin:  0.100,
		CapVMax:  0.120,
		CapC:     10e-6,
	}
}

// Configs returns the three configurations evaluated in the paper, in the
// order they appear in the evaluation (Figures 10, 11, 12).
func Configs() []*Config {
	return []*Config{ModernSTT(), ProjectedSTT(), ProjectedSHE()}
}
