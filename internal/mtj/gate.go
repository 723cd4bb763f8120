package mtj

import (
	"fmt"
	"math"
)

// GateKind identifies one of the in-array threshold logic gates MOUSE can
// perform. Every gate follows the same template (Section II-B): the input
// MTJs sit in parallel, in series with a preset output MTJ (STT) or the
// output cell's SHE channel (SHE), and a bias voltage drives a current
// whose magnitude depends on how many inputs are in the low-resistance P
// state. The output switches iff that count reaches the gate's threshold.
type GateKind uint8

const (
	// NOT inverts its single input (preset 0, switches toward 1 when the
	// input is 0).
	NOT GateKind = iota
	// BUF copies its single input (preset 1, switches toward 0 when the
	// input is 0).
	BUF
	// NAND2 is the 2-input NAND used as the universal gate in the paper.
	NAND2
	// AND2 is the 2-input AND (Table I's worked example).
	AND2
	// NOR2 is the 2-input NOR.
	NOR2
	// OR2 is the 2-input OR.
	OR2
	// NAND3 is the 3-input NAND.
	NAND3
	// AND3 is the 3-input AND.
	AND3
	// NOR3 is the 3-input NOR.
	NOR3
	// OR3 is the 3-input OR.
	OR3
	// MAJ3 is the 3-input majority gate (the full-adder carry).
	MAJ3
	// MIN3 is the 3-input minority gate (complement of majority).
	MIN3

	numGates
)

// NumGates is the number of distinct gate kinds.
const NumGates = int(numGates)

var gateNames = [...]string{
	NOT: "NOT", BUF: "BUF",
	NAND2: "NAND2", AND2: "AND2", NOR2: "NOR2", OR2: "OR2",
	NAND3: "NAND3", AND3: "AND3", NOR3: "NOR3", OR3: "OR3",
	MAJ3: "MAJ3", MIN3: "MIN3",
}

func (g GateKind) String() string {
	if int(g) < len(gateNames) {
		return gateNames[g]
	}
	return fmt.Sprintf("GateKind(%d)", uint8(g))
}

// Valid reports whether g names a real gate.
func (g GateKind) Valid() bool { return g < numGates }

// GateSpec describes a threshold gate: how many inputs it has, the preset
// state of its output, the current direction applied during the operation,
// and the minimum number of P-state (logic 0) inputs that produces enough
// current to switch the output.
type GateSpec struct {
	Gate GateKind
	// Inputs is the number of input MTJs (1, 2 or 3).
	Inputs int
	// MinP is the switching threshold: the output switches iff at least
	// MinP inputs are in the P (low resistance) state.
	MinP int
	// Preset is the state the output must be written to before the gate.
	Preset State
	// Dir is the current direction during the operation; the output can
	// only move toward Dir.Target().
	Dir Direction
	// Fn is the switch function (Inputs, MinP) fixes: "at least MinP of
	// Inputs inputs are P".
	Fn SwitchFn
}

var gateSpecs = [...]GateSpec{
	NOT:   {NOT, 1, 1, P, TowardAP, FnNot},
	BUF:   {BUF, 1, 1, AP, TowardP, FnNot},
	NAND2: {NAND2, 2, 1, P, TowardAP, FnOr2},
	AND2:  {AND2, 2, 1, AP, TowardP, FnOr2},
	NOR2:  {NOR2, 2, 2, P, TowardAP, FnAnd2},
	OR2:   {OR2, 2, 2, AP, TowardP, FnAnd2},
	NAND3: {NAND3, 3, 1, P, TowardAP, FnOr3},
	AND3:  {AND3, 3, 1, AP, TowardP, FnOr3},
	NOR3:  {NOR3, 3, 3, P, TowardAP, FnAnd3},
	OR3:   {OR3, 3, 3, AP, TowardP, FnAnd3},
	MAJ3:  {MAJ3, 3, 2, AP, TowardP, FnMaj3},
	MIN3:  {MIN3, 3, 2, P, TowardAP, FnMaj3},
}

// SwitchFn is a threshold gate's switch function: which evaluations
// switch the output under a full pulse, as a function of the inputs. Each
// is named by what it computes over the P (logic 0) inputs, so the AND2
// gate, which switches when either input is P, has FnOr2.
type SwitchFn uint8

const (
	FnNot  SwitchFn = iota // one input, P
	FnOr2                  // either of two inputs P
	FnAnd2                 // both of two inputs P
	FnOr3                  // any of three inputs P
	FnMaj3                 // at least two of three inputs P
	FnAnd3                 // all three inputs P
)

// Word evaluates f 64 lanes at a time: bit i of each argument is one
// evaluation's input (1 = AP; inputs beyond f's arity are ignored), and
// bit i of the result reports whether that evaluation switches. It is the
// only place the six P-count formulas are written; the packed column
// engine and the bit-sliced batch engine both call it from their own
// loops, the batch engine with a constant f so the switch folds away.
// Each formula is De Morgan-folded: "at least m inputs P" is the
// complement of "at least n-m+1 inputs AP".
func (f SwitchFn) Word(a, b, c uint64) uint64 {
	switch f {
	case FnNot:
		return ^a
	case FnOr2:
		return ^(a & b)
	case FnAnd2:
		return ^(a | b)
	case FnOr3:
		return ^(a & b & c)
	case FnMaj3:
		return ^(a&(b|c) | b&c)
	default: // FnAnd3
		return ^(a | b | c)
	}
}

// Spec returns the threshold-gate specification for g.
func Spec(g GateKind) GateSpec {
	if !g.Valid() {
		panic(fmt.Sprintf("mtj: invalid gate %d", uint8(g)))
	}
	return gateSpecs[g]
}

// Evaluate returns the ideal logic output of gate g for the given input
// states, derived purely from the threshold specification. The functional
// array simulation computes the same result through the resistor network;
// tests assert the two always agree.
func Evaluate(g GateKind, inputs []State) State {
	spec := Spec(g)
	if len(inputs) != spec.Inputs {
		panic(fmt.Sprintf("mtj: %s takes %d inputs, got %d", g, spec.Inputs, len(inputs)))
	}
	if countP(inputs) >= spec.MinP {
		return spec.Dir.Target()
	}
	return spec.Preset
}

func countP(inputs []State) int {
	n := 0
	for _, s := range inputs {
		if s == P {
			n++
		}
	}
	return n
}

// legResistance returns the resistance of one input leg: the MTJ itself,
// plus the SHE read path's channel resistance in the 2T1M cell.
func legResistance(cfg *Config, s State) float64 {
	r := cfg.P.Resistance(s)
	if cfg.Cell == SHE {
		r += cfg.RChannel
	}
	return r
}

// parallelR returns the equivalent resistance of n input legs of which
// pCount are in the P state.
func parallelR(cfg *Config, n, pCount int) float64 {
	g := float64(pCount)/legResistance(cfg, P) + float64(n-pCount)/legResistance(cfg, AP)
	return 1 / g
}

// outputSeriesR returns the series resistance contributed by the output
// cell: the preset MTJ itself in the STT cell, or only the SHE write
// channel in the 2T1M cell (the key SHE efficiency advantage).
func outputSeriesR(cfg *Config, preset State) float64 {
	if cfg.Cell == SHE {
		return cfg.RChannel
	}
	return cfg.P.Resistance(preset)
}

// BiasWindow returns the admissible bias voltage range [lo, hi) for gate g
// under configuration cfg: any voltage in the window makes the output
// switch exactly when at least MinP inputs are P. The window is always
// non-empty for a valid threshold gate because adding one more P input
// strictly lowers the network resistance.
func BiasWindow(g GateKind, cfg *Config) (lo, hi float64) {
	spec := Spec(g)
	ic := cfg.P.SwitchCurrent
	rout := outputSeriesR(cfg, spec.Preset)
	// Weakest case that must switch: exactly MinP inputs at P.
	lo = ic * (parallelR(cfg, spec.Inputs, spec.MinP) + rout)
	// Strongest case that must NOT switch: MinP-1 inputs at P.
	hi = ic * (parallelR(cfg, spec.Inputs, spec.MinP-1) + rout)
	return lo, hi
}

// biasOverdrive is the fraction above the lower window edge at which the
// operating bias is placed: enough margin to switch reliably while keeping
// the operation energy low (the paper optimizes for energy, Section IV-B).
const biasOverdrive = 1.15

// Bias returns the operating voltage for gate g under cfg: the lower
// window edge with a 15% overdrive when the window is wide enough
// (minimizing energy), otherwise the geometric mean of the window
// (maximizing symmetric noise margin in a narrow window). It returns an
// error only if the window is empty, which would make the gate
// unrealizable. The result is memoized per electrical configuration
// alongside the gate truth table (see Table).
func Bias(g GateKind, cfg *Config) (float64, error) {
	e := &tablesFor(cfg).gates[g]
	if e.infeasible {
		return 0, infeasibleErr(g, cfg, e.lo, e.hi)
	}
	return e.table.Bias, nil
}

// biasUncached is the direct computation behind Bias; the table cache
// calls it exactly once per (gate, configuration).
func biasUncached(g GateKind, cfg *Config) (float64, error) {
	lo, hi := BiasWindow(g, cfg)
	if !(hi > lo) { // an empty window, or NaN parameters
		return 0, infeasibleErr(g, cfg, lo, hi)
	}
	v := lo * biasOverdrive
	if mid := math.Sqrt(lo * hi); v >= mid {
		v = mid
	}
	return v, nil
}

// RelativeMargin returns (hi-lo)/lo, the relative width of the bias
// window. Larger margins mean more robust gates; the SHE cell improves
// this because the output MTJ no longer sits in the current path
// (Section II-D).
func RelativeMargin(g GateKind, cfg *Config) float64 {
	lo, hi := BiasWindow(g, cfg)
	return (hi - lo) / lo
}

// DriveCurrent returns the current through the output cell when gate g is
// biased at v and the inputs are in the given states, with the output
// still at its preset state. The functional array applies this current to
// the output device; whether it crosses the switching threshold determines
// the gate result.
func DriveCurrent(g GateKind, cfg *Config, v float64, inputs []State) float64 {
	spec := Spec(g)
	if len(inputs) != spec.Inputs {
		panic(fmt.Sprintf("mtj: %s takes %d inputs, got %d", g, spec.Inputs, len(inputs)))
	}
	r := parallelR(cfg, spec.Inputs, countP(inputs)) + outputSeriesR(cfg, spec.Preset)
	return v / r
}

// GateEnergy returns the electrical energy, in joules, dissipated in one
// column by one execution of gate g: bias voltage times the current of the
// threshold (weakest switching) case, for one switching time. Peripheral
// circuitry overheads are added separately by the energy model. The
// result is memoized per electrical configuration alongside the gate
// truth table (see Table); infeasible gates report 0.
func GateEnergy(g GateKind, cfg *Config) float64 {
	return tablesFor(cfg).gates[g].energy
}

// gateEnergyUncached is the direct computation behind GateEnergy; the
// table cache calls it exactly once per (gate, configuration).
func gateEnergyUncached(g GateKind, cfg *Config) float64 {
	v, err := biasUncached(g, cfg)
	if err != nil {
		// All shipped gate/config combinations are feasible; a caller
		// constructing an exotic config learns about it via Bias.
		return 0
	}
	spec := Spec(g)
	r := parallelR(cfg, spec.Inputs, spec.MinP) + outputSeriesR(cfg, spec.Preset)
	i := v / r
	return v * i * cfg.P.SwitchTime
}

// writeOverdrive is the current margin applied above the critical
// switching current for deterministic writes.
const writeOverdrive = 1.5

// WriteEnergy returns the energy, in joules, to write one bit: a switching
// current pulse through the MTJ (STT) or through the low-resistance SHE
// channel (2T1M cell), for one switching time.
func WriteEnergy(cfg *Config) float64 {
	i := cfg.P.SwitchCurrent * writeOverdrive
	var r float64
	if cfg.Cell == SHE {
		r = cfg.RChannel
	} else {
		// Worst case: the device spends the pulse in its AP state.
		r = cfg.P.RAP
	}
	return i * i * r * cfg.P.SwitchTime
}

// ReadEnergy returns the energy, in joules, to sense one bit. The read
// voltage is sized to keep the read current at half the switching current
// (avoiding read disturb).
func ReadEnergy(cfg *Config) float64 {
	v := 0.5 * cfg.P.SwitchCurrent * cfg.P.RP
	r := cfg.P.RP
	if cfg.Cell == SHE {
		r += cfg.RChannel
	}
	return v * v / r * cfg.P.SwitchTime
}
