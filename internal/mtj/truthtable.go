package mtj

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// This file derives, once per (gate, electrical configuration), the
// full-pulse truth table implied by the resistor-network model, and
// memoizes it together with the gate's operating bias and energy. The
// packed word-parallel array engine (internal/array) executes logic
// operations directly from these tables; the scalar per-cell path keeps
// using DriveCurrent/ApplyPulse, and tests assert the two agree bit for
// bit.
//
// The derivation is sound because the drive current through the output
// cell depends on the input states only through how many of them are in
// the low-resistance P state (parallelR), and a full, uninterrupted
// pulse always meets the switching-time condition. The table therefore
// collapses to "does the output switch when exactly k inputs are P",
// for k = 0..Inputs. A gate is usable only when that answer is the spec's
// threshold, k >= MinP, for every k: the engines then execute the gate's
// SwitchFn, which the gate kind fixes, and no configuration can make them
// compute another Boolean function.

// TruthTable is the full-pulse behaviour of one gate under one
// configuration, derived from the resistor network (not from the ideal
// threshold spec; Table refuses a table that differs from it).
type TruthTable struct {
	Gate   GateKind
	Inputs int
	// Preset is the output state the gate expects before execution.
	Preset State
	// Target is the state a switching column ends in (the current
	// direction's target).
	Target State
	// SwitchAtP[k] reports whether a full pulse switches the output when
	// exactly k inputs are in the P state. Table returns only tables for
	// which it equals k >= Spec(Gate).MinP.
	SwitchAtP [4]bool
	// Bias is the memoized operating voltage (identical to Bias()).
	Bias float64
	// Energy is the memoized per-column gate energy (identical to
	// GateEnergy()).
	Energy float64
}

// tableKey captures every configuration field the gate electrical model
// reads, so configurations that differ only in bookkeeping (name,
// frequency, capacitor window) share one cache entry and mutated copies
// (the variation study's scaled configs) get fresh ones.
type tableKey struct {
	rp, rap, switchTime, switchCurrent float64
	cell                               CellKind
	rChannel                           float64
}

// hasNaN reports whether a parameter of k is NaN. Such a key is not
// equal to itself, so no cache lookup finds it, and storing it would
// grow tableCache by one entry per call.
func (k tableKey) hasNaN() bool {
	return math.IsNaN(k.rp) || math.IsNaN(k.rap) || math.IsNaN(k.switchTime) ||
		math.IsNaN(k.switchCurrent) || math.IsNaN(k.rChannel)
}

func keyOf(cfg *Config) tableKey {
	k := tableKey{
		rp:            cfg.P.RP,
		rap:           cfg.P.RAP,
		switchTime:    cfg.P.SwitchTime,
		switchCurrent: cfg.P.SwitchCurrent,
		cell:          cfg.Cell,
	}
	if cfg.Cell == SHE {
		k.rChannel = cfg.RChannel
	}
	return k
}

// gateEntry is one gate's memoized results under one configuration.
type gateEntry struct {
	table TruthTable
	// infeasible records an empty bias window; lo/hi reconstruct the
	// error message with the caller's config name.
	infeasible bool
	lo, hi     float64
	// offSpec records a table that does not switch exactly at the spec's
	// threshold. The shipped configurations bias every gate inside its
	// spec's window, so none has one, but the engines would compute
	// another function than the gate's from it, so Table refuses it.
	offSpec bool
	energy  float64
}

type configTables struct {
	gates [NumGates]gateEntry
}

// tableCache memoizes configTables per electrical configuration. Sweeps
// run concurrent workers, so access goes through a sync.Map; duplicate
// computation on a racy first miss is harmless (entries are pure
// functions of the key).
var tableCache sync.Map // tableKey -> *configTables

// lastTables is a one-entry front cache: a run prices every instruction
// under one configuration, and hashing the struct key through the
// sync.Map on each call dominated inference profiles. A plain struct
// compare against the most recent key avoids that; sweeps over many
// configs fall through to the sync.Map and refresh the entry.
var lastTables atomic.Pointer[keyedTables]

type keyedTables struct {
	key  tableKey
	tabs *configTables
}

func tablesFor(cfg *Config) *configTables {
	k := keyOf(cfg)
	if c := lastTables.Load(); c != nil && c.key == k {
		return c.tabs
	}
	var ct *configTables
	if v, ok := tableCache.Load(k); ok {
		ct = v.(*configTables)
	} else {
		ct = &configTables{}
		for g := GateKind(0); g.Valid(); g++ {
			ct.gates[g] = deriveEntry(g, cfg)
		}
		if k.hasNaN() {
			return ct
		}
		v, _ := tableCache.LoadOrStore(k, ct)
		ct = v.(*configTables)
	}
	lastTables.Store(&keyedTables{key: k, tabs: ct})
	return ct
}

// deriveEntry computes one gate's bias, energy, and resistor-network
// truth table with the original (uncached) model code.
func deriveEntry(g GateKind, cfg *Config) gateEntry {
	spec := Spec(g)
	lo, hi := BiasWindow(g, cfg)
	if !(hi > lo) { // infeasible: skip biasUncached's error text, dropped here
		return gateEntry{infeasible: true, lo: lo, hi: hi}
	}
	v, err := biasUncached(g, cfg)
	if err != nil {
		return gateEntry{infeasible: true, lo: lo, hi: hi}
	}
	e := gateEntry{energy: gateEnergyUncached(g, cfg)}
	tt := TruthTable{
		Gate:   g,
		Inputs: spec.Inputs,
		Preset: spec.Preset,
		Target: spec.Dir.Target(),
		Bias:   v,
		Energy: e.energy,
	}
	inputs := make([]State, spec.Inputs)
	for k := 0; k <= spec.Inputs; k++ {
		for i := range inputs {
			if i < k {
				inputs[i] = P
			} else {
				inputs[i] = AP
			}
		}
		// The exact ApplyPulse switching condition for a full pulse.
		tt.SwitchAtP[k] = DriveCurrent(g, cfg, v, inputs) >= cfg.P.SwitchCurrent
	}
	e.offSpec = !switchesAtSpec(spec, tt.SwitchAtP)
	e.table = tt
	return e
}

// switchesAtSpec reports whether a derived table switches exactly where
// spec's threshold says: with k P inputs iff k >= MinP, for every k up
// to Inputs.
func switchesAtSpec(spec GateSpec, switchAtP [4]bool) bool {
	for k := 0; k <= spec.Inputs; k++ {
		if switchAtP[k] != (k >= spec.MinP) {
			return false
		}
	}
	return true
}

// SwitchWord evaluates the table's gate 64 lanes at a time through its
// switch function (SwitchFn.Word): bit i of each argument is one
// evaluation's input, and bit i of the result reports whether that
// evaluation's output switches under a full pulse. Tests hold it lane by
// lane to SwitchAtP.
func (t *TruthTable) SwitchWord(a, b, c uint64) uint64 {
	return gateSpecs[t.Gate].Fn.Word(a, b, c)
}

// Table returns the memoized full-pulse truth table for gate g under
// cfg. It fails when Bias fails (an empty bias window makes the gate
// unrealizable) and when the table does not switch at the spec's
// threshold.
func Table(g GateKind, cfg *Config) (TruthTable, error) {
	if !g.Valid() {
		panic(fmt.Sprintf("mtj: invalid gate %d", uint8(g)))
	}
	e := &tablesFor(cfg).gates[g]
	if e.infeasible {
		return TruthTable{}, infeasibleErr(g, cfg, e.lo, e.hi)
	}
	if e.offSpec {
		return TruthTable{}, fmt.Errorf("mtj: gate %s under %s does not switch exactly when %d or more of its inputs are P", g, cfg.Name, Spec(g).MinP)
	}
	return e.table, nil
}

func infeasibleErr(g GateKind, cfg *Config, lo, hi float64) error {
	return fmt.Errorf("mtj: gate %s infeasible for %s: window [%.4g, %.4g) V is empty", g, cfg.Name, lo, hi)
}
