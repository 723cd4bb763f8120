package sim

import (
	"mouse/internal/energy"
	"mouse/internal/isa"
	"mouse/internal/mtj"
	"mouse/internal/power"
)

// MaxParallelColumns returns the largest number of simultaneously active
// columns for which a logic instruction (using the costliest gate) still
// fits within one buffer discharge with the given headroom factor — the
// Section IV-C knob: "by adjusting the amount of parallelism in the
// computation, the power consumption of MOUSE can be finely tuned".
func MaxParallelColumns(m *energy.Model, headroom float64) int {
	cfg := m.Cfg
	budget := power.EnergyAboveOf(cfg.CapC, cfg.CapVMax, cfg.CapVMin) / headroom

	// Find the most expensive per-column operation (preset writes cost
	// more than gates on STT cells).
	perCol := 0.0
	for g := mtj.GateKind(0); g.Valid(); g++ {
		probe := m.Energy(energy.Op{Kind: isa.KindLogic, Gate: g, ActivePairs: 1}) -
			m.Energy(energy.Op{Kind: isa.KindLogic, Gate: g, ActivePairs: 0})
		if probe > perCol {
			perCol = probe
		}
	}
	presetCol := m.Energy(energy.Op{Kind: isa.KindPreset, ActivePairs: 1}) -
		m.Energy(energy.Op{Kind: isa.KindPreset, ActivePairs: 0})
	if presetCol > perCol {
		perCol = presetCol
	}
	if perCol <= 0 {
		return 0
	}
	fixed := m.Energy(energy.Op{Kind: isa.KindLogic, Gate: mtj.NAND2, ActivePairs: 0}) +
		m.Backup(energy.Op{Kind: isa.KindLogic})
	if budget <= fixed {
		return 0
	}
	return int((budget - fixed) / perCol)
}
