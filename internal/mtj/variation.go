package mtj

// Process-variation analysis. Fabricated MTJs vary in resistance from
// die to die and cell to cell; a gate remains functional only while the
// worst-case variation keeps should-switch currents above the critical
// current and must-not-switch currents below it. Section II-D claims the
// SHE cell makes "different input values easier to distinguish,
// increasing the robustness of logic operations" — this file quantifies
// that claim.

// gateWorks reports whether gate g, biased at v, behaves correctly when
// every device resistance may deviate by up to ±delta (relative). The
// adversary weakens switching cases (all resistances high) and
// strengthens non-switching cases (all resistances low).
func gateWorks(g GateKind, cfg *Config, v, delta float64) bool {
	spec := Spec(g)
	ic := cfg.P.SwitchCurrent

	scaled := func(f float64) *Config {
		c := *cfg
		c.P.RP *= f
		c.P.RAP *= f
		if c.Cell == SHE {
			c.RChannel *= f
		}
		return &c
	}

	// Weakest case that must switch: MinP inputs at P, resistances high.
	hi := scaled(1 + delta)
	rSwitch := parallelR(hi, spec.Inputs, spec.MinP) + outputSeriesR(hi, spec.Preset)
	if v/rSwitch < ic {
		return false
	}
	// Strongest case that must not switch: MinP-1 inputs at P,
	// resistances low.
	lo := scaled(1 - delta)
	rHold := parallelR(lo, spec.Inputs, spec.MinP-1) + outputSeriesR(lo, spec.Preset)
	if v/rHold >= ic {
		return false
	}
	return true
}

// VariationTolerance returns the largest relative resistance variation
// ±δ the gate tolerates at its nominal bias, found by bisection. A gate
// that is infeasible even nominally reports 0.
func VariationTolerance(g GateKind, cfg *Config) float64 {
	v, err := Bias(g, cfg)
	if err != nil || !gateWorks(g, cfg, v, 0) {
		return 0
	}
	lo, hi := 0.0, 0.5
	for i := 0; i < 40; i++ {
		mid := (lo + hi) / 2
		if gateWorks(g, cfg, v, mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// MinVariationTolerance returns the weakest gate's tolerance — the
// array-level robustness limit — and which gate it is.
func MinVariationTolerance(cfg *Config) (float64, GateKind) {
	best := 1.0
	var worst GateKind
	for g := GateKind(0); g.Valid(); g++ {
		tol := VariationTolerance(g, cfg)
		if tol < best {
			best = tol
			worst = g
		}
	}
	return best, worst
}
