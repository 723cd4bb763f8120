package mtj

import (
	"math"
	"testing"
)

func TestStateBits(t *testing.T) {
	if P.Bit() != 0 || AP.Bit() != 1 {
		t.Fatalf("P.Bit()=%d AP.Bit()=%d, want 0 and 1", P.Bit(), AP.Bit())
	}
	if FromBit(0) != P || FromBit(1) != AP || FromBit(7) != AP {
		t.Fatalf("FromBit mapping wrong")
	}
	if P.String() != "P" || AP.String() != "AP" {
		t.Fatalf("state strings wrong: %q %q", P, AP)
	}
}

func TestDirectionTarget(t *testing.T) {
	if TowardP.Target() != P {
		t.Errorf("TowardP targets %v", TowardP.Target())
	}
	if TowardAP.Target() != AP {
		t.Errorf("TowardAP targets %v", TowardAP.Target())
	}
	if TowardP.String() == TowardAP.String() {
		t.Errorf("direction strings collide")
	}
}

func TestTableIIParams(t *testing.T) {
	m := Modern()
	if m.RP != 3.15e3 || m.RAP != 7.34e3 {
		t.Errorf("modern resistances %g/%g don't match Table II", m.RP, m.RAP)
	}
	if m.SwitchTime != 3e-9 || m.SwitchCurrent != 40e-6 {
		t.Errorf("modern switching %g s / %g A don't match Table II", m.SwitchTime, m.SwitchCurrent)
	}
	p := Projected()
	if p.RP != 7.34e3 || p.RAP != 76.39e3 {
		t.Errorf("projected resistances %g/%g don't match Table II", p.RP, p.RAP)
	}
	if p.SwitchTime != 1e-9 || p.SwitchCurrent != 3e-6 {
		t.Errorf("projected switching %g s / %g A don't match Table II", p.SwitchTime, p.SwitchCurrent)
	}
	if p.TMR() <= m.TMR() {
		t.Errorf("projected TMR (%g) should exceed modern (%g)", p.TMR(), m.TMR())
	}
}

func TestParamsValidate(t *testing.T) {
	good := Modern()
	if err := good.Validate(); err != nil {
		t.Fatalf("modern params should validate: %v", err)
	}
	cases := []func(*Params){
		func(p *Params) { p.RP = 0 },
		func(p *Params) { p.RAP = p.RP },
		func(p *Params) { p.SwitchTime = 0 },
		func(p *Params) { p.SwitchCurrent = -1 },
	}
	for i, mutate := range cases {
		p := Modern()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	for _, cfg := range Configs() {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", cfg.Name, err)
		}
	}
	bad := ModernSTT()
	bad.Freq = 0
	if err := bad.Validate(); err == nil {
		t.Errorf("zero frequency should not validate")
	}
	bad = ProjectedSHE()
	bad.RChannel = 0
	if err := bad.Validate(); err == nil {
		t.Errorf("SHE without channel resistance should not validate")
	}
	bad = ModernSTT()
	bad.CapVMax = bad.CapVMin
	if err := bad.Validate(); err == nil {
		t.Errorf("empty capacitor window should not validate")
	}
	bad = ModernSTT()
	bad.CapC = 0
	if err := bad.Validate(); err == nil {
		t.Errorf("zero capacitance should not validate")
	}
}

// TestNaNParamsRejected: a NaN parameter fails every ordered comparison,
// so each check must be written to fail on it. Validate refuses the
// configuration, Bias reports the gate infeasible, and GateEnergy is 0
// rather than NaN.
func TestNaNParamsRejected(t *testing.T) {
	cfg := ModernSTT()
	cfg.P.RP = math.NaN()
	if err := cfg.P.Validate(); err == nil {
		t.Error("Params.Validate accepts RP = NaN")
	}
	if err := cfg.Validate(); err == nil {
		t.Error("Config.Validate accepts RP = NaN")
	}
	if v, err := Bias(NAND2, cfg); err == nil {
		t.Errorf("Bias(NAND2) with RP = NaN = %g, want an error", v)
	}
	if e := GateEnergy(NAND2, cfg); e != 0 {
		t.Errorf("GateEnergy(NAND2) with RP = NaN = %g, want 0", e)
	}
	inf := Modern()
	inf.RAP = math.Inf(1)
	if err := inf.Validate(); err == nil {
		t.Error("Params.Validate accepts RAP = +Inf")
	}
	capNaN := ModernSTT()
	capNaN.CapC = math.NaN()
	if err := capNaN.Validate(); err == nil {
		t.Error("Config.Validate accepts CapC = NaN")
	}
}

func TestConfigFrequencies(t *testing.T) {
	if got := ModernSTT().Freq; got != 30.3e6 {
		t.Errorf("modern frequency = %g, want 30.3 MHz", got)
	}
	if got := ProjectedSTT().Freq; got != 90.9e6 {
		t.Errorf("projected frequency = %g, want 90.9 MHz", got)
	}
	ct := ModernSTT().CycleTime()
	if ct < 32e-9 || ct > 34e-9 {
		t.Errorf("modern cycle time = %g, want about 33 ns", ct)
	}
}

func TestConfigCellKinds(t *testing.T) {
	if ModernSTT().Cell != STT || ProjectedSTT().Cell != STT {
		t.Errorf("STT configs must use STT cells")
	}
	if ProjectedSHE().Cell != SHE {
		t.Errorf("SHE config must use SHE cell")
	}
	if STT.String() == SHE.String() {
		t.Errorf("cell kind strings collide")
	}
}
