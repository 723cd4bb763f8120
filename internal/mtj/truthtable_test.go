package mtj

import (
	"math"
	"testing"
)

// TestTableMatchesThresholdSpec: the truth table derived from the
// resistor network must coincide with the ideal threshold specification
// for every gate and every shipped configuration — the same agreement
// the functional array asserts cell by cell. Every spec's threshold lies
// in 1..Inputs, so no gate is constant in its inputs.
func TestTableMatchesThresholdSpec(t *testing.T) {
	for _, cfg := range Configs() {
		for g := GateKind(0); g.Valid(); g++ {
			tbl, err := Table(g, cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", cfg.Name, g, err)
			}
			spec := Spec(g)
			if tbl.Gate != g || tbl.Inputs != spec.Inputs || tbl.Preset != spec.Preset || tbl.Target != spec.Dir.Target() {
				t.Errorf("%s/%s: header mismatch: %+v", cfg.Name, g, tbl)
			}
			if spec.MinP < 1 || spec.MinP > spec.Inputs {
				t.Errorf("%s: threshold %d outside 1..%d", g, spec.MinP, spec.Inputs)
			}
			for k := 0; k <= spec.Inputs; k++ {
				if tbl.SwitchAtP[k] != (k >= spec.MinP) {
					t.Errorf("%s/%s: SwitchAtP[%d] = %v", cfg.Name, g, k, tbl.SwitchAtP[k])
				}
			}
		}
	}
}

// TestTableMemoizesBiasAndEnergy: the cached Bias/GateEnergy values the
// table carries are exactly what the public accessors return, and
// repeated lookups agree (the cache is keyed by electrical parameters,
// so a renamed copy of a config shares the same derivation).
func TestTableMemoizesBiasAndEnergy(t *testing.T) {
	cfg := ModernSTT()
	renamed := *cfg
	renamed.Name = "Renamed copy"
	for g := GateKind(0); g.Valid(); g++ {
		tbl, err := Table(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		v, err := Bias(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if tbl.Bias != v {
			t.Errorf("%s: table bias %g, Bias() %g", g, tbl.Bias, v)
		}
		if e := GateEnergy(g, cfg); tbl.Energy != e {
			t.Errorf("%s: table energy %g, GateEnergy() %g", g, tbl.Energy, e)
		}
		tbl2, err := Table(g, &renamed)
		if err != nil {
			t.Fatal(err)
		}
		if tbl != tbl2 {
			t.Errorf("%s: renamed electrical twin derived a different table", g)
		}
	}
}

// TestTableScaledConfigGetsFreshEntry: mutating the electrical
// parameters (as the variation study does) must not reuse a stale cache
// entry.
func TestTableScaledConfigGetsFreshEntry(t *testing.T) {
	cfg := ModernSTT()
	base, err := Bias(NAND2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	scaled := *cfg
	scaled.P.RP *= 1.1
	scaled.P.RAP *= 1.1
	v, err := Bias(NAND2, &scaled)
	if err != nil {
		t.Fatal(err)
	}
	if v == base {
		t.Errorf("scaled config returned the unscaled bias %g", v)
	}
}

// TestTableCacheSkipsNaNKeys: a configuration with a NaN parameter has
// a cache key unequal to itself, which no lookup can find. Pricing it is
// still answered (GateEnergy 0), but no call may add a cache entry.
func TestTableCacheSkipsNaNKeys(t *testing.T) {
	entries := func() int {
		n := 0
		tableCache.Range(func(any, any) bool { n++; return true })
		return n
	}
	cfg := ModernSTT()
	cfg.P.RP = math.NaN()
	before := entries()
	for i := 0; i < 1000; i++ {
		if e := GateEnergy(NAND2, cfg); e != 0 {
			t.Fatalf("GateEnergy(NAND2) with RP = NaN = %g, want 0", e)
		}
	}
	if after := entries(); after != before {
		t.Errorf("1000 NaN-keyed calls grew tableCache from %d to %d entries", before, after)
	}
}

// TestSwitchWordMatchesSwitchAtP holds the word-parallel dispatch to
// the scalar table lane by lane: for every gate, configuration, and
// input pattern, packing the pattern into one lane of SwitchWord's
// arguments must reproduce SwitchAtP's answer in that lane, with no
// leakage into other lanes.
func TestSwitchWordMatchesSwitchAtP(t *testing.T) {
	for _, cfg := range Configs() {
		for g := GateKind(0); g.Valid(); g++ {
			tbl, err := Table(g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			n := tbl.Inputs
			for v := 0; v < 1<<n; v++ {
				p := 0
				for i := 0; i < n; i++ {
					if v>>i&1 == 0 {
						p++
					}
				}
				want := tbl.SwitchAtP[p]
				for lane := 0; lane < 64; lane += 13 {
					// Lane under test carries the pattern; every other lane
					// carries all-AP inputs (0 P inputs).
					var a, b, c uint64
					if n >= 1 {
						a = ^uint64(0)&^(1<<lane) | uint64(v&1)<<lane
					}
					if n >= 2 {
						b = ^uint64(0)&^(1<<lane) | uint64(v>>1&1)<<lane
					}
					if n >= 3 {
						c = ^uint64(0)&^(1<<lane) | uint64(v>>2&1)<<lane
					}
					w := tbl.SwitchWord(a, b, c)
					if got := w>>lane&1 == 1; got != want {
						t.Errorf("%s/%s pattern %b lane %d: SwitchWord %v, SwitchAtP[%d] %v", cfg.Name, g, v, lane, got, p, want)
					}
					if others := w &^ (1 << lane); others != 0 {
						t.Errorf("%s/%s pattern %b lane %d: leaked into lanes %#x", cfg.Name, g, v, lane, others)
					}
				}
			}
		}
	}
}

// TestTableDrivesSameSwitchDecisionAsNetwork cross-checks the memoized
// threshold against a direct DriveCurrent evaluation for every input
// pattern (not just the canonical k-P orderings used in derivation).
func TestTableDrivesSameSwitchDecisionAsNetwork(t *testing.T) {
	for _, cfg := range Configs() {
		for g := GateKind(0); g.Valid(); g++ {
			tbl, err := Table(g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			n := tbl.Inputs
			for v := 0; v < 1<<n; v++ {
				inputs := make([]State, n)
				p := 0
				for i := range inputs {
					inputs[i] = FromBit(v >> i & 1)
					if inputs[i] == P {
						p++
					}
				}
				net := DriveCurrent(g, cfg, tbl.Bias, inputs) >= cfg.P.SwitchCurrent
				if minP := Spec(g).MinP; net != (p >= minP) {
					t.Errorf("%s/%s inputs %v: network switch %v, table %v", cfg.Name, g, inputs, net, p >= minP)
				}
			}
		}
	}
}

// TestSwitchesAtSpecRejectsOffSpecTables: the check deriveEntry applies
// accepts exactly the table k >= MinP. A threshold shifted either way, a
// non-monotone table, and the constant tables (no pattern switches,
// every pattern does) all compute another function than the gate's.
func TestSwitchesAtSpecRejectsOffSpecTables(t *testing.T) {
	cases := []struct {
		name string
		gate GateKind
		sw   [4]bool
		ok   bool
	}{
		{"MAJ3 at spec", MAJ3, [4]bool{false, false, true, true}, true},
		{"NAND2 at spec", NAND2, [4]bool{false, true, true}, true},
		{"NOT at spec", NOT, [4]bool{false, true}, true},
		{"MAJ3 threshold one lower", MAJ3, [4]bool{false, true, true, true}, false},
		{"MAJ3 threshold one higher", MAJ3, [4]bool{false, false, false, true}, false},
		{"NOR2 threshold one lower", NOR2, [4]bool{false, true, true}, false},
		{"NAND2 threshold one higher", NAND2, [4]bool{false, false, true}, false},
		{"OR3 non-monotone", OR3, [4]bool{false, true, false, true}, false},
		{"MIN3 non-monotone", MIN3, [4]bool{true, false, true, true}, false},
		{"AND2 never switches", AND2, [4]bool{}, false},
		{"NOT never switches", NOT, [4]bool{}, false},
		{"AND3 always switches", AND3, [4]bool{true, true, true, true}, false},
		{"BUF always switches", BUF, [4]bool{true, true}, false},
	}
	for _, c := range cases {
		if got := switchesAtSpec(Spec(c.gate), c.sw); got != c.ok {
			t.Errorf("%s: switchesAtSpec(%v) = %v, want %v", c.name, c.sw, got, c.ok)
		}
	}
}

// TestTableRefusesOffSpecGate: Table returns an error, not a table, for
// a gate deriveEntry marked off its spec, and still serves the others.
// The marked entry lives under an electrical key no other test derives.
func TestTableRefusesOffSpecGate(t *testing.T) {
	cfg := *ModernSTT()
	cfg.Name = "off-spec twin"
	cfg.P.SwitchTime *= 3
	tablesFor(&cfg).gates[MAJ3].offSpec = true
	if _, err := Table(MAJ3, &cfg); err == nil {
		t.Error("Table accepted a gate marked off its spec")
	}
	if _, err := Table(MIN3, &cfg); err != nil {
		t.Errorf("Table refused an unmarked gate: %v", err)
	}
}
