package power

import (
	"errors"
	"math"
	"strings"
	"testing"
)

// TestHarvesterValidate is the regression suite for the configuration
// bugs Validate now catches: each of these previously hung or silently
// misbehaved inside ChargeUntilOn instead of failing typed.
func TestHarvesterValidate(t *testing.T) {
	good := func() *Harvester { return NewHarvester(Constant{W: 1e-3}, 100e-6, 0.32, 0.34) }
	cases := []struct {
		name   string
		mutate func(h *Harvester)
		ok     bool
	}{
		{"valid", func(*Harvester) {}, true},
		{"nil source", func(h *Harvester) { h.Src = nil }, false},
		{"nil capacitor", func(h *Harvester) { h.Cap = nil }, false},
		{"zero capacitance", func(h *Harvester) { h.Cap.C = 0 }, false},
		{"negative capacitance", func(h *Harvester) { h.Cap.C = -1e-6 }, false},
		{"zero shutdown voltage", func(h *Harvester) { h.VOff = 0 }, false},
		{"negative shutdown voltage", func(h *Harvester) { h.VOff = -0.1 }, false},
		{"restart below shutdown", func(h *Harvester) { h.VOn = h.VOff / 2 }, false},
		{"restart equals shutdown", func(h *Harvester) { h.VOn = h.VOff }, false},
		{"cap below restart", func(h *Harvester) { h.VMax = h.VOn / 2 }, false},
		{"zero cap means default", func(h *Harvester) { h.VMax = 0 }, true},
		{"NaN capacitance", func(h *Harvester) { h.Cap.C = math.NaN() }, false},
		{"infinite capacitance", func(h *Harvester) { h.Cap.C = math.Inf(1) }, false},
		{"NaN shutdown voltage", func(h *Harvester) { h.VOff = math.NaN() }, false},
		{"infinite shutdown voltage", func(h *Harvester) { h.VOff = math.Inf(1) }, false},
		{"NaN restart voltage", func(h *Harvester) { h.VOn = math.NaN() }, false},
		{"infinite restart voltage", func(h *Harvester) { h.VOn, h.VMax = math.Inf(1), 0 }, false},
		{"NaN cap", func(h *Harvester) { h.VMax = math.NaN() }, false},
		{"infinite cap", func(h *Harvester) { h.VMax = math.Inf(1) }, false},
		{"NaN constant power", func(h *Harvester) { h.Src = Constant{W: math.NaN()} }, false},
		{"infinite constant power", func(h *Harvester) { h.Src = Constant{W: math.Inf(1)} }, false},
		{"negative infinite constant power", func(h *Harvester) { h.Src = Constant{W: math.Inf(-1)} }, false},
	}
	for _, c := range cases {
		h := good()
		c.mutate(h)
		err := h.Validate()
		if c.ok && err != nil {
			t.Errorf("%s: unexpected error %v", c.name, err)
		}
		if !c.ok {
			if err == nil {
				t.Errorf("%s: invalid harvester accepted", c.name)
			} else if !errors.Is(err, ErrInvalidHarvester) {
				t.Errorf("%s: error %v is not ErrInvalidHarvester", c.name, err)
			}
		}
	}
}

// TestChargeUntilOnRejectsInvalid: the charge loop fails fast with the
// typed error instead of spinning on a buffer that can never hold its
// voltage window.
func TestChargeUntilOnRejectsInvalid(t *testing.T) {
	h := NewHarvester(Constant{W: 1e-3}, 0, 0.32, 0.34) // zero capacitance
	if _, err := h.ChargeUntilOn(10); !errors.Is(err, ErrInvalidHarvester) {
		t.Fatalf("got %v, want ErrInvalidHarvester", err)
	}
	h = NewHarvester(Solar{Peak: 1e-3, Period: 1}, 100e-6, 0.34, 0.32) // inverted window
	if _, err := h.ChargeUntilOn(10); !errors.Is(err, ErrInvalidHarvester) {
		t.Fatalf("got %v, want ErrInvalidHarvester", err)
	}
}

// TestChargeTimeRejectsNaNWait: a NaN off-time bound fails the charge
// instead of letting every recharge "succeed".
func TestChargeTimeRejectsNaNWait(t *testing.T) {
	p, _ := NewHarvester(Constant{W: 1e-3}, 100e-6, 0.32, 0.34).Plan()
	if _, _, err := p.ChargeTime(0, math.NaN()); err == nil {
		t.Fatal("ChargeTime accepted a NaN maxWait")
	}
	if _, _, err := p.ChargeTime(0, 10); err != nil {
		t.Fatalf("finite wait: %v", err)
	}
}

// TestTraceTailPolicies pins down what each policy supplies past the
// recording's end.
func TestTraceTailPolicies(t *testing.T) {
	base := Trace{Times: []float64{1, 2, 3}, Watts: []float64{10, 20, 30}}
	if base.End() != 3 {
		t.Fatalf("End() = %g, want 3", base.End())
	}
	cases := []struct {
		tail TailPolicy
		t    float64
		want float64
	}{
		{TailHold, 3, 30},  // at the end: recorded data, not tail
		{TailHold, 10, 30}, // hold keeps the final value
		{TailZero, 10, 0},
		{TailZero, 3, 30},   // zero applies only strictly past the end
		{TailLoop, 4, 20},   // 4 wraps to 2 over the [1,3) span -> 20 W
		{TailLoop, 5.5, 10}, // 5.5 wraps to 1.5 -> 10 W
		{TailLoop, 7, 10},   // 7 wraps a whole span back to 1 -> 10 W
	}
	for _, c := range cases {
		tr := base
		tr.Tail = c.tail
		if got := tr.Power(c.t); got != c.want {
			t.Errorf("tail %s: Power(%g) = %g, want %g", c.tail, c.t, got, c.want)
		}
	}
	// A single-point trace cannot loop (zero span): it degrades to hold.
	one := Trace{Times: []float64{1}, Watts: []float64{7}, Tail: TailLoop}
	if got := one.Power(9); got != 7 {
		t.Errorf("single-point loop: Power(9) = %g, want 7", got)
	}
	var empty Trace
	if empty.End() != 0 {
		t.Errorf("empty End() = %g, want 0", empty.End())
	}
}

// TestTailPolicyNames: the CLI spellings round-trip and reports name the
// non-default policy.
func TestTailPolicyNames(t *testing.T) {
	for _, s := range []string{"hold", "loop", "zero"} {
		p, err := ParseTailPolicy(s)
		if err != nil {
			t.Fatalf("ParseTailPolicy(%q): %v", s, err)
		}
		if p.String() != s {
			t.Errorf("ParseTailPolicy(%q).String() = %q", s, p.String())
		}
	}
	if _, err := ParseTailPolicy("forever"); err == nil {
		t.Error("unknown policy accepted")
	}
	tr := Trace{Times: []float64{0, 1}, Watts: []float64{1, 2}, Tail: TailLoop}
	if !strings.Contains(tr.Name(), "tail loop") {
		t.Errorf("name %q does not surface the tail policy", tr.Name())
	}
	tr.Tail = TailHold
	if strings.Contains(tr.Name(), "tail") {
		t.Errorf("name %q mentions the default tail policy", tr.Name())
	}
}

// TestParseTrace covers the file format: comments, blank lines, and the
// rejected malformed inputs.
func TestParseTrace(t *testing.T) {
	good := `# solar morning, recorded 2025-11-03
0.0 0.0

0.5 2e-3
1.5 3.5e-3
`
	tr, err := ParseTrace(strings.NewReader(good), TailZero)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Times) != 3 || tr.Tail != TailZero {
		t.Fatalf("parsed %d points tail %s, want 3 points tail zero", len(tr.Times), tr.Tail)
	}
	if tr.Power(1) != 2e-3 || tr.Power(100) != 0 {
		t.Errorf("parsed trace misbehaves: Power(1)=%g Power(100)=%g", tr.Power(1), tr.Power(100))
	}
	for name, bad := range map[string]string{
		"empty":          "# only a comment\n",
		"garbage":        "0.5 fast\n",
		"missing column": "0.5\n",
		"negative power": "0.5 -1e-3\n",
		"time goes back": "1 1e-3\n0.5 1e-3\n",
		"time repeats":   "1 1e-3\n1 2e-3\n",
	} {
		if _, err := ParseTrace(strings.NewReader(bad), TailHold); err == nil {
			t.Errorf("%s: malformed trace accepted", name)
		}
	}
}
