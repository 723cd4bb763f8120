package fault

import (
	"reflect"
	"testing"

	"mouse/internal/mtj"
	"mouse/internal/probe"
)

// build constructs a built-in workload under Modern STT.
func build(t testing.TB, construct func(*mtj.Config) (Workload, error)) Workload {
	t.Helper()
	w, err := construct(mtj.ModernSTT())
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// requireClean fails the test with the first few mismatches when any
// injection point broke crash-equivalence.
func requireClean(t *testing.T, rep *Report) {
	t.Helper()
	if rep.MaxReplays > 1 {
		t.Errorf("max replays %d, claim allows at most 1", rep.MaxReplays)
	}
	if rep.AllEquivalent() {
		return
	}
	for i, v := range rep.Failures() {
		if i == 5 {
			break
		}
		t.Errorf("instr %d frac %.2f: %s", v.Index, v.Frac, v.Mismatch)
	}
	t.Fatalf("%d/%d injection points not crash-equivalent", rep.Points-rep.Equivalent, rep.Points)
}

// TestArithExhaustive is the acceptance sweep: the ≥200-instruction
// multiplier workload, every instruction boundary, every µ-phase
// fraction, 100% crash-equivalent with at most one replay each.
func TestArithExhaustive(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive sweep")
	}
	w := build(t, Arith)
	g, err := RunGolden(w, LayerMachine)
	if err != nil {
		t.Fatal(err)
	}
	if g.Points() < 200 {
		t.Fatalf("arith runs %d instructions, want >= 200", g.Points())
	}
	rep, err := Sweep(w, LayerMachine, Options{Workers: 0})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Points != g.Points()*len(DefaultFracs()) {
		t.Fatalf("swept %d points, want %d", rep.Points, g.Points()*len(DefaultFracs()))
	}
	requireClean(t, rep)
}

// crashAtEveryK sweeps every instruction boundary of the workload in
// both execution engines.
func crashAtEveryK(t *testing.T, w Workload) {
	t.Helper()
	for _, variant := range []Workload{w, w.ForceScalar()} {
		// Every instruction boundary, with fractions covering the fetch,
		// execute, and commit bands (the full µ-phase grid runs in
		// TestArithExhaustive; repeating it per engine here doubles the
		// suite's cost for no added protocol coverage).
		rep, err := Sweep(variant, LayerMachine, Options{Workers: 0, Fracs: []float64{0, 0.5, 0.97}})
		if err != nil {
			t.Fatalf("%s: %v", variant.Name, err)
		}
		requireClean(t, rep)
	}
}

func TestCrashAtEveryKSVM(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive sweep")
	}
	crashAtEveryK(t, build(t, TinySVM))
}

func TestCrashAtEveryKBNN(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive sweep")
	}
	crashAtEveryK(t, build(t, TinyBNN))
}

// TestStreamSweep covers the trace layer: every boundary of the
// multiplier program priced as an operation stream.
func TestStreamSweep(t *testing.T) {
	w := build(t, Arith)
	g, err := RunGolden(w, LayerTrace)
	if err != nil {
		t.Fatal(err)
	}
	if g.Points() < 200 {
		t.Fatalf("arith stream has %d instructions, want >= 200", g.Points())
	}
	rep, err := Sweep(w, LayerTrace, Options{Workers: 0, Fracs: []float64{0, 0.5, 0.97}})
	if err != nil {
		t.Fatal(err)
	}
	requireClean(t, rep)
}

// TestCrossLayerVerdicts crashes every built-in workload's program on
// the machine layer and the trace layer at the same points, every
// µ-phase band included, and requires equal verdicts point for point.
// Both layers restore the columns of the ACT register, so an outage past
// the leading ACT's register commit (index 0 at frac 0.92 and 0.97)
// costs the same restore on both.
func TestCrossLayerVerdicts(t *testing.T) {
	ws, err := Workloads(mtj.ModernSTT())
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Stride: 16}
	for _, w := range ws {
		t.Run(w.Name, func(t *testing.T) {
			machine, err := Sweep(w, LayerMachine, opts)
			if err != nil {
				t.Fatal(err)
			}
			trace, err := Sweep(w, LayerTrace, opts)
			if err != nil {
				t.Fatal(err)
			}
			if machine.Instructions != trace.Instructions || len(machine.Verdicts) != len(trace.Verdicts) {
				t.Fatalf("machine layer: %d instructions, %d points; trace layer: %d instructions, %d points",
					machine.Instructions, len(machine.Verdicts), trace.Instructions, len(trace.Verdicts))
			}
			diff := 0
			for i, m := range machine.Verdicts {
				if tr := trace.Verdicts[i]; m != tr {
					diff++
					t.Errorf("instr %d frac %.2f: machine %+v, trace %+v", m.Index, m.Frac, m, tr)
				}
			}
			if diff > 0 {
				t.Fatalf("layers disagree at %d of %d points", diff, len(machine.Verdicts))
			}
		})
	}
}

// TestSerialParallelDeterminism: the same sweep at workers=1 and
// workers=8 must produce identical normalized reports.
func TestSerialParallelDeterminism(t *testing.T) {
	w := build(t, TinySVM)
	opts := Options{Stride: 7, Fracs: []float64{0, 0.4, 0.9}}

	opts.Workers = 1
	serial, err := Sweep(w, LayerMachine, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Workers = 8
	parallel, err := Sweep(w, LayerMachine, opts)
	if err != nil {
		t.Fatal(err)
	}
	serial.Normalize()
	parallel.Normalize()
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("serial and parallel sweeps diverge:\nserial   %+v\nparallel %+v", serial, parallel)
	}
}

// TestRandomCampaign: the seeded randomized mode is deterministic for a
// seed and still finds only crash-equivalent points.
func TestRandomCampaign(t *testing.T) {
	w := build(t, TinyBNN)
	opts := Options{Workers: 0, Random: 48, Seed: 42}
	a, err := Sweep(w, LayerMachine, opts)
	if err != nil {
		t.Fatal(err)
	}
	requireClean(t, a)
	b, err := Sweep(w, LayerMachine, opts)
	if err != nil {
		t.Fatal(err)
	}
	a.Normalize()
	b.Normalize()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed produced different campaigns")
	}
	if a.Points != 48 {
		t.Fatalf("campaign ran %d points, want 48", a.Points)
	}
}

// TestSweepEmitsFaultEvents: a shared Stats observer sees one fault
// event per injection point, plus the outages the injections caused.
func TestSweepEmitsFaultEvents(t *testing.T) {
	stats := &probe.Stats{}
	w := build(t, TinySVM)
	rep, err := Sweep(w, LayerMachine, Options{Workers: 2, Stride: 11, Fracs: []float64{0.5}, Obs: stats})
	if err != nil {
		t.Fatal(err)
	}
	sec := stats.Section()
	if sec.FaultsInjected != uint64(rep.Points) {
		t.Fatalf("stats saw %d fault events, report has %d points", sec.FaultsInjected, rep.Points)
	}
	if sec.Interrupts < uint64(rep.Points) {
		t.Fatalf("stats saw %d interrupts for %d injections", sec.Interrupts, rep.Points)
	}
}

// TestInjectorModeMachine covers the injector's three-phase protocol
// directly.
func TestInjectorModeMachine(t *testing.T) {
	inj := NewInjector(1e-12, 1e-3)
	if inj.Power(0) != 1e-3 {
		t.Fatalf("charging power %g, want recover power", inj.Power(0))
	}
	inj.OutageEnd(0, 0) // initial charge completes -> armed
	if inj.Power(0) != 0 {
		t.Fatalf("armed power %g, want 0", inj.Power(0))
	}
	if inj.Tripped() {
		t.Fatal("tripped before any interrupt")
	}
	inj.PulseInterrupted(probe.Interrupt{})
	if !inj.Tripped() {
		t.Fatal("not tripped after interrupt")
	}
	if inj.Power(0) != 1e-3 {
		t.Fatalf("recovered power %g, want recover power", inj.Power(0))
	}
	inj.OutageEnd(0, 0) // post-trip recharge must not re-arm
	if inj.Power(0) != 1e-3 {
		t.Fatal("post-trip OutageEnd re-armed the injector")
	}
}

// TestInjectorZeroWindow: a zero-energy schedule is floored to a
// representable window and the harvester stays valid.
func TestInjectorZeroWindow(t *testing.T) {
	inj := NewInjector(0, 1e-3)
	if inj.WindowJ <= 0 {
		t.Fatalf("window %g not floored", inj.WindowJ)
	}
	h := inj.Harvester()
	if err := h.Validate(); err != nil {
		t.Fatalf("zero-window harvester invalid: %v", err)
	}
}

// TestInjectBounds: out-of-range points are rejected, not run.
func TestInjectBounds(t *testing.T) {
	w := build(t, TinySVM)
	g, err := RunGolden(w, LayerMachine)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []Point{{Index: -1, Frac: 0}, {Index: g.Points(), Frac: 0}, {Index: 0, Frac: 1}, {Index: 0, Frac: -0.1}} {
		if _, err := Inject(w, g, p, nil); err == nil {
			t.Errorf("point %+v accepted", p)
		}
	}
}

// FuzzCrashEquivalence feeds arbitrary (boundary, fraction) points into
// the bit-accurate injector: every reachable point must be
// crash-equivalent.
func FuzzCrashEquivalence(f *testing.F) {
	w := build(f, TinySVM)
	g, err := RunGolden(w, LayerMachine)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(uint16(0), uint8(0))
	f.Add(uint16(1), uint8(128))
	f.Add(uint16(9999), uint8(255))
	f.Fuzz(func(t *testing.T, kRaw uint16, fRaw uint8) {
		p := Point{Index: int(kRaw) % g.Points(), Frac: float64(fRaw) / 256}
		v, err := Inject(w, g, p, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !v.Equivalent {
			t.Fatalf("instr %d frac %.3f: %s", p.Index, p.Frac, v.Mismatch)
		}
	})
}
