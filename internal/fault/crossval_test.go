package fault

import (
	"errors"
	"math"
	"testing"
	"time"

	"mouse/internal/compile"
	"mouse/internal/energy"
	"mouse/internal/isa"
	"mouse/internal/lint"
	"mouse/internal/mtj"
	"mouse/internal/power"
	"mouse/internal/sim"
)

// TestStaticDynamicAgreement is the differential gate of the mousevet
// v2 issue: for every built-in workload (arith, tiny-svm, tiny-bnn,
// tiny-fft), the static verdict — replay-safe per the region-aware
// abstract interpreter, energy-feasible per the WCE certificate — must
// agree with the exhaustive crash sweep and with intermittent
// simulation under the same capacitor. CI runs exactly this test as
// its gate step.
func TestStaticDynamicAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive differential sweep")
	}
	ws, err := Workloads(mtj.ModernSTT())
	if err != nil {
		t.Fatal(err)
	}
	// Every instruction boundary; the fraction triple covers the fetch,
	// execute, and commit µ-phase bands (the full grid runs in
	// TestArithExhaustive).
	opts := Options{Fracs: []float64{0, 0.5, 0.97}}
	for _, w := range ws {
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			r, err := CrossValidate(w, opts)
			if err != nil {
				t.Fatal(err)
			}
			if d := r.Disagreement(); d != "" {
				t.Fatal(d)
			}
			// These workloads are built to be certified safe, so agreement
			// must be realized as safe/safe — not as a vacuous unsafe pair.
			if r.Static.HasErrors() {
				t.Errorf("static analysis rejects the workload: %v", r.Static.Err())
			}
			if !r.Cert.Feasible {
				t.Errorf("WCE certificate refutes feasibility: worst region %d", r.Cert.WorstRegion)
			}
			if !r.SimCompleted {
				t.Errorf("intermittent run did not complete: %v", r.SimErr)
			}
			if !r.Sweep.AllEquivalent() {
				t.Errorf("%d/%d injection points not crash-equivalent", r.Sweep.Points-r.Sweep.Equivalent, r.Sweep.Points)
			}
		})
	}
}

// The negative direction of the capacitor agreement: on a vanishingly
// small buffer the certificate must refute feasibility, and the
// intermittent simulator must refuse the same program with
// ErrNonTermination — static and dynamic agreeing that the program
// livelocks.
func TestInfeasibleCapacitorAgreement(t *testing.T) {
	tiny := *mtj.ModernSTT()
	tiny.CapC = 1e-12
	prog := build(t, Arith).Prog
	lopts := lint.Options{
		Geometry:           lint.Geometry{Tiles: 1, Rows: arithRows, Cols: arithCols},
		Config:             &tiny,
		CheckpointInterval: 1,
	}
	cert, err := lint.Certify(prog, lopts)
	if err != nil {
		t.Fatal(err)
	}
	if cert.Feasible {
		t.Fatalf("1 pF buffer certified feasible: window %.3g J", cert.WindowJ)
	}
	if !lint.Lint(prog, lopts).HasErrors() {
		t.Error("wce rule produced no error for the infeasible buffer")
	}

	model := energy.NewModel(&tiny)
	model.RowBits = arithCols
	h := power.NewHarvester(power.Constant{W: chargeWatts}, tiny.CapC, tiny.CapVMin, tiny.CapVMax)
	r := sim.NewRunner(model)
	if _, err := r.Run(sim.StreamFromProgram(prog, 1), h); !errors.Is(err, sim.ErrNonTermination) {
		t.Fatalf("simulator verdict disagrees with the certificate: err=%v", err)
	}
}

// twoActProgram multiplies on two columns, then widens the activation
// to all eight and multiplies again: a restart after the second ACT
// re-latches more columns than one before it, so the checkpoint
// regions that span the widening must charge the wider restore.
func twoActProgram() (isa.Program, error) {
	b := compile.NewBuilder(arithRows)
	b.ActivateBroadcast([]uint16{0, 1})
	x := b.AllocWord(6, 0)
	y := b.AllocWord(6, 0)
	p := b.MulWords(x, y)
	b.ActivateBroadcast([]uint16{0, 1, 2, 3, 4, 5, 6, 7})
	b.MulWords(p[:6], x)
	return b.Program()
}

// TestIntervalAgreementOnSmallBuffer compares the energy verdicts at
// every checkpoint interval on a buffer sized between a program's
// costliest instruction and its whole-program region: the
// per-instruction checkpoint is certified, the single region is not,
// and the simulator must agree — completing wherever the certificate
// is feasible and stopping with ErrNonTermination, not hanging, where
// it refuses. The two-ACT program checks that the certificate's
// restore (the last executed ACT's columns) covers the loop's ACT
// register when a region spans the widening ACT.
func TestIntervalAgreementOnSmallBuffer(t *testing.T) {
	arith := build(t, Arith).Prog
	twoAct, err := twoActProgram()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		prog isa.Program
	}{{"arith", arith}, {"two ACTs, wider second", twoAct}} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := *mtj.ModernSTT()
			lopts := lint.Options{
				Geometry: lint.Geometry{Tiles: 1, Rows: arithRows, Cols: arithCols},
				Config:   &cfg,
			}
			worst := func(k int) float64 {
				lopts.CheckpointInterval = k
				cert, err := lint.Certify(tc.prog, lopts)
				if err != nil {
					t.Fatal(err)
				}
				return cert.Regions[cert.WorstRegion].WCEJ
			}
			windowJ := math.Sqrt(worst(1) * worst(len(tc.prog)+1))
			cfg.CapC = 2 * windowJ / (cfg.CapVMax*cfg.CapVMax - cfg.CapVMin*cfg.CapVMin)

			w := Workload{Name: tc.name, Cfg: &cfg, Prog: tc.prog, Tiles: 1, Rows: arithRows, Cols: arithCols}
			runner := sim.NewRunner(w.model())
			var vs []IntervalVerdict
			var runErr error
			done := make(chan struct{})
			go func() {
				defer close(done)
				vs, runErr = intervalVerdicts(w, lopts, runner)
			}()
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatal("interval runs still going after 10s: livelock")
			}
			if runErr != nil {
				t.Fatal(runErr)
			}
			for _, v := range vs {
				if v.Err != nil && !errors.Is(v.Err, sim.ErrNonTermination) {
					t.Fatalf("interval %d: %v", v.Interval, v.Err)
				}
				if v.Feasible && !v.Completed {
					t.Errorf("interval %d: certified feasible but the run did not complete: %v", v.Interval, v.Err)
				}
			}
			if first := vs[0]; !first.Feasible || !first.Completed {
				t.Errorf("interval 1 should be certified and complete: %+v", first)
			}
			if last := vs[len(vs)-1]; last.Feasible || !errors.Is(last.Err, sim.ErrNonTermination) {
				t.Errorf("interval %d should be refused by both sides: %+v", last.Interval, last)
			}
			for _, v := range vs {
				t.Logf("interval %d: feasible=%v completed=%v err=%v", v.Interval, v.Feasible, v.Completed, v.Err)
			}
		})
	}
}
