package fault

import (
	"errors"
	"fmt"

	"mouse/internal/bnn"
	"mouse/internal/energy"
	"mouse/internal/fft"
	"mouse/internal/isa"
	"mouse/internal/lint"
	"mouse/internal/mtj"
	"mouse/internal/power"
	"mouse/internal/sim"
	"mouse/internal/svm"
)

// Cross-validation closes the loop between mousevet's static analysis
// and this package's dynamic evidence: the abstract interpreter claims
// a program is replay-safe and energy-feasible, the sweep and the
// intermittent simulator try to refute the claim on the very same
// instruction stream under the very same capacitor. A disagreement in
// either direction is a bug in one of the two engines, so CI runs the
// comparison over every built-in workload (the differential gate of
// the mousevet v2 issue).

// Subject pairs a machine workload's dynamic form (a fresh controller
// per injected run) with the static-analysis view of the same program:
// the instruction stream and the geometry it deploys onto.
type Subject struct {
	Workload Workload
	Prog     isa.Program

	// Tiles/Rows/Cols is the deployed geometry, matching the machine the
	// workload builds.
	Tiles, Rows, Cols int
}

// Subjects returns every built-in machine workload in cross-validation
// form, compiled under cfg. The programs are the exact streams the
// workloads execute — same compiles, same parameters.
func Subjects(cfg *mtj.Config) ([]Subject, error) {
	var subjects []Subject

	prog, _, _, err := compiledArith(cfg)
	if err != nil {
		return nil, fmt.Errorf("fault: compiling arith: %w", err)
	}
	subjects = append(subjects, Subject{
		Workload: Arith(cfg), Prog: prog,
		Tiles: 1, Rows: arithRows, Cols: arithCols,
	})

	smp, err := svm.CompileMapping(tinySVMModel(), svmRows, 1)
	if err != nil {
		return nil, fmt.Errorf("fault: compiling tiny-svm: %w", err)
	}
	subjects = append(subjects, Subject{
		Workload: TinySVM(cfg), Prog: smp.Prog,
		Tiles: 1, Rows: svmRows, Cols: arithCols,
	})

	bmp, err := bnn.CompileMapping(tinyBNNNetwork(), bnnRows, bnnCols)
	if err != nil {
		return nil, fmt.Errorf("fault: compiling tiny-bnn: %w", err)
	}
	subjects = append(subjects, Subject{
		Workload: TinyBNN(cfg), Prog: bmp.Prog,
		Tiles: 1, Rows: bnnRows, Cols: arithCols,
	})

	fmp, err := fft.Compile(tinyFFTParams(), fftRows, fftCols)
	if err != nil {
		return nil, fmt.Errorf("fault: compiling tiny-fft: %w", err)
	}
	subjects = append(subjects, Subject{
		Workload: TinyFFT(cfg), Prog: fmp.Prog,
		Tiles: 1, Rows: fftRows, Cols: arithCols,
	})

	return subjects, nil
}

// CrossResult holds one subject's verdicts from both sides of the
// differential: the static analysis (lint report, WCE certificate) and
// the dynamic evidence (crash sweep, simulated run on the capacitor).
type CrossResult struct {
	Name string

	// Static side: the full lint report under the machine's geometry and
	// capacitor at checkpoint interval 1 (the hardware checkpoints after
	// every instruction) and the per-region worst-case-energy
	// certificate.
	Static lint.Report
	Cert   *lint.Certificate

	// Dynamic side: the exhaustive crash sweep and one intermittent
	// trace-layer run on a harvester buffered by the same capacitor.
	Sweep        *Report
	SimCompleted bool
	SimErr       error

	// Intervals holds the certificate's and the simulator's verdicts at
	// checkpoint intervals 1, 8, 64 and program length + 1.
	Intervals []IntervalVerdict

	// SegmentMismatch is non-empty when the analytic segment engine and
	// the stepping engine disagree on the intermittent run — a third
	// differential axis alongside static-vs-dynamic: the two simulator
	// paths must be bit-identical on the same stream and capacitor.
	SegmentMismatch string
}

// IntervalVerdict pairs the static and dynamic energy verdicts at one
// checkpoint interval: the WCE certificate over the interval's regions
// and one RunWithCheckpointInterval run on the same capacitor.
type IntervalVerdict struct {
	Interval  int
	Feasible  bool
	Completed bool
	Err       error
}

// chargeWatts supplies the cross-validation harvester: strong enough
// to recharge the buffer in simulated minutes, yet three orders of
// magnitude below one instruction's draw per cycle, so completion is
// decided by the capacitor window alone — exactly the quantity the
// static WCE model reasons about. (A generous source would pay for
// ops out of incoming power and mask an undersized buffer.)
const chargeWatts = 1e-7

// CrossValidate runs both engines over one subject under cfg and
// returns the paired verdicts. Sweep options bound the dynamic side's
// injection schedule; the static side is always exhaustive.
func CrossValidate(s Subject, cfg *mtj.Config, opts Options) (*CrossResult, error) {
	lopts := lint.Options{
		Geometry:           lint.Geometry{Tiles: s.Tiles, Rows: s.Rows, Cols: s.Cols},
		Config:             cfg,
		CheckpointInterval: 1,
	}
	r := &CrossResult{Name: s.Workload.Name, Static: lint.Lint(s.Prog, lopts)}

	cert, err := lint.Certify(s.Prog, lopts)
	if err != nil {
		return nil, fmt.Errorf("fault: certifying %s: %w", s.Workload.Name, err)
	}
	r.Cert = cert

	model := energy.NewModel(cfg)
	model.RowBits = s.Cols

	// The intermittent run: same program, same capacitor, a steady
	// source. Completion here is the dynamic analogue of the WCE
	// certificate's feasibility verdict. The constant source makes the
	// stream eligible for the analytic segment engine, so this run also
	// exercises the fast path...
	h := power.NewHarvester(power.Constant{W: chargeWatts}, cfg.CapC, cfg.CapVMin, cfg.CapVMax)
	runner := sim.NewRunner(model)
	res, runErr := runner.Run(sim.StreamFromProgram(s.Prog, s.Tiles), h)
	r.SimCompleted = runErr == nil && res.Completed
	r.SimErr = runErr

	// ...and the stepping engine must agree with it bit for bit on the
	// very same stream (the simulator-internal differential).
	hStep := power.NewHarvester(power.Constant{W: chargeWatts}, cfg.CapC, cfg.CapVMin, cfg.CapVMax)
	stepper := sim.NewRunner(model)
	stepper.ForceStepping = true
	stepRes, stepErr := stepper.Run(sim.StreamFromProgram(s.Prog, s.Tiles), hStep)
	switch {
	case (runErr == nil) != (stepErr == nil),
		runErr != nil && stepErr != nil && runErr.Error() != stepErr.Error():
		r.SegmentMismatch = fmt.Sprintf("segment err %v vs stepping err %v", runErr, stepErr)
	case res != stepRes:
		r.SegmentMismatch = fmt.Sprintf("segment %+v vs stepping %+v", res, stepRes)
	}

	if r.Intervals, err = intervalVerdicts(s, cfg, lopts, runner); err != nil {
		return nil, err
	}

	swp, err := Sweep(s.Workload, opts)
	if err != nil {
		return nil, fmt.Errorf("fault: sweeping %s: %w", s.Workload.Name, err)
	}
	r.Sweep = swp
	return r, nil
}

// intervalVerdicts certifies and runs the subject on cfg's capacitor
// and the steady source at the hardware's per-instruction checkpoint,
// two thinned intervals, and a single region spanning the program.
func intervalVerdicts(s Subject, cfg *mtj.Config, lopts lint.Options, runner *sim.Runner) ([]IntervalVerdict, error) {
	var vs []IntervalVerdict
	for _, k := range []int{1, 8, 64, len(s.Prog) + 1} {
		lopts.CheckpointInterval = k
		cert, err := lint.Certify(s.Prog, lopts)
		if err != nil {
			return nil, fmt.Errorf("fault: certifying %s at interval %d: %w", s.Workload.Name, k, err)
		}
		h := power.NewHarvester(power.Constant{W: chargeWatts}, cfg.CapC, cfg.CapVMin, cfg.CapVMax)
		res, err := runner.RunWithCheckpointInterval(sim.StreamFromProgram(s.Prog, s.Tiles), h, k)
		vs = append(vs, IntervalVerdict{
			Interval: k, Feasible: cert.Feasible, Completed: err == nil && res.Completed, Err: err,
		})
	}
	return vs, nil
}

// Disagreement returns "" when the static and dynamic verdicts are
// consistent, and a description of the first inconsistency otherwise.
// The contract is soundness in both directions where the static
// analysis claims precision, and one-sided where it is conservative:
//
//   - a lint-clean program must be crash-equivalent at every injection
//     point (static safety proof vs dynamic refutation);
//   - a sweep failure must be matched by a static error (dynamic
//     counterexample vs static proof);
//   - a feasible WCE certificate must complete on the capacitor (the
//     certificate may be infeasible while the run still completes —
//     restore overhead makes it conservative — but never the reverse);
//   - the same holds at every checkpoint interval: a feasible
//     certificate means the run completes, so a run that stops with
//     sim.ErrNonTermination must face an infeasible certificate.
func (r *CrossResult) Disagreement() string {
	staticSafe := !r.Static.HasErrors()
	dynamicSafe := r.Sweep.AllEquivalent()
	switch {
	case staticSafe && !dynamicSafe:
		f := r.Sweep.Failures()[0]
		return fmt.Sprintf("%s: mousevet proves the program safe but injection at instr %d frac %.2f broke equivalence: %s",
			r.Name, f.Index, f.Frac, f.Mismatch)
	case !staticSafe && dynamicSafe:
		return fmt.Sprintf("%s: mousevet reports errors (%v) but the exhaustive sweep is fully crash-equivalent",
			r.Name, r.Static.Err())
	}
	if r.Cert.Feasible && !r.SimCompleted {
		return fmt.Sprintf("%s: WCE certificate proves every region fits the %.3g J window, but the simulated run did not complete: %v",
			r.Name, r.Cert.WindowJ, r.SimErr)
	}
	for _, v := range r.Intervals {
		if v.Feasible && !v.Completed {
			return fmt.Sprintf("%s: at checkpoint interval %d the WCE certificate proves every region fits the window, but the run did not complete: %v",
				r.Name, v.Interval, v.Err)
		}
	}
	if r.SegmentMismatch != "" {
		return fmt.Sprintf("%s: segment engine disagrees with stepping engine: %s", r.Name, r.SegmentMismatch)
	}
	return ""
}

// CheckAgreement cross-validates every built-in workload under cfg and
// returns an error describing the first static/dynamic disagreement.
// This is the function the CI differential gate calls (through its
// test wrapper): a refuted certificate or an unproven hazard fails the
// build.
func CheckAgreement(cfg *mtj.Config, opts Options) error {
	subjects, err := Subjects(cfg)
	if err != nil {
		return err
	}
	var failures []string
	for _, s := range subjects {
		r, err := CrossValidate(s, cfg, opts)
		if err != nil {
			return err
		}
		if d := r.Disagreement(); d != "" {
			failures = append(failures, d)
		}
	}
	if len(failures) > 0 {
		return errors.New("fault: static/dynamic disagreement: " + failures[0])
	}
	return nil
}
